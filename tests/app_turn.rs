//! The app turn costs what is runnable, not what is installed: it
//! examines the slots whose fds changed plus the slots whose app keeps a
//! clock, never all of them (DESIGN.md, "Event engine"). A charged host
//! takes the same turn and pays for the apps it does not step at their
//! declared idle calls.
//!
//! `EventCounters::app_visits` counts the slots examined, so the claim is
//! an exact number CI can hold: on an N-leaf star every leaf hosts one
//! sender and the hub hosts N receivers, and the hub is the only node
//! where "installed" and "runnable" differ. Before the visit list the hub
//! examined all N slots on every poll and `app_visits / loop_polls` grew
//! with N (10.76 at star16, 38.85 at star64 — 3.6×, counted on that commit
//! with `apps.len()` per poll); now it is 0.66 and 0.64. Charged stars
//! kept stepping every slot for longer (10.57 and 21.53 at a 200 ns
//! per-call cost); now they read 1.0 and 1.35.
//!
//! The star16/star64 digests pinned in `testutil` were first recorded on
//! the commit before the visit list, the FIFO switch queues and the
//! token-table cancel existed: none of the three may move a single
//! delivered byte. The charged pair was recorded while a charged turn
//! still stepped every slot, so pricing the skipped ones moved nothing
//! either.

mod testutil;

use capnet::scenario::ScenarioSpec;
use capnet::SimOutcome;
use simkern::time::SimDuration;
use testutil::{
    assert_digest, STAR16_CHARGED_DIGEST, STAR16_DIGEST, STAR64_CHARGED_DIGEST, STAR64_DIGEST,
};

/// An N-leaf star for 40 ms at seed 7, every host charged `per_call_ns`
/// per `ff_*` call.
fn star(leaves: usize, workers: usize, per_call_ns: u64) -> SimOutcome {
    ScenarioSpec::star(leaves)
        .duration(SimDuration::from_millis(40))
        .seed(7)
        .isolation_cost(per_call_ns)
        .workers(workers)
        .adaptive_workers(false)
        .run()
        .expect("star runs")
}

fn visits_per_poll(out: &SimOutcome) -> f64 {
    out.counters.app_visits as f64 / out.counters.loop_polls as f64
}

#[test]
fn app_visits_per_poll_stay_flat_as_the_hub_fills() {
    let small = star(16, 1, 0);
    let large = star(64, 1, 0);
    assert_digest("star16", &small.trace, STAR16_DIGEST);
    assert_digest("star64", &large.trace, STAR64_DIGEST);
    let (s, l) = (visits_per_poll(&small), visits_per_poll(&large));
    // A leaf examines its one sender per poll; the hub examines the
    // receivers whose sockets changed — none on a poll that a stack timer
    // (a delayed ACK) woke.
    assert!(s < 1.0, "star16: {s:.3} slots per poll");
    assert!(
        l < s * 1.1,
        "slots examined per poll grew with the hub's app count: \
         {s:.3} at star16, {l:.3} at star64"
    );
}

/// A charged hub takes the same turn and pays for the receivers it does
/// not visit instead of stepping them; the pinned digests hold the price.
#[test]
fn a_charged_hub_visits_what_is_runnable() {
    let small = star(16, 1, 200);
    let large = star(64, 1, 200);
    assert_digest("charged star16", &small.trace, STAR16_CHARGED_DIGEST);
    assert_digest("charged star64", &large.trace, STAR64_CHARGED_DIGEST);
    for (what, out) in [("star16", &small), ("star64", &large)] {
        let v = visits_per_poll(out);
        assert!(v < 2.0, "charged {what}: {v:.3} slots per poll");
    }
}

/// The counter is a property of the simulation, not of the driver: two
/// forced shards examine exactly the slots one engine does, on ideal and
/// on charged hosts (a per-call charge binds no node to another).
#[test]
fn app_visits_are_identical_on_one_engine_and_two_shards() {
    for per_call_ns in [0, 200] {
        let one = star(16, 1, per_call_ns);
        let two = star(16, 2, per_call_ns);
        assert_eq!((one.workers, two.workers), (1, 2), "{per_call_ns} ns");
        assert_eq!(one.trace, two.trace);
        assert_eq!(one.counters.app_visits, two.counters.app_visits);
        assert_eq!(one.counters, two.counters);
    }
}
