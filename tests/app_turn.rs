//! The app turn of a gated host costs what is runnable, not what is
//! installed: it examines the slots whose fds changed plus the slots whose
//! app keeps a clock, never all of them (DESIGN.md, "Event engine").
//!
//! `EventCounters::app_visits` counts the slots examined, so the claim is
//! an exact number CI can hold: on an N-leaf star every leaf hosts one
//! sender and the hub hosts N receivers, and the hub is the only node
//! where "installed" and "runnable" differ. Before the visit list the hub
//! examined all N slots on every poll and `app_visits / loop_polls` grew
//! with N (10.76 at star16, 38.85 at star64 — 3.6×, counted on that commit
//! with `apps.len()` per poll); now it is 0.66 and 0.64.
//!
//! The digests pinned below were recorded on the commit before the visit
//! list, the FIFO switch queues and the token-table cancel existed: none
//! of the three may move a single delivered byte.

use capnet::scenario::ScenarioSpec;
use capnet::SimOutcome;
use simkern::time::SimDuration;

fn star(leaves: usize, workers: usize) -> SimOutcome {
    ScenarioSpec::star(leaves)
        .duration(SimDuration::from_millis(40))
        .seed(7)
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
    let small = star(16, 1);
    let large = star(64, 1);
    assert_eq!(
        small.trace.digest, STAR16_DIGEST,
        "star16: got {:#018x}",
        small.trace.digest
    );
    assert_eq!(
        large.trace.digest, STAR64_DIGEST,
        "star64: got {:#018x}",
        large.trace.digest
    );
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

/// The counter is a property of the simulation, not of the driver: two
/// forced shards examine exactly the slots one engine does.
#[test]
fn app_visits_are_identical_on_one_engine_and_two_shards() {
    let one = star(16, 1);
    let two = star(16, 2);
    assert_eq!((one.workers, two.workers), (1, 2));
    assert_eq!(one.trace.digest, two.trace.digest);
    assert_eq!(one.counters.app_visits, two.counters.app_visits);
    assert_eq!(one.counters, two.counters);
}

const STAR16_DIGEST: u64 = 0x115c_10a4_baa3_36e2;
const STAR64_DIGEST: u64 = 0xc4f4_9432_9174_d4a6;
