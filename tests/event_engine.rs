//! Witnesses for the quiescence-aware typed event engine: idle loop polls
//! collapse by orders of magnitude versus the poll-every-tick baseline, and
//! the per-kind event counters account for the run.

use capnet::netsim::NetSim;
use capnet::topology::build_chain;
use simkern::{CostModel, SimDuration};

/// Quiescence accounting on an idle-heavy run: a single flow through one
/// switch hop, with 30 ms of post-traffic drain. The poll-every-900ns
/// baseline executed ~2 polls per µs per node; with park/wake, idle polls
/// must be a rounding error against the old regime, and the counters must
/// add up to the engine's executed-event total.
#[test]
fn parking_collapses_idle_polls_and_counters_account_for_the_run() {
    let mut sim = NetSim::new(CostModel::morello());
    let chain = build_chain(&mut sim, 1).unwrap();
    sim.add_server(chain.b, "b-rx", 5501).unwrap();
    sim.add_client(
        chain.a,
        "a-tx",
        (chain.b_ip, 5501),
        SimDuration::from_millis(25),
        SimDuration::ZERO,
    )
    .unwrap();
    let out = sim.run(SimDuration::from_millis(55)).unwrap();
    let c = out.counters;

    // The old engine executed ~550k events for a run of this shape (every
    // node polling every 900 ns for 55 ms). Parking must cut idle polls by
    // far more than the 10× the acceptance bar asks for.
    let polled_baseline = 2 * 55_000_000 / 900; // 2 hosts, 55 ms, 900 ns
    assert!(
        c.idle_polls < polled_baseline / 10,
        "idle polls did not collapse: {} vs baseline {}",
        c.idle_polls,
        polled_baseline
    );
    assert!(c.parks > 1_000, "steady state parks between frames: {c:?}");
    assert!(c.wakes > 1_000, "deliveries wake parked loops: {c:?}");

    // Every executed event is accounted for by exactly one counter class.
    // An executed event is a LoopIter, a Wake, a Deliver or a SwitchHop;
    // honored wakes run a loop iteration (so they land in `loop_polls`),
    // stale wakes are counted separately — the four classes partition the
    // engine's executed-event total.
    let accounted = c.loop_polls + c.deliveries + c.switch_hops + c.stale_wakes;
    assert_eq!(
        accounted, out.events,
        "counter classes must partition the event total: {c:?}"
    );

    // And the run still does its job.
    let bw = out.servers[0].mbit_per_sec();
    assert!((bw - 941.0).abs() < 30.0, "line rate survived: {bw:.0}");
}

/// The exact complexity gate on the paper's own testbed: all seven designs,
/// DUT on either side, 40 ms of traffic. Under round-robin scheduling every
/// host's idle period is a function of its own state, so **every** idle
/// poll parks — charged DUTs behind the 82576's DMA model included — and
/// every host, charged or ideal, parks at the end of the turn that read a
/// frame, so a frame costs its delivery and the wake that reads it: at
/// most 2.0017 events per delivered frame in every cell, the boot and the
/// stop instants being the rest (a charged DUT's confirming idle turn took
/// up to 2.67, the spinning DUT 15.5). Under the paper's barging policy
/// the S2 service loop's idle period changes with the turn, so it keeps
/// polling: the fallback has a witness too.
#[test]
fn every_idle_poll_parks_on_the_paper_testbed_at_most_2_0017_events_a_frame() {
    use capnet::netsim::AppSched;
    use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};

    // Runs one cell and checks the four-class partition of its events.
    let run = |kind, mode, sched| {
        let out = ScenarioSpec::paper(kind, mode)
            .duration(SimDuration::from_millis(40))
            .app_sched(sched)
            .run()
            .unwrap();
        let c = out.counters;
        let accounted = c.loop_polls + c.deliveries + c.switch_hops + c.stale_wakes;
        assert_eq!(accounted, out.events, "{kind} {mode}: {c:?}");
        out
    };
    for kind in ScenarioKind::all() {
        for mode in [TrafficMode::Server, TrafficMode::Client] {
            let out = run(kind, mode, AppSched::RoundRobin);
            let c = out.counters;
            assert!(c.idle_polls <= c.parks, "{kind} {mode}: {c:?}");
            assert!(
                out.events * 10_000 <= out.trace.frames * 20_017,
                "{kind} {mode}: {} events for {} frames",
                out.events,
                out.trace.frames
            );
        }
    }

    let kind = ScenarioKind::Scenario2Contended;
    for mode in [TrafficMode::Server, TrafficMode::Client] {
        let out = run(kind, mode, AppSched::paper_barging());
        let c = out.counters;
        assert!(c.idle_polls > 4 * c.parks, "{mode}: the DUT polls: {c:?}");
    }
}

/// The exact complexity gate on the event calendar. The 128-leaf star's
/// boot ARP exchange floods 128 × 128 broadcast copies: 129–258 deliveries
/// plus the leaves' loop iterations land in each 1 024 ns calendar slot of
/// the first ≈ 100 µs. A slot is ordered once, when the cursor gets to it
/// (k log k comparisons), and drained from its end; a calendar that
/// searched what is left of the slot on every pop would examine 3 716 434
/// entries in this run, 72 per event. On the paper's two-node row every
/// frame's delivery waits behind a TX queue deeper than one fine rotation:
/// those schedules belong on the coarse wheel level, not in the overflow
/// heap.
#[test]
fn the_calendar_costs_the_same_full_or_empty() {
    use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};

    // The benchmark's `star128_fanin` at 1/100 length: the boot flood and
    // the first windows, 36 ms of virtual time.
    let out = ScenarioSpec::star(128)
        .duration(SimDuration::from_millis(6))
        .seed(7)
        .run()
        .unwrap();
    let cal = out.calendar;
    assert_eq!(out.events, 44_458, "the run this gate was sized on");
    assert!(cal.max_slot >= 128, "the flood is in the run: {cal:?}");
    assert!(
        cal.compares <= 12 * out.events,
        "{} comparisons for {} events: {cal:?}",
        cal.compares,
        out.events
    );

    let out = ScenarioSpec::paper(ScenarioKind::Scenario2Contended, TrafficMode::Server)
        .duration(SimDuration::from_millis(40))
        .run()
        .unwrap();
    let cal = out.calendar;
    assert!(cal.coarse > 0, "deliveries behind the TX queue: {cal:?}");
    // Only a deadline a whole coarse rotation (≈ 268 ms) ahead may overflow
    // to the heap: an iperf client's stop instant, a fleet's `open_end`, a
    // backed-off RTO. A 40 ms run has at most its few app clocks there.
    assert!(cal.overflow <= 8, "{cal:?}");
}

/// The confirming idle turn is gone on ideal hosts: a gated host that
/// leaves its stack quiet parks at the end of the turn that did the work,
/// so an idle turn runs only where a wake found nothing to do — on the
/// benchmark's `star128_fanin` at 1/100 length, one in a hundred polls at
/// most (it was every other one).
#[test]
fn ideal_hosts_park_on_the_turn_that_did_the_work() {
    use capnet::scenario::ScenarioSpec;

    let out = ScenarioSpec::star(128)
        .duration(SimDuration::from_millis(6))
        .seed(7)
        .run()
        .unwrap();
    let c = out.counters;
    assert!(c.idle_polls * 100 <= c.loop_polls, "{c:?}");
    assert!(c.idle_polls <= c.parks, "{c:?}");
}
