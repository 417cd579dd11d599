//! Determinism of the parked node loop: identical seeds yield identical
//! runs — one trace digest, one set of reports, counters and stats —
//! through the full stack (`ff_*` API → TCP → IP → Ethernet → poll-mode
//! driver → tagged packet memory → impaired wire) and through the
//! compartmentalized `NetSim` world on top of it. Every test here runs
//! `ScenarioSpec::run` or `NetSim::run`.
//!
//! Every scale/perf change leans on this suite: once sharding, batching or
//! caching lands, "same seed, same run" is what proves the optimization
//! didn't change behavior.

mod testutil;

use capnet::netsim::{IsolationProfile, NetSim};
use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use capnet::SimOutcome;
use simkern::{CostModel, SimDuration};
use std::net::Ipv4Addr;
use testutil::assert_same_run;
use updk::nic::NicModel;
use updk::wire::Impairments;

/// The paper's baseline testbed with the DUT receiving one bulk iperf
/// flow for 20 ms over a wire with `impairments` drawn from `seed`: the
/// parked node loop, the driver, the mempools and the per-port impairment
/// streams, all real.
fn bulk(seed: u64, impairments: Impairments) -> SimOutcome {
    ScenarioSpec::paper(ScenarioKind::BaselineSingleProcess, TrafficMode::Server)
        .duration(SimDuration::from_millis(20))
        .impairments(impairments)
        .seed(seed)
        .run()
        .unwrap()
}

/// The server never received more than the client's `ff_write` accepted
/// and, on a run whose tail `drained` the flow, received exactly that:
/// every byte arrived, once.
fn assert_delivered(out: &SimOutcome, drained: bool) {
    let (got, wrote) = (out.servers[0].bytes, out.clients[0].bytes);
    assert!(wrote > 0 && got <= wrote, "received {got} of {wrote} bytes");
    if drained {
        assert_eq!(got, wrote, "TCP delivered every byte written");
    }
}

/// Scenario 1 — TCP bulk transfer over the ideal cable. With no stochastic
/// impairments the run must not depend on the seed at all: any two runs,
/// same seed or not, are identical.
#[test]
fn tcp_transfer_on_ideal_wire_is_fully_deterministic() {
    let run = |seed: u64| bulk(seed, Impairments::default());
    let (o1, o2, o3) = (run(1), run(1), run(999));
    assert!(o1.trace.frames > 0, "the transfer produced traffic");
    assert_delivered(&o1, true);
    assert_same_run(&o1, &o2, "same seed");
    assert_same_run(&o1, &o3, "seed is irrelevant without impairments");
}

/// Scenario 2 — TCP over a lossy cable. The loss pattern is drawn from the
/// seed, so identical seeds give identical runs (including every
/// retransmission), different seeds give different traces, and TCP never
/// delivers a byte twice.
#[test]
fn tcp_transfer_over_lossy_wire_is_seed_deterministic() {
    let run = |seed: u64| bulk(seed, Impairments::lossy(30));
    let (o1, o2, o3) = (run(42), run(42), run(43));
    assert!(
        o1.impairment_stats.lost > 0,
        "the cable actually lost frames: {:?}",
        o1.impairment_stats
    );
    assert_delivered(&o1, true);
    // Seed 43's losses leave part of the flow unsent when the tail ends.
    assert_delivered(&o3, false);
    assert_same_run(&o1, &o2, "lossy, same seed");
    assert_ne!(
        o1.trace.digest, o3.trace.digest,
        "a different seed draws a different loss pattern"
    );
    assert_ne!(o1.impairment_stats, o3.impairment_stats);
}

/// Scenario 3 — TCP over a cable that reorders, duplicates AND corrupts.
/// The hardest recovery path (out-of-order reassembly + checksum discard +
/// dup suppression) is still a pure function of the seed.
#[test]
fn tcp_transfer_over_chaotic_wire_is_seed_deterministic() {
    let imp = Impairments {
        corrupt_per_mille: 10,
        dup_per_mille: 20,
        reorder_per_mille: 40,
        reorder_delay: SimDuration::from_micros(300),
        ..Impairments::default()
    };
    let (o1, o2) = (bulk(7, imp), bulk(7, imp));
    let s1 = o1.impairment_stats;
    assert!(
        s1.reordered > 0 && s1.duplicated > 0 && s1.corrupted > 0,
        "every impairment class fired: {s1:?}"
    );
    assert_delivered(&o1, true);
    assert_same_run(&o1, &o2, "chaotic, same seed");
}

/// Builds a two-host `NetSim` whose client writes in bursts separated by
/// `write_gap` — when the gap dwarfs the 900 ns idle poll period, the
/// quiescence-aware engine parks both nodes between bursts instead of
/// polling through the gap. The park/wake scenarios below prove that this
/// changes nothing observable.
fn bursty_two_host(seed: u64, write_gap: SimDuration) -> NetSim {
    let mut sim = NetSim::new(CostModel::morello());
    sim.set_seed(seed);
    let a = sim.add_dev(NicModel::Host).unwrap();
    let b = sim.add_dev(NicModel::Host).unwrap();
    sim.link(a, 0, b, 0).unwrap();
    let srv = sim
        .add_node(
            "srv",
            a,
            0,
            Ipv4Addr::new(10, 7, 0, 1),
            IsolationProfile::default(),
        )
        .unwrap();
    let cli = sim
        .add_node(
            "cli",
            b,
            0,
            Ipv4Addr::new(10, 7, 0, 2),
            IsolationProfile::default(),
        )
        .unwrap();
    sim.add_server(srv, "srv-rx", 5201).unwrap();
    sim.add_client(
        cli,
        "cli-tx",
        (Ipv4Addr::new(10, 7, 0, 1), 5201),
        SimDuration::from_millis(30),
        write_gap,
    )
    .unwrap();
    sim
}

/// Park/wake scenario A — a client whose write gap (50 µs) is ~55× the
/// idle poll period leaves long quiescent stretches between bursts: both
/// nodes park and wake repeatedly. On ideal cables the trace must be
/// byte-identical across runs AND across seeds (parking may not leak any
/// seed- or schedule-dependence into wire behavior).
#[test]
fn bursty_client_with_parked_gaps_is_fully_deterministic() {
    let run = |seed: u64| {
        bursty_two_host(seed, SimDuration::from_micros(50))
            .run(SimDuration::from_millis(45))
            .unwrap()
    };
    let o1 = run(3);
    let o2 = run(3);
    let o3 = run(77);
    assert!(o1.trace.frames > 100, "bursts produced traffic");
    assert_same_run(&o1, &o2, "same seed");
    assert_same_run(&o1, &o3, "ideal cables ⇒ seed-independent");
    // The gaps actually exercised the park/wake machinery.
    assert!(o1.counters.parks > 100, "nodes parked: {:?}", o1.counters);
    assert!(o1.counters.wakes > 100, "deliveries woke parked nodes");
}

/// Park/wake scenario B — idle gaps between bursts on a *lossy* cable:
/// retransmission timers are the only thing standing between a lost burst
/// and a stall, so parked nodes must wake on stack timer deadlines. Same
/// seed ⇒ same trace; different seed ⇒ different loss pattern.
#[test]
fn bursty_client_over_lossy_wire_wakes_on_timers_deterministically() {
    let run = |seed: u64| {
        let mut sim = bursty_two_host(seed, SimDuration::from_micros(80));
        sim.set_impairments(Impairments::lossy(30));
        sim.run(SimDuration::from_millis(60)).unwrap()
    };
    let o1 = run(9);
    let o2 = run(9);
    let o3 = run(10);
    assert!(o1.impairment_stats.lost > 0, "the cable actually lost");
    assert_same_run(&o1, &o2, "lossy bursts, same seed");
    assert_ne!(o1.trace.digest, o3.trace.digest, "different loss pattern");
    assert!(
        o1.counters.timer_wakes > 0,
        "losses forced timer wakes: {:?}",
        o1.counters
    );
    // The client still got its data through despite parking around losses.
    assert!(o1.servers[0].bytes > 0);
}

/// Scenario 5 — the full compartment world: two `NetSim` runs built the same
/// way (CAP-VM isolation charges, S2 service mutex, impaired cable) and
/// seeded the same produce identical reports, byte counts and wire
/// counters; a different seed produces different wire counters.
#[test]
fn netsim_compartment_run_is_seed_deterministic() {
    let build = |seed: u64| {
        let costs = CostModel::morello();
        let mut sim = NetSim::new(costs.clone());
        sim.set_seed(seed);
        sim.set_impairments(Impairments::lossy(20));
        let a = sim.add_dev(NicModel::Dual82576).unwrap();
        let h = sim.add_dev(NicModel::Host).unwrap();
        sim.link(a, 0, h, 0).unwrap();
        let dut = sim
            .add_node(
                "dut",
                a,
                0,
                Ipv4Addr::new(10, 9, 0, 1),
                IsolationProfile {
                    per_ff_call_ns: costs.xcall_ns + costs.mutex_fast_ns,
                    s2_service: true,
                },
            )
            .unwrap();
        let host = sim
            .add_node(
                "host",
                h,
                0,
                Ipv4Addr::new(10, 9, 0, 2),
                IsolationProfile::default(),
            )
            .unwrap();
        sim.add_server(dut, "dut-rx", 5201).unwrap();
        sim.add_client(
            host,
            "host-tx",
            (Ipv4Addr::new(10, 9, 0, 1), 5201),
            SimDuration::from_millis(40),
            SimDuration::ZERO,
        )
        .unwrap();
        sim.run(SimDuration::from_millis(50)).unwrap()
    };
    let o1 = build(21);
    let o2 = build(21);
    let o3 = build(22);
    assert_same_run(&o1, &o2, "compartment world, same seed");
    assert!(
        o1.impairment_stats.lost > 0,
        "the impaired cable did its job: {:?}",
        o1.impairment_stats
    );
    assert_ne!(
        o1.impairment_stats, o3.impairment_stats,
        "a different seed loses different frames"
    );
}
