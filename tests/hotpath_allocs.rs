//! The zero-copy acceptance witness: a steady-state iperf run performs
//! **zero frame-buffer allocations**.
//!
//! The frame-buffer pool in `updk::framebuf` is itself the counting
//! allocator: every buffer take is classified as `fresh` (heap allocation
//! because the pool was empty) or `reused` (recycled storage). A warm-up
//! run populates the pool to the workload's peak in-flight frame count;
//! after that, a full one-second two-host iperf run must take every one of
//! its hundreds of thousands of frame buffers from the pool — `fresh`
//! stays exactly flat.

use capnet::netsim::{IsolationProfile, NetSim};
use simkern::{CostModel, SimDuration};
use std::net::Ipv4Addr;
use updk::framebuf::pool_stats;
use updk::nic::NicModel;

const SRV_IP: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 1);
const CLI_IP: Ipv4Addr = Ipv4Addr::new(10, 9, 0, 2);

/// Two ideal hosts over one cable, iperf client → server for `run` of
/// simulated time. Returns the server-side goodput so the test can prove
/// the hot path actually carried line-rate traffic.
fn two_host_iperf(run: SimDuration) -> f64 {
    let mut sim = NetSim::new(CostModel::morello());
    let a = sim.add_dev(NicModel::Host).expect("dev a");
    let b = sim.add_dev(NicModel::Host).expect("dev b");
    sim.link(a, 0, b, 0).expect("cable");
    let srv = sim
        .add_node("srv", a, 0, SRV_IP, IsolationProfile::default())
        .expect("server node");
    let cli = sim
        .add_node("cli", b, 0, CLI_IP, IsolationProfile::default())
        .expect("client node");
    sim.add_server(srv, "srv", 5201).expect("server app");
    sim.add_client(cli, "cli", (SRV_IP, 5201), run, SimDuration::ZERO)
        .expect("client app");
    let out = sim
        .run(run + SimDuration::from_millis(20))
        .expect("sim runs");
    out.servers[0].mbit_per_sec()
}

/// After warm-up, a 1-second two-host iperf run allocates **no** frame
/// buffers: every frame on the hot path (`ff_write` → TCP segment build →
/// IP/Ethernet prepend → NIC → wire → rx parse) lives in recycled pool
/// storage.
#[test]
fn steady_state_iperf_allocates_zero_frame_buffers() {
    // Warm-up: reaches every code path (ARP, handshake, bulk transfer,
    // FIN) and leaves the pool stocked to the workload's peak footprint.
    two_host_iperf(SimDuration::from_millis(50));

    let before = pool_stats();
    let bw = two_host_iperf(SimDuration::from_secs(1));
    let after = pool_stats();

    assert!(
        (bw - 941.0).abs() < 20.0,
        "hot path must run at the TCP goodput ceiling to count (got {bw:.0} Mbit/s)"
    );
    let taken = (after.fresh + after.reused) - (before.fresh + before.reused);
    assert!(
        taken > 100_000,
        "a 1-second line-rate run cycles >100k frame buffers, saw {taken}"
    );
    assert_eq!(
        after.fresh,
        before.fresh,
        "steady state must take every frame buffer from the pool \
         ({} fresh allocations leaked into the hot path)",
        after.fresh - before.fresh
    );
    // And the pool balances: everything taken flowed back.
    assert_eq!(
        after.recycled - before.recycled,
        taken,
        "every taken buffer is recycled once the run tears down"
    );
}

/// Pool conservation: every frame-buffer block a run takes is back in the
/// pool once the run and its outcome are dropped — on the paper's
/// contended Table II row (a charged S2 service loop), a lossy star (the
/// retransmission and out-of-order queues hold slices of received frames)
/// and an HTTP star (connection churn, TIME_WAIT).
#[test]
fn every_frame_buffer_block_a_run_takes_comes_back() {
    use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
    use capnet_httpd::{FleetConfig, HttpServerConfig};
    use updk::wire::Impairments;

    let ms = SimDuration::from_millis;
    let runs = [
        (
            "paper S2 contended",
            ScenarioSpec::paper(ScenarioKind::Scenario2Contended, TrafficMode::Server),
        ),
        (
            "lossy star",
            ScenarioSpec::star(2).impairments(Impairments::lossy(20)),
        ),
        (
            "httpd star",
            ScenarioSpec::star(4).http(HttpServerConfig::default(), FleetConfig::default()),
        ),
    ];
    for (what, spec) in runs {
        let before = pool_stats();
        drop(spec.duration(ms(20)).run().expect(what));
        let after = pool_stats();
        let taken = (after.fresh + after.reused) - (before.fresh + before.reused);
        assert!(taken > 1_000, "{what}: frames flowed ({taken} blocks)");
        assert_eq!(
            after.recycled - before.recycled,
            taken,
            "{what}: every block taken came back"
        );
    }
}

/// TCB shell conservation under connection churn: a stack allocates a TCB
/// (with its buffers) only when more connections are live than ever
/// before, and takes every other one from the shells its reaped
/// connections left — so across a close-per-request star, on every host,
/// no shell is built beyond the peak of live TCBs, and every shell taken
/// is either back in the pool or still live at the end.
#[test]
fn tcb_shells_are_recycled_and_conserved_under_churn() {
    use capnet::scenario::ScenarioSpec;
    use capnet_httpd::{FleetConfig, HttpServerConfig};

    let out = ScenarioSpec::star(2)
        .duration(SimDuration::from_millis(120))
        .seed(0xC0FFEE)
        .http(
            HttpServerConfig::default(),
            FleetConfig {
                rate_per_sec: 8_000,
                keep_alive_per_mille: 0,
                think_ns: 0,
                ..FleetConfig::default()
            },
        )
        .run()
        .expect("churn star runs");
    let completed: u64 = out.http_fleets.iter().map(|f| f.conns_completed).sum();
    assert!(completed > 1_000, "churn volume: {completed} connections");
    for (name, s) in &out.stack_stats {
        let taken = s.tcb_shells_fresh + s.tcb_shells_reused;
        assert!(taken > 500, "{name}: connections churned ({taken})");
        assert!(
            s.tcb_shells_fresh <= s.tcbs_peak,
            "{name}: {} shells built for at most {} live TCBs",
            s.tcb_shells_fresh,
            s.tcbs_peak
        );
        assert_eq!(
            taken,
            s.tcb_shells_recycled + s.tcbs_live,
            "{name}: every shell taken is back in the pool or live: {s:?}"
        );
    }
}
