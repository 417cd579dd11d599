//! A node's applications step **kind-major**, not in installation order:
//! every iperf server, then every iperf client, then HTTP servers, fleets
//! and chaos campaigns, installation order only *within* a kind. The step
//! order decides which app's segments reach the TX ring first, so it is
//! visible in the delivery-trace digest — and a mixed-kind node is the one
//! place where "kind-major" and "as installed" differ.
//!
//! The hub below installs `client, server, http server, client`
//! interleaved; it must step `server, client, client, http server`. The
//! pinned digests and report orders are the values the five-parallel-vector
//! driver produced before the apps were unified behind one `App` list.

use capnet::netsim::{IsolationProfile, NetSim};
use capnet::{Fault, SimOutcome};
use capnet_httpd::{FleetConfig, HttpServerConfig};
use simkern::time::{SimDuration, SimTime};
use simkern::CostModel;

const IPERF_PORT: u16 = 5201;
const HTTP_PORT: u16 = 8080;

/// What distinguishes the runs below: shard count, the hub's isolation
/// profile (a per-call charge ungates its app steps and puts the summed
/// `ff_*` call count on the wire clock), and an optional hub crash/restart.
#[derive(Clone, Copy, Default)]
struct Variant {
    workers: usize,
    hub_call_ns: u64,
    crash_hub: bool,
}

fn mixed_hub(v: Variant) -> SimOutcome {
    let ms = SimDuration::from_millis;
    let mut sim = NetSim::new(CostModel::morello());
    sim.set_seed(0x0A99);
    sim.set_workers(v.workers);
    sim.set_adaptive_workers(false);
    let star = capnet::topology::build_star(&mut sim, 3).expect("star builds");
    let (hub, leaf) = (star.hub, &star.leaves);
    sim.set_node_profile(
        hub,
        IsolationProfile {
            per_ff_call_ns: v.hub_call_ns,
            s2_service: false,
        },
    );

    // Peers first, so every hub client has a listener to reach.
    sim.add_server(leaf[0], "leaf0-rx-a", IPERF_PORT).unwrap();
    sim.add_server(leaf[0], "leaf0-rx-b", IPERF_PORT + 1)
        .unwrap();

    // The mixed-kind node: kinds interleaved at installation.
    let to_leaf0 = |port| (star.leaf_ips[0], port);
    sim.add_client(
        hub,
        "hub-tx-a",
        to_leaf0(IPERF_PORT),
        ms(30),
        SimDuration::ZERO,
    )
    .unwrap();
    sim.add_server(hub, "hub-rx", IPERF_PORT).unwrap();
    sim.add_http_server(hub, "hub-httpd", HTTP_PORT, HttpServerConfig::default())
        .unwrap();
    sim.add_client(
        hub,
        "hub-tx-b",
        to_leaf0(IPERF_PORT + 1),
        ms(30),
        SimDuration::ZERO,
    )
    .unwrap();

    sim.add_client(
        leaf[1],
        "leaf1-tx",
        (star.hub_ip, IPERF_PORT),
        ms(30),
        SimDuration::ZERO,
    )
    .unwrap();
    sim.add_http_fleet(
        leaf[2],
        "leaf2-fleet",
        FleetConfig {
            target: (star.hub_ip, HTTP_PORT),
            rate_per_sec: 4_000,
            open_for: ms(30),
            ..FleetConfig::default()
        },
    )
    .unwrap();

    if v.crash_hub {
        sim.add_fault(SimTime::ZERO + ms(12), Fault::NodeCrash { node: hub });
        sim.add_fault(SimTime::ZERO + ms(20), Fault::NodeRestart { node: hub });
    }
    sim.run(ms(45)).expect("runs")
}

fn labels<R>(reports: &[R], label: impl Fn(&R) -> &str) -> Vec<&str> {
    reports.iter().map(label).collect()
}

/// Reports are node-major (hub, leaf0, leaf1, leaf2) and install-ordered
/// within each kind, whatever the installation interleaving was.
fn assert_report_order(out: &SimOutcome) {
    assert_eq!(
        labels(&out.servers, |r| &r.label),
        ["hub-rx", "leaf0-rx-a", "leaf0-rx-b"]
    );
    assert_eq!(
        labels(&out.clients, |r| &r.label),
        ["hub-tx-a", "hub-tx-b", "leaf1-tx"]
    );
    assert_eq!(labels(&out.http_servers, |r| &r.label), ["hub-httpd"]);
    assert_eq!(labels(&out.http_fleets, |r| &r.label), ["leaf2-fleet"]);
}

/// Runs `v` on two forced shards and on one engine; both must land on the
/// pinned digest with the reports in order. Returns the one-engine run.
fn assert_pinned(v: Variant, digest: u64) -> SimOutcome {
    let run = |workers: usize| {
        let out = mixed_hub(Variant { workers, ..v });
        assert_eq!(out.workers, workers);
        assert_eq!(
            out.trace.digest, digest,
            "workers={workers}: got {:#018x}",
            out.trace.digest
        );
        assert_report_order(&out);
        out
    };
    run(2);
    run(1)
}

#[test]
fn interleaved_kinds_step_kind_major_on_a_gated_host() {
    let out = assert_pinned(Variant::default(), 0xf05f_c79a_11b5_f9ae);
    assert!(out.servers.iter().all(|r| r.bytes > 0), "every flow ran");
    assert!(out.http_fleets[0].requests_ok > 0);
}

/// With a per-call charge the hub steps every app every turn and the
/// iteration cost carries the `ff_*` calls summed across all kinds.
#[test]
fn interleaved_kinds_step_kind_major_on_a_charged_host() {
    let v = Variant {
        hub_call_ns: 40,
        ..Variant::default()
    };
    let out = assert_pinned(v, 0x122e_efec_ea4f_c86b);
    assert!(out.servers.iter().all(|r| r.bytes > 0), "every flow ran");
}

/// Installation and restart build apps through the same blueprint: the
/// reborn hub reports the installed labels in the installed order, and its
/// second incarnation moves traffic again. Crash also empties the hub's
/// app-turn lists and restart re-seeds them (`netsim::node`'s unit tests
/// watch the turn itself); on one engine or two shards, the reborn
/// hub examines the same slots and lands on the same bytes.
#[test]
fn restart_rebuilds_the_installed_apps_in_order() {
    let v = Variant {
        crash_hub: true,
        ..Variant::default()
    };
    let out = assert_pinned(v, 0x84d6_0853_09c7_fd22);
    assert_eq!(out.fault_stats.node_crashes, 1);
    assert_eq!(out.fault_stats.node_restarts, 1);
    assert!(out.fault_stats.frames_to_dead > 0);
    assert!(
        out.http_servers[0].requests > 0,
        "the restarted listener serves the fleet again"
    );
    assert_eq!(out.counters.stale_wakes, 0);
    let sharded = mixed_hub(Variant { workers: 2, ..v });
    assert_eq!(sharded.trace, out.trace);
    assert_eq!(sharded.counters, out.counters);
    assert_eq!(sharded.fault_stats, out.fault_stats);
}
