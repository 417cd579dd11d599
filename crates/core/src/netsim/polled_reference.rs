//! The polled-reference differential oracle.
//!
//! The specification of a host is the loop of paper §III.B: poll the RX
//! ring, run the apps, run the stack's timers, every tick, for ever. The
//! code runs an optimisation of it — a loop that parks while nothing can
//! change, and whose turn steps only the apps a step could move — and
//! these tests hold the two together: each configuration runs once as
//! written and once with `POLLED_REFERENCE` set (no host ever parks, every
//! turn steps every app, and each step the optimised turn would skip must
//! make exactly the app's `idle_calls` and no progress), and everything
//! the *modelled* system produced must be equal.

use super::node::POLLED_REFERENCE;
use super::{AppSched, Fault, IsolationProfile, NetSim, SimOutcome};
use crate::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use capnet_httpd::{FleetConfig, HttpServerConfig};
use iperf::BandwidthReport;
use simkern::cost::CostModel;
use simkern::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use updk::nic::NicModel;
use updk::wire::Impairments;

/// Runs `build()` twice — parked, then polled — and compares what the
/// model produced. Returns the parked run's outcome for further checks.
///
/// Compared: the delivery trace, every app report, the S2 mutexes, every
/// switch, port, cable and fault tally, and the protocol counters of every
/// stack.
///
/// Excluded, by name, because they describe the *execution* and are what
/// parking exists to change: `events` and `counters` (iterations and
/// events executed), `ended_at` (the instant of the last executed event —
/// a polling run always reaches the horizon), `workers`/`lookahead_ns`/
/// `rounds` (the driver), and in `stack_stats` the two executed-work
/// counters `epoll_waits` and `epoll_fds_evaluated` (one per executed app
/// step, so a skipped idle step does not count). One edge inside the
/// iperf reports goes with `ended_at`: the interval still open when the
/// run stops is closed at that instant, so its `to` is masked.
#[track_caller]
fn assert_parked_equals_polled(what: &str, build: impl Fn() -> SimOutcome) -> SimOutcome {
    let parked = build();
    POLLED_REFERENCE.with(|f| f.set(true));
    let polled = build();
    POLLED_REFERENCE.with(|f| f.set(false));

    assert_eq!(polled.counters.parks, 0, "{what}: the reference polls");
    assert_eq!(parked.trace, polled.trace, "{what}: trace");
    let open_edge_masked = |reports: &[BandwidthReport]| -> Vec<BandwidthReport> {
        let mut reports = reports.to_vec();
        for last in reports.iter_mut().filter_map(|r| r.intervals.last_mut()) {
            last.to = SimTime::MAX;
        }
        reports
    };
    assert_eq!(
        open_edge_masked(&parked.servers),
        open_edge_masked(&polled.servers),
        "{what}: server reports"
    );
    assert_eq!(
        open_edge_masked(&parked.clients),
        open_edge_masked(&polled.clients),
        "{what}: client reports"
    );
    assert_eq!(parked.http_servers, polled.http_servers, "{what}: httpd");
    assert_eq!(parked.http_fleets, polled.http_fleets, "{what}: fleets");
    assert_eq!(parked.chaos, polled.chaos, "{what}: chaos reports");
    assert_eq!(parked.mutex_stats, polled.mutex_stats, "{what}: S2 mutexes");
    assert_eq!(parked.switch_stats, polled.switch_stats, "{what}: switches");
    assert_eq!(parked.port_stats, polled.port_stats, "{what}: ports");
    assert_eq!(
        parked.impairment_stats, polled.impairment_stats,
        "{what}: cables"
    );
    assert_eq!(parked.fault_stats, polled.fault_stats, "{what}: faults");
    assert_eq!(parked.horizon, polled.horizon, "{what}: horizon");
    let protocol = |out: &SimOutcome| -> Vec<(String, fstack::StackStats)> {
        let executed_work_zeroed = |(name, s): &(String, fstack::StackStats)| {
            let s = fstack::StackStats {
                epoll_waits: 0,
                epoll_fds_evaluated: 0,
                ..*s
            };
            (name.clone(), s)
        };
        out.stack_stats.iter().map(executed_work_zeroed).collect()
    };
    assert_eq!(protocol(&parked), protocol(&polled), "{what}: stacks");
    parked
}

/// A Scenario 2 service loop: the wrapper cross-call charged per `ff_*`
/// call, iterations serialised on the service mutex.
const S2_SERVICE: IsolationProfile = IsolationProfile {
    per_ff_call_ns: 230,
    s2_service: true,
};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// The paper testbed: all seven designs, DUT on either side, clean and
/// lossy cable, two seeds (the second also runs a longer horizon, so the
/// loss-free pairs differ too and the horizon fold is taken at two tails).
#[test]
fn polled_reference_paper_testbed() {
    let mut cases = 0;
    for kind in ScenarioKind::all() {
        for mode in [TrafficMode::Server, TrafficMode::Client] {
            for loss in [0, 20] {
                for (seed, dur) in [(7, 12), (0xC0FFEE, 19)] {
                    let what = format!("{kind} {mode} loss {loss}‰ seed {seed:#x}");
                    let out = assert_parked_equals_polled(&what, || {
                        ScenarioSpec::paper(kind, mode)
                            .duration(ms(dur))
                            .seed(seed)
                            .impairments(Impairments::lossy(loss))
                            .run()
                            .expect("paper scenario runs")
                    });
                    assert!(out.trace.frames > 500, "{what}: traffic flowed");
                    let c = out.counters;
                    assert!(
                        c.idle_polls <= c.parks,
                        "{what}: every idle poll parks, the ideal peer's productive turns too: {c:?}"
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 56);
}

/// Charged hosts on host NICs: bulk stars at five per-call isolation
/// costs (idle periods from 900 ns to past the 1 672 ns a minimum frame
/// needs to cross a cable) and the HTTP serving plane at three. Charged
/// hosts park on the turn that did the work as ideal ones do, so parks
/// outnumber idle turns at every cost.
#[test]
fn polled_reference_charged_stars() {
    let mut cases = 0;
    for leaves in [2, 4] {
        for cost in [0, 40, 200, 370, 1_000] {
            let what = format!("star{leaves} isolation {cost} ns");
            let out = assert_parked_equals_polled(&what, || {
                ScenarioSpec::star(leaves)
                    .duration(ms(15))
                    .isolation_cost(cost)
                    .run()
                    .expect("star runs")
            });
            let c = out.counters;
            assert!(c.idle_polls < c.parks, "{what}: productive parks: {c:?}");
            cases += 1;
        }
    }
    for cost in [0, 200, 370] {
        let what = format!("httpd star4 isolation {cost} ns");
        let out = assert_parked_equals_polled(&what, || {
            ScenarioSpec::star(4)
                .duration(ms(25))
                .seed(0xBEEF)
                .isolation_cost(cost)
                .http(
                    HttpServerConfig::default(),
                    FleetConfig {
                        rate_per_sec: 4_000,
                        keep_alive_per_mille: 500,
                        ..FleetConfig::default()
                    },
                )
                .run()
                .expect("httpd star runs")
        });
        let ok: u64 = out.http_fleets.iter().map(|f| f.requests_ok).sum();
        assert!(ok > 100, "{what}: requests completed ({ok})");
        cases += 1;
    }
    assert_eq!(cases, 13);
}

/// 2MSL inside the compared runs: close-per-request HTTP stars for 80 ms,
/// past the 50 ms TIME_WAIT every leaf's active closes enter, so the
/// expiries — reap-only deadlines a parked host settles instead of waking
/// for — fall inside both runs, on ideal and charged hosts, at two seeds.
/// Reaped TCB shells are reused by later connections on every leaf, and
/// every stack's shell counts must agree between the two loops.
#[test]
fn polled_reference_close_per_request_through_2msl() {
    let mut cases = 0;
    for cost in [0, 200] {
        for seed in [0xBEEF, 0xC105E] {
            let what = format!("close-per-request star4 isolation {cost} ns seed {seed:#x}");
            let out = assert_parked_equals_polled(&what, || {
                ScenarioSpec::star(4)
                    .duration(ms(80))
                    .seed(seed)
                    .isolation_cost(cost)
                    .http(
                        HttpServerConfig::default(),
                        FleetConfig {
                            rate_per_sec: 4_000,
                            keep_alive_per_mille: 0,
                            think_ns: 0,
                            ..FleetConfig::default()
                        },
                    )
                    .run()
                    .expect("httpd star runs")
            });
            let ok: u64 = out.http_fleets.iter().map(|f| f.requests_ok).sum();
            assert!(ok > 500, "{what}: requests completed ({ok})");
            for (name, s) in out.stack_stats.iter().filter(|(n, _)| n != "hub") {
                assert!(
                    s.tcb_shells_reused > 0,
                    "{what}: {name} reaped TIME_WAIT TCBs inside the run: {s:?}"
                );
            }
            cases += 1;
        }
    }
    assert_eq!(cases, 4);
}

/// The host that keeps polling, and the sharded driver.
///
/// Under a turn-dependent policy the S2 service loop never parks — the
/// runs still have to agree, because its *peer* parks. A sharded run keeps
/// its wakes on per-shard calendars and receives cross-shard deliveries
/// as injected events; both the ideal and the S2 fold must survive that.
#[test]
fn polled_reference_fallbacks_and_shards() {
    let weighted = AppSched::Weighted {
        weight_first: 2,
        weight_rest: 1,
    };
    for (name, sched) in [("barging", AppSched::paper_barging()), ("2:1", weighted)] {
        for mode in [TrafficMode::Server, TrafficMode::Client] {
            let what = format!("S2 contended {mode} under {name}");
            let out = assert_parked_equals_polled(&what, || {
                ScenarioSpec::paper(ScenarioKind::Scenario2Contended, mode)
                    .duration(ms(12))
                    .app_sched(sched)
                    .run()
                    .expect("paper scenario runs")
            });
            let c = out.counters;
            assert!(c.idle_polls > 4 * c.parks, "{what}: the DUT polls: {c:?}");
        }
    }

    // A per-call charge is the host's own: a charged star shards too.
    for cost in [0, 200] {
        let what = format!("star4 isolation {cost} ns at workers 2");
        let out = assert_parked_equals_polled(&what, || {
            ScenarioSpec::star(4)
                .duration(ms(15))
                .isolation_cost(cost)
                .workers(2)
                .adaptive_workers(false)
                .run()
                .expect("sharded star runs")
        });
        assert_eq!(out.workers, 2, "{what}: really sharded");
    }

    // The paper testbed never shards (a direct cable co-locates its two
    // ends), so the S2 fold meets the sharded driver on a star whose hub
    // is an S2 service loop, its leaves on the other shard.
    let out = assert_parked_equals_polled("S2 hub star at workers 2", || {
        let mut sim = NetSim::new(CostModel::morello());
        let star = crate::topology::build_star(&mut sim, 3).expect("star builds");
        sim.set_node_profile(star.hub, S2_SERVICE);
        for (i, &leaf) in star.leaves.iter().enumerate() {
            let port = 5201 + i as u16;
            sim.add_server(star.hub, format!("rx{i}"), port)
                .expect("server");
            sim.add_client(leaf, format!("tx{i}"), (star.hub_ip, port), ms(8), ms(0))
                .expect("client");
        }
        sim.set_workers(2);
        sim.set_adaptive_workers(false);
        sim.run(ms(20)).expect("sharded run")
    });
    assert_eq!(out.workers, 2, "really sharded");
    assert!(out.rounds.xshard_frames > 500, "traffic crossed the cut");
    assert!(out.counters.idle_polls <= out.counters.parks);
}

/// `services` S2 service loops on the ports of one 82576, each receiving
/// 6 ms of bulk traffic from its own peer, run for 20 ms. With `crash`,
/// every service host loses power at 14.321 ms — well after the transfer,
/// so a lone loop is parked — and is back `crash` later.
fn s2_services(services: usize, crash: Option<SimDuration>) -> SimOutcome {
    let mut sim = NetSim::new(CostModel::morello());
    let dut = sim.add_dev(NicModel::Dual82576).expect("dut nic");
    for port in 0..services {
        let peer_dev = sim.add_dev(NicModel::Host).expect("peer nic");
        sim.link(dut, port, peer_dev, 0).expect("cable");
        let dut_ip = Ipv4Addr::new(10, 0, port as u8, 1);
        let peer_ip = Ipv4Addr::new(10, 0, port as u8, 2);
        let svc = sim
            .add_node(format!("svc{port}"), dut, port, dut_ip, S2_SERVICE)
            .expect("service node");
        let ideal = IsolationProfile::default();
        let peer = sim
            .add_node(format!("peer{port}"), peer_dev, 0, peer_ip, ideal)
            .expect("peer node");
        sim.add_server(svc, format!("rx{port}"), 5201)
            .expect("server");
        sim.add_client(peer, format!("tx{port}"), (dut_ip, 5201), ms(6), ms(0))
            .expect("client");
        if let Some(down_for) = crash {
            let at = SimTime::from_micros(14_321);
            sim.add_fault(at, Fault::NodeCrash { node: svc });
            sim.add_fault(at + down_for, Fault::NodeRestart { node: svc });
        }
    }
    sim.run(ms(20)).expect("run")
}

/// Two S2 service loops on the ports of one 82576 each take the mutex of
/// their own F-Stack: neither waits on the other's turns, so both park,
/// and the summed mutex figures are the two loops' own. A lone one parks
/// too, and when it crashes while parked the acquisitions of the ticks it
/// slept through are on its mutex exactly as if it had polled up to the
/// crash.
#[test]
fn polled_reference_two_services_and_crash_while_parked() {
    let two = assert_parked_equals_polled("two services", || s2_services(2, None));
    let (acquisitions, contentions, _) = two.mutex_stats.expect("S2 mutexes");
    let c = two.counters;
    assert!(c.idle_polls <= c.parks, "both service loops park: {c:?}");
    assert_eq!(contentions, 0, "no loop waits on the other's lock");

    let alone = assert_parked_equals_polled("a lone service", || s2_services(1, None));
    assert!(alone.counters.idle_polls <= alone.counters.parks);
    let crashed = assert_parked_equals_polled("crash while parked", || {
        s2_services(1, Some(SimDuration::from_millis(2)))
    });
    assert_eq!(crashed.fault_stats.node_restarts, 1);
    let (full, ..) = alone.mutex_stats.expect("S2 mutex");
    let (cut, ..) = crashed.mutex_stats.expect("S2 mutex");
    assert!(cut < full, "no acquisitions while down: {cut} < {full}");
    assert!(acquisitions > full, "two locks: {acquisitions} > {full}");
}

/// Regression, found by this oracle: a host restarted within one poll
/// period of its crash. The crashed loop's last scheduled iteration is
/// still pending when the host comes back; were it to run, it would carry
/// on beside the rebooted loop — two loops on one host, visible on an S2
/// service node as 966 contended acquisitions where the host has a single
/// acquirer — while a parked loop leaves no such ghost (its wake is
/// cancelled at the crash), so the two executions would disagree.
/// `NetEvent::LoopIter` carries the loop generation and a pre-crash
/// iteration dies at dispatch.
///
/// The reboot lands inside the last hold the old loop took, so its first
/// turn — and only that one — waits for the mutex, and does not park.
#[test]
fn polled_reference_restart_within_a_poll_period_of_the_crash() {
    let out = assert_parked_equals_polled("restart 300 ns after the crash", || {
        s2_services(1, Some(SimDuration::from_nanos(300)))
    });
    assert_eq!(out.fault_stats.node_restarts, 1);
    let (_, contentions, _) = out.mutex_stats.expect("S2 mutex");
    assert_eq!(contentions, 1, "one loop, one wait");
}
