//! The adversarial suite end to end — chaos campaigns riding a live HTTP
//! serving plane:
//!
//! * a full three-family campaign (wire fuzzing, capability walker,
//!   bit-flip injection) is **byte-identical at workers=1/2/4**: the
//!   campaign digest, every injector tally and the wire trace all match
//!   the single-engine run;
//! * every capability probe lands as **exactly** the predicted
//!   [`cheri::FaultKind`] — zero mismatches — and no probe ever corrupts
//!   the victim compartment;
//! * malformed frames are **rejected and counted** by the victim stack's
//!   parsers (`parse_drops`), never panicked on;
//! * the slow-loris adversary in the fleet is **shed** by the server's
//!   idle-header-read reaper, and both sides count it.

use capnet::scenario::ScenarioSpec;
use capnet::SimOutcome;
use capnet_chaos::{BitFlipConfig, ChaosConfig, TcpForgeConfig, WalkerConfig, WireChaosConfig};
use capnet_httpd::{FleetConfig, HttpServerConfig};
use simkern::cost::CostModel;
use simkern::time::SimDuration;

/// A star-4 serving plane with a full three-family campaign on leaf 0.
fn chaos_star(workers: usize) -> SimOutcome {
    ScenarioSpec::star(4)
        .duration(SimDuration::from_millis(15))
        .costs(CostModel::morello())
        .seed(42)
        .workers(workers)
        .adaptive_workers(false)
        .http(
            HttpServerConfig::default(),
            FleetConfig {
                rate_per_sec: 2_000,
                keep_alive_per_mille: 300,
                ..FleetConfig::default()
            },
        )
        .chaos(ChaosConfig {
            rounds: 120,
            wire: Some(WireChaosConfig::default()),
            walker: Some(WalkerConfig::default()),
            bitflip: Some(BitFlipConfig::default()),
            ..ChaosConfig::default()
        })
        .run()
        .expect("chaos star runs")
}

#[test]
fn campaign_is_byte_identical_at_any_worker_count() {
    let base = chaos_star(1);
    assert_eq!(base.chaos.len(), 1, "one campaign installed");
    assert_eq!(base.chaos[0].rounds, 120, "the campaign ran to completion");
    assert!(
        base.trace.frames > 500,
        "the workload produced real traffic"
    );
    for workers in [2usize, 4] {
        let out = chaos_star(workers);
        assert_eq!(
            base.trace, out.trace,
            "workers={workers}: the wire trace (workload + fuzz frames) \
             must be byte-identical"
        );
        assert_eq!(
            base.chaos, out.chaos,
            "workers={workers}: the campaign digest and every injector \
             tally must be byte-identical"
        );
        assert_eq!(
            base.http_servers, out.http_servers,
            "workers={workers}: server reports"
        );
    }
}

#[test]
fn every_injected_violation_faults_as_predicted_and_corrupts_nothing() {
    let out = chaos_star(1);
    let report = &out.chaos[0];
    let walker = report.walker.as_ref().expect("walker ran");
    assert!(walker.probes >= 200, "the walker actually probed");
    assert_eq!(
        walker.faults_expected, walker.probes,
        "every probe must raise a fault"
    );
    assert_eq!(
        walker.mismatches, 0,
        "every fault must be exactly the predicted FaultKind"
    );
    assert_eq!(
        walker.corruptions, 0,
        "no probe may corrupt the victim compartment"
    );
    assert!(
        walker.logged_faults > 0,
        "the Intravisor logged the attacker's faults"
    );
    let flips = report.bitflip.as_ref().expect("bitflip ran");
    assert!(flips.caps_killed > 0, "flips actually hit tagged granules");
    assert_eq!(
        flips.kills_detected, flips.caps_killed,
        "every capability kill must be detectable end to end"
    );
    assert!(
        report.violations_detected() > 0,
        "the campaign reports detected violations"
    );
    assert_eq!(report.mismatches(), 0);
    assert_eq!(report.corruptions(), 0);
}

#[test]
fn malformed_frames_are_rejected_and_counted_by_the_victim() {
    let out = chaos_star(1);
    let wire = out.chaos[0].wire.as_ref().expect("wire adversary ran");
    assert!(
        wire.frames_emitted > 300,
        "the adversary actually transmitted"
    );
    assert!(wire.arp_poison > 0, "poison replies were among them");
    // The fuzz targets the hub; its parsers must drop-and-count, and the
    // run completing at all proves nothing panicked.
    let (_, hub_stats) = out
        .stack_stats
        .iter()
        .find(|(name, _)| name == "hub")
        .expect("hub stack stats present");
    assert!(
        hub_stats.parse_drops() > 0,
        "the hub counted malformed-frame drops: {hub_stats:?}"
    );
}

/// The off-path TCP forger against the serving hub: blind RSTs and SYNs
/// spoofing a real leaf's address at live connections. RFC 5961 holds —
/// every forgery is a counted drop, no connection dies, service continues
/// — and the whole attack is byte-identical at any worker count.
fn forge_star(workers: usize) -> SimOutcome {
    ScenarioSpec::star(4)
        .duration(SimDuration::from_millis(20))
        .costs(CostModel::morello())
        .seed(23)
        .workers(workers)
        .adaptive_workers(false)
        .http(
            HttpServerConfig::default(),
            FleetConfig {
                rate_per_sec: 3_000,
                keep_alive_per_mille: 700,
                requests_per_conn: 8,
                ..FleetConfig::default()
            },
        )
        .chaos(ChaosConfig {
            rounds: 150,
            forge: Some(TcpForgeConfig {
                frames_per_round: 6,
                ..TcpForgeConfig::default()
            }),
            ..ChaosConfig::default()
        })
        .run()
        .expect("forge star runs")
}

#[test]
fn blind_rst_and_syn_forgeries_are_dropped_counted_and_deterministic() {
    let base = forge_star(1);
    let forge = base.chaos[0].forge.as_ref().expect("forger ran");
    assert!(
        forge.rsts_forged > 100 && forge.syns_forged > 100,
        "the forger actually sprayed both kinds: {forge:?}"
    );
    let (_, hub_stats) = base
        .stack_stats
        .iter()
        .find(|(name, _)| name == "hub")
        .expect("hub stack stats present");
    assert!(
        hub_stats.rst_forgery_drops > 0,
        "blind RSTs against live tuples must be counted drops: {hub_stats:?}"
    );
    assert!(
        hub_stats.syn_forgery_drops > 0,
        "blind SYNs against live tuples must be counted drops: {hub_stats:?}"
    );
    // RFC 5961: the barrage never tears a live connection down, so the
    // serving plane keeps completing requests throughout.
    let ok: u64 = base.http_fleets.iter().map(|f| f.requests_ok).sum();
    assert!(ok > 50, "service continued under forgery: {ok} requests ok");
    for workers in [2usize, 4] {
        let out = forge_star(workers);
        assert_eq!(base.trace, out.trace, "workers={workers}: wire trace");
        assert_eq!(base.chaos, out.chaos, "workers={workers}: forge tallies");
        assert_eq!(
            base.stack_stats, out.stack_stats,
            "workers={workers}: victim forgery counters"
        );
    }
}

/// Slow-loris fleets against the idle-header-read reaper: the server sheds
/// the drip-feeding connections (counting them), and the fleets observe
/// their loris connections dying.
#[test]
fn loris_connections_are_shed_by_the_idle_reaper() {
    let out = ScenarioSpec::star(4)
        .duration(SimDuration::from_millis(25))
        .costs(CostModel::morello())
        .seed(7)
        .http(
            HttpServerConfig {
                idle_header_timeout: SimDuration::from_millis(2),
                ..HttpServerConfig::default()
            },
            FleetConfig {
                rate_per_sec: 2_000,
                loris_per_mille: 500,
                loris_drip_interval: SimDuration::from_millis(8),
                ..FleetConfig::default()
            },
        )
        .run()
        .expect("loris star runs");
    let server = &out.http_servers[0];
    assert!(
        server.idle_shed > 0,
        "the reaper shed idle loris connections: {server:?}"
    );
    let loris_conns: u64 = out.http_fleets.iter().map(|f| f.loris_conns).sum();
    let loris_shed: u64 = out.http_fleets.iter().map(|f| f.loris_shed).sum();
    assert!(
        loris_conns > 0,
        "the fleets actually opened loris connections"
    );
    assert!(
        loris_shed > 0,
        "the fleets observed their loris connections being shed \
         (conns={loris_conns})"
    );
    // Normal traffic still flows around the attack.
    assert!(
        out.http_servers[0].ok > 0,
        "legitimate requests were still served"
    );
}
