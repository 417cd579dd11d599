//! Ledger target for the **price and payoff of isolation**: what
//! capability enforcement costs the serving plane, and what it detects
//! when compartments are actively attacked.
//!
//! Recorded into `BENCH_isolation.json`:
//!
//! * `overhead_pct` — the median-latency delta between checks-off and
//!   full-isolation runs of the same httpd star. The full-isolation run
//!   charges every `ff_*` call the calibrated cross-cVM cost (three
//!   `xcall_ns` crossings + the service-mutex fast path), so the delta is
//!   **deterministic in virtual time**. (What the CHERI-compartment
//!   MAVLink parser costs in *host* time is the `mavsim.*_parse_ns_per_frame`
//!   pair in `benchmark/`.)
//! * `violations_per_sec` — detected violations per virtual second when
//!   a full three-family chaos campaign (wire fuzzing, capability
//!   probes, bit flips) rides the serving plane: walker faults + flip
//!   kills/absorptions + the hub's counted malformed-frame drops.
//!
//! The campaign case is **also** a determinism gate: the chaos star must
//! reproduce its `workers = 1` trace and campaign digests at
//! `workers = 2` — the adversarial suite extends the sharding contract.

use capnet::scenario::ScenarioSpec;
use capnet::SimOutcome;
use capnet_bench::BenchReport;
use capnet_chaos::{BitFlipConfig, ChaosConfig, WalkerConfig, WireChaosConfig};
use capnet_httpd::{FleetConfig, FleetReport, HttpServerConfig};
use simkern::{CostModel, SimDuration};

const SEED: u64 = 0x150;
const RUN: SimDuration = SimDuration::from_millis(80);
const LEAVES: usize = 4;

/// The calibrated full-isolation charge per `ff_*` call: the paper's
/// deepest split (Scenario 4 — app, F-Stack, DPDK and the NIC-register
/// proxy each in their own cVM) pays three cross-cVM crossings plus the
/// service-mutex fast path on every call.
fn full_isolation_ns() -> u64 {
    let m = CostModel::morello();
    3 * m.xcall_ns + m.mutex_fast_ns
}

fn fleet() -> FleetConfig {
    FleetConfig {
        rate_per_sec: 2_000,
        keep_alive_per_mille: 700,
        requests_per_conn: 4,
        ..FleetConfig::default()
    }
}

fn httpd_case(isolation_ns: u64) -> SimOutcome {
    ScenarioSpec::star(LEAVES)
        .duration(RUN)
        .seed(SEED)
        .isolation_cost(isolation_ns)
        .http(HttpServerConfig::default(), fleet())
        .run()
        .expect("httpd star runs")
}

fn chaos_case(workers: usize) -> SimOutcome {
    ScenarioSpec::star(LEAVES)
        .duration(RUN)
        .seed(SEED)
        .workers(workers)
        .adaptive_workers(false)
        .http(HttpServerConfig::default(), fleet())
        .chaos(ChaosConfig {
            rounds: 400,
            wire: Some(WireChaosConfig::default()),
            walker: Some(WalkerConfig::default()),
            bitflip: Some(BitFlipConfig::default()),
            ..ChaosConfig::default()
        })
        .run()
        .expect("chaos star runs")
}

fn rps(out: &SimOutcome) -> f64 {
    FleetReport::aggregate("agg", &out.http_fleets)
        .requests_per_sec(SimDuration::from_nanos(out.horizon.as_nanos()))
}

fn main() {
    let mut report = BenchReport::new("isolation");

    // ---- httpd: checks-off vs full isolation, deterministic delta ----
    // Every host takes the same app turn, so the delta is purely the
    // per-call charge.
    let base = httpd_case(0);
    let full = httpd_case(full_isolation_ns());
    let (base_rps, full_rps) = (rps(&base), rps(&full));
    assert!(base_rps > 0.0, "the baseline fleet completed requests");
    // The fleet is open-loop — completed requests track arrivals, so
    // throughput cannot see a per-call charge. Request latency can:
    // every `ff_*` call on the request path pays it, deterministically.
    let base_agg = FleetReport::aggregate("base", &base.http_fleets);
    let full_agg = FleetReport::aggregate("full", &full.http_fleets);
    let overhead_pct = 100.0 * (full_agg.p50_us() - base_agg.p50_us()) / base_agg.p50_us();
    eprintln!(
        "[isolation] httpd: p50 {:.1}us bare, {:.1}us at {}ns/ff_call \
         -> {overhead_pct:.2}% overhead ({base_rps:.0} req/s)",
        base_agg.p50_us(),
        full_agg.p50_us(),
        full_isolation_ns()
    );
    report.record_outcome(
        "star4",
        "httpd/checks_off",
        &base,
        &[
            ("requests_per_sec", base_rps),
            ("p50_us", base_agg.p50_us()),
            ("p99_us", base_agg.p99_us()),
        ],
    );
    report.record_outcome(
        "star4",
        "httpd/full_isolation",
        &full,
        &[
            ("requests_per_sec", full_rps),
            ("p50_us", full_agg.p50_us()),
            ("p99_us", full_agg.p99_us()),
            ("overhead_pct", overhead_pct),
        ],
    );

    // ---- chaos campaign: detection rate + determinism gate ----
    let chaos = chaos_case(1);
    let campaign = &chaos.chaos[0];
    assert_eq!(campaign.mismatches(), 0, "every probe faulted as predicted");
    assert_eq!(campaign.corruptions(), 0, "no probe corrupted the victim");
    let hub_parse_drops = chaos
        .stack_stats
        .iter()
        .find(|(name, _)| name == "hub")
        .map_or(0, |(_, s)| s.parse_drops());
    let horizon_sec = chaos.horizon.as_nanos() as f64 / 1e9;
    let violations_per_sec =
        (campaign.violations_detected() + hub_parse_drops) as f64 / horizon_sec;
    eprintln!(
        "[isolation] chaos: {} violations + {hub_parse_drops} wire drops over \
         {horizon_sec:.3}s -> {violations_per_sec:.0} violations/s",
        campaign.violations_detected(),
    );
    report.record_outcome(
        "star4",
        "chaos/campaign",
        &chaos,
        &[
            ("violations_per_sec", violations_per_sec),
            ("campaign_rounds", campaign.rounds as f64),
            ("wire_parse_drops", hub_parse_drops as f64),
        ],
    );
    let sharded = chaos_case(2);
    assert_eq!(
        chaos.trace, sharded.trace,
        "the chaos star must be byte-identical at workers=2"
    );
    assert_eq!(
        chaos.chaos, sharded.chaos,
        "campaign digests must be byte-identical at workers=2"
    );

    let path = report.write().expect("BENCH_isolation.json written");
    eprintln!("[isolation] ledger: {}", path.display());
}
