//! Ledger target for the **HTTP serving plane**: the capnet-httpd static
//! server under an open-loop client fleet, in the two regimes that stress
//! opposite ends of the stack.
//!
//! Recorded into `BENCH_httpd.json` per case:
//!
//! * `p50_us` / `p99_us` / `p999_us` — request latency percentiles over
//!   the aggregated fleet population (connect-to-last-body-byte for the
//!   first request on a connection, write-to-last-byte thereafter);
//! * `requests_per_sec` — completed 200s over the virtual horizon;
//! * `conns_started` / `requests_ok` — population sanity counters;
//! * the digest and event counters of every case
//!   ([`BenchReport::record_outcome`]).
//!
//! The **keep-alive** case pipelines several requests per connection and
//! exercises persistent-connection parsing and the server's idle reaping;
//! the **churn** case closes after every request and exercises the SYN
//! path, TIME_WAIT recycling and ephemeral-port allocation at rate.
//!
//! The target also **asserts** the keep-alive star reproduces its
//! `workers = 1` digest at `workers = 2` and `workers = 4` — CI's
//! behaviour-ledger determinism gate extended over the serving plane.

use capnet::scenario::ScenarioSpec;
use capnet::SimOutcome;
use capnet_bench::BenchReport;
use capnet_httpd::{FleetConfig, FleetReport, HttpServerConfig};
use simkern::SimDuration;

const SEED: u64 = 0x4A77;
const RUN: SimDuration = SimDuration::from_millis(120);
const LEAVES: usize = 4;

fn httpd_case(fleet: FleetConfig, workers: usize) -> SimOutcome {
    ScenarioSpec::star(LEAVES)
        .duration(RUN)
        .seed(SEED)
        .workers(workers)
        // Adaptive selection would collapse this 4-leaf star back to one
        // engine, making the workers=2/4 digest gate below vacuous.
        .adaptive_workers(false)
        .http(HttpServerConfig::default(), fleet)
        .run()
        .expect("httpd star runs")
}

fn keep_alive_fleet() -> FleetConfig {
    FleetConfig {
        rate_per_sec: 2_000,
        keep_alive_per_mille: 900,
        requests_per_conn: 8,
        ..FleetConfig::default()
    }
}

fn churn_fleet() -> FleetConfig {
    FleetConfig {
        rate_per_sec: 4_000,
        keep_alive_per_mille: 0,
        think_ns: 0,
        ..FleetConfig::default()
    }
}

/// Runs one fleet mix at `workers = 1` and records its row.
fn record_case(report: &mut BenchReport, name: &str, fleet: FleetConfig) -> SimOutcome {
    let out = httpd_case(fleet, 1);
    let agg = FleetReport::aggregate(name, &out.http_fleets);
    let rps = agg.requests_per_sec(SimDuration::from_nanos(out.horizon.as_nanos()));
    eprintln!(
        "[httpd] {name}: {} conns, {} ok, p50={:.1}us p99={:.1}us p999={:.1}us, {rps:.0} req/s",
        agg.conns_started,
        agg.requests_ok,
        agg.p50_us(),
        agg.p99_us(),
        agg.p999_us(),
    );
    assert!(agg.requests_ok > 0, "{name}: the fleet completed requests");
    report.record_outcome(
        "star4",
        name,
        &out,
        &[
            ("p50_us", agg.p50_us()),
            ("p99_us", agg.p99_us()),
            ("p999_us", agg.p999_us()),
            ("requests_per_sec", rps),
            ("conns_started", agg.conns_started as f64),
            ("requests_ok", agg.requests_ok as f64),
        ],
    );
    out
}

fn main() {
    let mut report = BenchReport::new("httpd");
    let base = record_case(&mut report, "keep_alive", keep_alive_fleet());
    record_case(&mut report, "churn", churn_fleet());

    // Determinism gate: the serving plane must shard byte-identically
    // (cf. tests/httpd_churn.rs, which also checks the fleet reports).
    for workers in [2, 4] {
        let sharded = httpd_case(keep_alive_fleet(), workers);
        assert_eq!(
            base.trace, sharded.trace,
            "keep-alive star must be byte-identical at workers={workers}"
        );
        assert!(sharded.workers > 1, "rerun must stay sharded");
    }

    let path = report.write().expect("BENCH_httpd.json written");
    eprintln!("[httpd] ledger: {}", path.display());
}
