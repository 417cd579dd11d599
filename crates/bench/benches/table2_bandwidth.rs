//! Ledger target regenerating **Table II**: TCP bandwidth per scenario.
//!
//! One row per reported app of every `(scenario, traffic mode)` cell:
//! its Mbit/s plus the digest and event counters of the run it came from
//! ([`BenchReport::record_outcome`]; apps sharing a cell share those).
//! The numbers are printed too, so `cargo bench` output doubles as the
//! table. Shape assertions live in `tests/experiments_reproduce_paper.rs`.

use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use capnet_bench::BenchReport;
use simkern::SimDuration;

fn main() {
    let mut report = BenchReport::new("table2");

    for kind in ScenarioKind::all() {
        for mode in [TrafficMode::Server, TrafficMode::Client] {
            let out = ScenarioSpec::paper(kind, mode)
                .duration(SimDuration::from_millis(40))
                .run()
                .expect("scenario runs");
            let reports = match mode {
                TrafficMode::Server => &out.servers,
                TrafficMode::Client => &out.clients,
            };
            for r in reports.iter().filter(|r| !r.label.starts_with("host")) {
                eprintln!(
                    "[table2] {kind} / {mode} / {}: {:.0} Mbit/s",
                    r.label,
                    r.mbit_per_sec()
                );
                report.record_outcome(
                    &format!("{kind}"),
                    &format!("{mode}/{}", r.label),
                    &out,
                    &[("mbit_per_sec", r.mbit_per_sec())],
                );
            }
        }
    }

    let path = report.write().expect("BENCH_table2.json written");
    eprintln!("[table2] ledger: {}", path.display());
}
