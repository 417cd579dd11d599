//! Bench target regenerating **Table II**: TCP bandwidth per scenario.
//!
//! Criterion times the harness (wall clock of the discrete-event run); the
//! *measured artifact* — Mbit/s per configuration — is printed once per
//! scenario so `cargo bench` output doubles as the table. Shape assertions
//! live in `tests/experiments_reproduce_paper.rs`.

use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use capnet_bench::BenchReport;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simkern::SimDuration;

fn bench_table2(c: &mut Criterion) {
    let mut report = BenchReport::new("table2");
    let mut group = c.benchmark_group("table2_tcp_bandwidth");
    group.sample_size(10);
    let cell = |kind, mode| {
        ScenarioSpec::paper(kind, mode)
            .duration(SimDuration::from_millis(40))
            .run()
            .expect("scenario runs")
    };

    for kind in ScenarioKind::all() {
        for mode in [TrafficMode::Server, TrafficMode::Client] {
            // Print the paper-facing number once, timing the run so the
            // trajectory captures host speed alongside simulated Mbit/s.
            let t0 = std::time::Instant::now();
            let out = cell(kind, mode);
            let wall = t0.elapsed();
            let sim_s = out.horizon.as_nanos() as f64 / 1e9;
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
                report.record_timed(
                    &format!("{kind}"),
                    &format!("{mode}/{}", r.label),
                    wall,
                    out.events,
                    sim_s,
                    &[("mbit_per_sec", r.mbit_per_sec())],
                );
            }
            group.bench_with_input(
                BenchmarkId::new(kind.label(), mode.to_string()),
                &(kind, mode),
                |b, &(kind, mode)| b.iter(|| cell(kind, mode)),
            );
        }
    }
    group.finish();
    let path = report.write().expect("BENCH_table2.json written");
    eprintln!("[table2] perf trajectory: {}", path.display());
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
