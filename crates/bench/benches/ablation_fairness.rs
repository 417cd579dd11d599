//! Ablation: app-cVM scheduling policy for contended Scenario 2
//! (Table II bottom rows; the paper's fairness-control future work).
//!
//! Prints the contended client split under the paper-calibrated barging
//! model (expect ≈531/410) and under round-robin (expect ≈470/470), and
//! lets Criterion time the simulation harness itself.

use capnet::netsim::AppSched;
use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use criterion::{criterion_group, criterion_main, Criterion};
use simkern::SimDuration;

const DUR: SimDuration = SimDuration::from_millis(60);

fn split(sched: AppSched) -> (f64, f64) {
    let out = ScenarioSpec::paper(ScenarioKind::Scenario2Contended, TrafficMode::Client)
        .duration(DUR)
        .app_sched(sched)
        .run()
        .expect("contended cell");
    (out.clients[0].mbit_per_sec(), out.clients[1].mbit_per_sec())
}

fn bench_fairness(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_fairness");
    g.sample_size(10);
    let cases = [
        ("barging_paper", AppSched::paper_barging()),
        ("round_robin", AppSched::RoundRobin),
    ];
    for (name, sched) in cases {
        let (a, b) = split(sched);
        eprintln!("[{name}] contended client split: {a:.0} / {b:.0} Mbit/s");
        g.bench_function(name, |bch| bch.iter(|| split(sched)));
    }
    g.finish();
}

criterion_group!(benches, bench_fairness);
criterion_main!(benches);
