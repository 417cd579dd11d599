//! Ablation: TCP goodput under link impairments (extension experiment).
//!
//! The paper's testbed cables are ideal; this sweep drives Baseline and the
//! Scenario 2 compartment split over lossy/reordering cables and prints the
//! goodput each sustains. Two properties are under test:
//!
//! 1. F-Stack's TCP recovery machinery keeps the stack functional at edge-
//!    realistic loss rates (graceful decay, no collapse below 5 % loss);
//! 2. compartmentalization is loss-neutral: Scenario 2 tracks Baseline at
//!    every impairment level.

use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simkern::SimDuration;
use updk::wire::Impairments;

const DUR: SimDuration = SimDuration::from_millis(40);

fn goodput(kind: ScenarioKind, imp: Impairments) -> f64 {
    ScenarioSpec::paper(kind, TrafficMode::Server)
        .duration(DUR)
        .impairments(imp)
        .run()
        .expect("impaired cell")
        .servers[0]
        .mbit_per_sec()
}

fn bench_loss_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_impairments/loss");
    g.sample_size(10);
    for per_mille in [0u16, 5, 20] {
        let imp = Impairments::lossy(per_mille);
        let base = goodput(ScenarioKind::BaselineSingleProcess, imp);
        let s2 = goodput(ScenarioKind::Scenario2Uncontended, imp);
        eprintln!(
            "[loss {:>4.1}%] Baseline {:>4.0} Mbit/s | Scenario2 {:>4.0} Mbit/s",
            per_mille as f64 / 10.0,
            base,
            s2
        );
        g.bench_with_input(
            BenchmarkId::new("baseline", per_mille),
            &per_mille,
            |b, &pm| {
                b.iter(|| goodput(ScenarioKind::BaselineSingleProcess, Impairments::lossy(pm)))
            },
        );
    }
    g.finish();
}

fn bench_reorder_and_dup(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_impairments/other");
    g.sample_size(10);
    let cases: [(&str, Impairments); 2] = [
        (
            "reorder2pct_300us",
            Impairments::reordering(20, SimDuration::from_micros(300)),
        ),
        (
            "dup5pct",
            Impairments {
                dup_per_mille: 50,
                ..Impairments::default()
            },
        ),
    ];
    for (name, imp) in cases {
        let bw = goodput(ScenarioKind::BaselineSingleProcess, imp);
        eprintln!("[{name}] Baseline {bw:>4.0} Mbit/s");
        g.bench_function(name, |b| {
            b.iter(|| goodput(ScenarioKind::BaselineSingleProcess, imp))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_loss_sweep, bench_reorder_and_dup);
criterion_main!(benches);
