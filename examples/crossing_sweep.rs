//! Extension experiment — where does "the overhead introduced by this
//! architecture is minimal" stop being true?
//!
//! The paper's headline (key point (ii)) holds because a sealed
//! cross-compartment call costs ≈170 ns on Morello while a 1448-byte MSS
//! occupies ≈12.3 µs of 1 Gbit/s wire: the crossing hides under the
//! serialization time. This sweep scales the crossing cost (as slower
//! hardware, software fault isolation, or deeper capability revocation
//! checks would) and reruns Table II's one-app, single-port rows, one
//! column per layout in order of the crossings an `ff_*` call pays, until
//! the ceiling gives way — mapping the *boundary* of the paper's claim
//! instead of just its interior.
//!
//! Run with: `cargo run --release --example crossing_sweep`

use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use simkern::{CostModel, SimDuration};

fn bw(kind: ScenarioKind, costs: &CostModel) -> f64 {
    ScenarioSpec::paper(kind, TrafficMode::Server)
        .duration(SimDuration::from_millis(80))
        .costs(costs.clone())
        .run()
        .expect("sweep cell")
        .servers[0]
        .mbit_per_sec()
}

fn main() {
    let mut kinds: Vec<ScenarioKind> = ScenarioKind::all()
        .into_iter()
        .filter(|k| k.layout().ports == 1 && k.layout().apps() == 1)
        .collect();
    kinds.sort_by_key(|k| k.layout().crossings());

    let base = CostModel::morello();
    println!("TCP goodput (Mbit/s, single port) vs cross-compartment call cost");
    println!("columns: crossings per ff_* call");
    for kind in &kinds {
        println!("  {}: {kind}", kind.layout().crossings());
    }
    print!("\n{:>10}", "xcall");
    for kind in &kinds {
        print!("  {:>10}", kind.layout().crossings());
    }
    println!();
    for mult in [1u64, 4, 16, 64, 128, 256, 512] {
        let mut costs = base.clone();
        costs.xcall_ns = base.xcall_ns * mult;
        costs.mutex_fast_ns = base.mutex_fast_ns * mult;
        print!("{:>7} ns", costs.xcall_ns);
        for &kind in &kinds {
            print!("  {:>10.0}", bw(kind, &costs));
        }
        println!();
    }
    println!("\nreading: at the Morello-calibrated 170 ns every split rides the");
    println!("941 Mbit/s ceiling — the paper's claim. The deeper splits fall off");
    println!("first as crossings grow (Scenario 4 pays 3 per call), mapping how");
    println!("much hardware slack the compartmentalization actually has.");
}
