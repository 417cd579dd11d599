//! Integration: the boundary of the paper's "overhead is minimal" claim.
//!
//! At Morello's ≈170 ns sealed-crossing cost, every compartment split
//! rides the 941 Mbit/s ceiling (the paper's result). These tests pin the
//! *headroom* of that claim over the one-app, single-port layouts:
//! crossings can grow ~64× before any split leaves the ceiling, and when
//! they do grow past it, the layouts that pay more crossings per call
//! degrade first and in order.

use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use simkern::{CostModel, SimDuration};

/// The one-app, single-port layouts, fewest crossings first.
fn single_port_layouts() -> Vec<ScenarioKind> {
    let mut kinds: Vec<ScenarioKind> = ScenarioKind::all()
        .into_iter()
        .filter(|k| k.layout().ports == 1 && k.layout().apps() == 1)
        .collect();
    kinds.sort_by_key(|k| k.layout().crossings());
    kinds
}

fn bw(kind: ScenarioKind, costs: &CostModel) -> f64 {
    ScenarioSpec::paper(kind, TrafficMode::Server)
        .duration(SimDuration::from_millis(80))
        .costs(costs.clone())
        .run()
        .expect("cell")
        .servers[0]
        .mbit_per_sec()
}

fn scaled(mult: u64) -> CostModel {
    let base = CostModel::morello();
    let mut c = base.clone();
    c.xcall_ns = base.xcall_ns * mult;
    c.mutex_fast_ns = base.mutex_fast_ns * mult;
    c
}

#[test]
fn all_splits_hold_the_ceiling_with_16x_crossing_headroom() {
    let costs = scaled(16);
    for kind in single_port_layouts() {
        let mbit = bw(kind, &costs);
        assert!(
            (mbit - 941.0).abs() < 25.0,
            "{kind}: {mbit:.0} Mbit/s at 16x crossing cost"
        );
    }
}

#[test]
fn past_the_headroom_deeper_splits_degrade_first() {
    let costs = scaled(256);
    let kinds = single_port_layouts();
    let crossings: Vec<u64> = kinds.iter().map(|k| k.layout().crossings()).collect();
    assert_eq!(crossings, [0, 1, 2, 3], "{kinds:?}");
    let mbit: Vec<f64> = kinds.iter().map(|&k| bw(k, &costs)).collect();
    // The monolithic layout pays no crossings and must not care.
    assert!(
        (mbit[0] - 941.0).abs() < 25.0,
        "{}: {:.0} Mbit/s",
        kinds[0],
        mbit[0]
    );
    for (pair, bw) in kinds.windows(2).zip(mbit.windows(2)) {
        assert!(bw[0] > bw[1], "{pair:?}: {bw:.0?} Mbit/s");
    }
    let deepest = mbit[mbit.len() - 1];
    assert!(
        deepest < 700.0,
        "the full split is clearly off the ceiling: {deepest:.0}"
    );
}
