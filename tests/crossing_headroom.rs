//! Integration: the boundary of the paper's "overhead is minimal" claim.
//!
//! At Morello's ≈170 ns sealed-crossing cost, every compartment split
//! rides the 941 Mbit/s ceiling (the paper's result). These tests pin the
//! *headroom* of that claim: crossings can grow ~64× before any split
//! leaves the ceiling, and when they do grow past it, the deeper splits
//! (which pay more crossings per call) degrade first and in order.

use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use simkern::{CostModel, SimDuration};

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
    for kind in [
        ScenarioKind::Scenario2Uncontended,
        ScenarioKind::Scenario3,
        ScenarioKind::Scenario4,
    ] {
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
    let s2 = bw(ScenarioKind::Scenario2Uncontended, &costs);
    let s3 = bw(ScenarioKind::Scenario3, &costs);
    let s4 = bw(ScenarioKind::Scenario4, &costs);
    assert!(
        s2 > s3 && s3 > s4,
        "ordering: S2 {s2:.0} > S3 {s3:.0} > S4 {s4:.0}"
    );
    assert!(
        s4 < 700.0,
        "the full split is clearly off the ceiling: {s4:.0}"
    );
    // The monolithic baseline does not pay crossings and must not care.
    let b = bw(ScenarioKind::BaselineSingleProcess, &costs);
    assert!((b - 941.0).abs() < 25.0, "baseline unaffected: {b:.0}");
}
