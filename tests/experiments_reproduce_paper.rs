//! Integration: every paper artifact reproduces with the expected shape.
//!
//! These are the headline acceptance tests of the repository. Exact
//! absolute numbers belong to the Morello testbed; what must hold here is
//! who wins, by roughly what factor, and where the crossovers fall.

mod testutil;

use capnet::experiment::{fig3, figs, table1, table2};
use capnet::scenario::ScenarioKind::{self, *};
use simkern::{CostModel, Fnv1a, SimDuration};

#[test]
fn table1_loc_fraction_is_small() {
    let t = table1::run();
    let fstack = &t.rows[0];
    assert!(fstack.total_loc > 1_000);
    // Paper: 0.99% of F-Stack touched. Ours is capability-native, so the
    // capability-specific surface is larger, but still a small fraction.
    assert!(
        fstack.percent() < 15.0,
        "{:.2}% capability-specific",
        fstack.percent()
    );
    assert!(t.to_string().contains("TABLE I"));
}

#[test]
fn table2_dual_port_rows_are_pci_limited_and_symmetric() {
    let t = table2::run_scenarios(
        &[ScenarioKind::BaselineTwoProcess, ScenarioKind::Scenario1],
        SimDuration::from_millis(120),
        CostModel::morello(),
    )
    .unwrap();
    for block in &t.blocks {
        assert_eq!(block.server.len(), 2, "{}", block.scenario);
        for c in &block.server {
            assert!(
                (c.mbit - 658.0).abs() < 35.0,
                "{} server {:.0}",
                c.label,
                c.mbit
            );
        }
        for c in &block.client {
            assert!(
                (c.mbit - 757.0).abs() < 35.0,
                "{} client {:.0}",
                c.label,
                c.mbit
            );
        }
    }
    // Scenario 1 must equal Baseline within noise: CHERI costs nothing at
    // the bandwidth level — the paper's key "maintaining performance" claim.
    let b = &t.blocks[0].server[0].mbit;
    let s1 = &t.blocks[1].server[0].mbit;
    assert!((b - s1).abs() < 10.0, "baseline {b:.0} vs s1 {s1:.0}");
}

#[test]
fn table2_single_port_rows_hit_the_goodput_ceiling() {
    let t = table2::run_scenarios(
        &[
            ScenarioKind::BaselineSingleProcess,
            ScenarioKind::Scenario2Uncontended,
        ],
        SimDuration::from_millis(120),
        CostModel::morello(),
    )
    .unwrap();
    for block in &t.blocks {
        for c in block.server.iter().chain(&block.client) {
            assert!(
                (c.mbit - 941.0).abs() < 25.0,
                "{} / {}: {:.0} Mbit/s",
                block.scenario,
                c.label,
                c.mbit
            );
            assert!((c.efficiency - 0.941).abs() < 0.03);
        }
    }
}

#[test]
fn table2_contended_flows_share_the_port() {
    let t = table2::run_scenarios(
        &[ScenarioKind::Scenario2Contended],
        SimDuration::from_millis(120),
        CostModel::morello(),
    )
    .unwrap();
    let block = &t.blocks[0];
    assert_eq!(block.server.len(), 2);
    let server_sum: f64 = block.server.iter().map(|c| c.mbit).sum();
    let client_sum: f64 = block.client.iter().map(|c| c.mbit).sum();
    // Paper: 470+470 server, 531+410 client — the *sum* saturates the port.
    assert!(
        (server_sum - 941.0).abs() < 45.0,
        "server sum {server_sum:.0}"
    );
    assert!(
        (client_sum - 941.0).abs() < 45.0,
        "client sum {client_sum:.0}"
    );
}

#[test]
fn fig3_violation_and_matrix() {
    let out = fig3::run().unwrap();
    assert!(out.fault.is_out_of_bounds());
    assert_eq!(out.matrix.len(), 6);
}

#[test]
fn figs_4_5_6_deltas_match_the_paper() {
    const N: usize = 30_000;
    let costs = CostModel::morello();
    let kinds = [
        BaselineSingleProcess,
        Scenario1,
        Scenario2Uncontended,
        Scenario2Contended,
    ];
    let runs = figs::run_scenarios(&kinds, N, costs, 7).unwrap();
    let [base, s1, s2u, s2c] = [0, 1, 2, 3].map(|i| &runs[i].summary);
    // Fig. 4: S1 − Baseline ≈ 125 ns.
    let d1 = s1.mean - base.mean;
    assert!((d1 - 125.0).abs() < 40.0, "S1-Baseline {d1:.0} ns");
    // Fig. 5: S2u − S1 ≈ 200 ns.
    let d2 = s2u.mean - s1.mean;
    assert!((d2 - 200.0).abs() < 80.0, "S2u-S1 {d2:.0} ns");
    // Fig. 6: contention ≈ 19 µs, two orders of magnitude.
    let d3 = s2c.mean - s2u.mean;
    assert!(
        (14_000.0..26_000.0).contains(&d3),
        "S2c-S2u {d3:.0} ns (paper ~19,000)"
    );
    let slowdown = d3 / 125.0;
    assert!(
        (100.0..220.0).contains(&slowdown),
        "slowdown {slowdown:.0}x (paper ~152x)"
    );
    // The paper's quantization observation: fast scenarios collapse.
    assert!(base.iqr() <= 50, "baseline IQR {}", base.iqr());
    assert!(s1.iqr() <= 50, "s1 IQR {}", s1.iqr());
    // The paper removes about 10 % as IQR outliers.
    let removed = runs[1].removed_fraction;
    assert!(removed < 0.2, "S1 removed {:.1}%", removed * 100.0);
}

/// Every Figs. 4–6 number, bit for bit: each kind's box-plot summary
/// (the mean's bits included) and the fraction the IQR filter removed.
#[test]
fn figs_4_5_6_summaries_are_pinned() {
    let runs = figs::run_scenarios(&ScenarioKind::all(), 4_000, CostModel::morello(), 42).unwrap();
    let mut h = Fnv1a::default();
    for run in &runs {
        let s = &run.summary;
        h.fold_u64(s.n as u64);
        h.fold_u64(s.mean.to_bits());
        h.fold_u64(s.std.to_bits());
        for v in [s.min, s.q1, s.median, s.q3, s.max] {
            h.fold_u64(v);
        }
        h.fold_u64(run.removed_fraction.to_bits());
    }
    assert_eq!(
        h.value(),
        testutil::FIGS_4_6_DIGEST,
        "Figs. 4-6: got {:#018x}",
        h.value()
    );
}

#[test]
fn scenario3_extension_behaves_like_s2_at_the_bandwidth_level() {
    let t = table2::run_scenarios(
        &[ScenarioKind::Scenario3],
        SimDuration::from_millis(100),
        CostModel::morello(),
    )
    .unwrap();
    let c = &t.blocks[0].server[0];
    assert!((c.mbit - 941.0).abs() < 30.0, "{:.0}", c.mbit);
}

#[test]
fn scenario4_full_split_still_saturates_the_port() {
    // Paper §VI future work (ii): separating the *entire* stack. Three
    // crossings per call are still far below the per-packet time budget,
    // so bandwidth must stay at the ceiling.
    let t = table2::run_scenarios(
        &[ScenarioKind::Scenario4],
        SimDuration::from_millis(100),
        CostModel::morello(),
    )
    .unwrap();
    let block = &t.blocks[0];
    for c in block.server.iter().chain(&block.client) {
        assert!((c.mbit - 941.0).abs() < 30.0, "{}: {:.0}", c.label, c.mbit);
    }
}

#[test]
fn extension_scenarios_latency_ladder() {
    // Figs. 4–6 analog for the future-work scenarios: each extra
    // compartment boundary adds one sealed crossing (≈ xcall_ns), keeping
    // the whole ladder well under the contended-mutex cliff.
    const N: usize = 20_000;
    let costs = CostModel::morello();
    let kinds = [
        Scenario2Uncontended,
        Scenario2Contended,
        Scenario3,
        Scenario4,
    ];
    let runs = figs::run_scenarios(&kinds, N, costs.clone(), 7).unwrap();
    let [s2u, s2c, s3, s4] = [0, 1, 2, 3].map(|i| &runs[i].summary);
    let d3 = s3.mean - s2u.mean;
    let d4 = s4.mean - s2u.mean;
    assert!(
        (d3 - costs.xcall_ns as f64).abs() < 60.0,
        "S3 adds one crossing: {d3:.0} ns"
    );
    assert!(
        (d4 - 2.0 * costs.xcall_ns as f64).abs() < 90.0,
        "S4 adds two crossings: {d4:.0} ns"
    );
    assert!(
        s4.mean < s2c.mean / 4.0,
        "S4 {:.0} ns vs contended S2 {:.0} ns",
        s4.mean,
        s2c.mean
    );
}
