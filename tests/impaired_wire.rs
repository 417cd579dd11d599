//! Integration: the paper's scenarios driven over *degraded* cables.
//!
//! The paper's testbed cables are ideal, so its evaluation never stresses
//! TCP loss recovery. Edge radio links (the drones and industrial plants of
//! the paper's introduction) do. These tests subject the full simulated
//! stack — `ff_*` API, F-Stack TCP (RTO, fast retransmit, out-of-order
//! reassembly, checksums), the poll-mode driver, and the compartment cost
//! model — to loss, corruption, duplication and reordering, and check that
//! the connection survives and degrades the way TCP should.

use capnet::scenario::{ScenarioKind, ScenarioSpec, TrafficMode};
use simkern::SimDuration;
use updk::wire::Impairments;

const RUN: SimDuration = SimDuration::from_millis(120);

fn goodput(kind: ScenarioKind, imp: Impairments) -> (f64, capnet::netsim::SimOutcome) {
    let out = ScenarioSpec::paper(kind, TrafficMode::Server)
        .duration(RUN)
        .impairments(imp)
        .run()
        .expect("impaired run completes");
    (out.servers[0].mbit_per_sec(), out)
}

#[test]
fn mild_loss_survives_and_costs_bandwidth() {
    let (ideal, _) = goodput(ScenarioKind::BaselineSingleProcess, Impairments::default());
    let (lossy, out) = goodput(ScenarioKind::BaselineSingleProcess, Impairments::lossy(5));
    assert!(out.impairment_stats.lost > 0, "losses actually happened");
    assert!(lossy > 50.0, "TCP must keep moving data: {lossy:.0} Mbit/s");
    assert!(
        lossy < ideal - 5.0,
        "0.5% loss must cost goodput: {lossy:.0} vs ideal {ideal:.0}"
    );
}

#[test]
fn heavier_loss_degrades_further() {
    let (mild, _) = goodput(ScenarioKind::BaselineSingleProcess, Impairments::lossy(5));
    let (heavy, out) = goodput(ScenarioKind::BaselineSingleProcess, Impairments::lossy(30));
    assert!(out.impairment_stats.lost > 0);
    assert!(
        heavy < mild,
        "3% loss ({heavy:.0}) must be slower than 0.5% ({mild:.0})"
    );
    assert!(heavy > 10.0, "still functional at 3% loss: {heavy:.0}");
}

#[test]
fn corruption_is_rejected_by_checksums_and_recovered() {
    let imp = Impairments {
        corrupt_per_mille: 10,
        ..Impairments::default()
    };
    let (bw, out) = goodput(ScenarioKind::BaselineSingleProcess, imp);
    assert!(out.impairment_stats.corrupted > 0, "corruption happened");
    // Every corrupted frame must be caught by IP/TCP checksum validation
    // (counted as a stack drop on the receiving side), never delivered to
    // the application as payload.
    let drops: u64 = out.stack_stats.iter().map(|(_, s)| s.drops).sum();
    assert!(
        drops >= out.impairment_stats.corrupted,
        "stack drops ({drops}) must cover corrupted frames ({})",
        out.impairment_stats.corrupted
    );
    assert!(bw > 50.0, "TCP recovers from corruption: {bw:.0} Mbit/s");
}

#[test]
fn duplication_is_harmless_to_goodput() {
    let imp = Impairments {
        dup_per_mille: 50,
        ..Impairments::default()
    };
    let (bw, out) = goodput(ScenarioKind::BaselineSingleProcess, imp);
    assert!(out.impairment_stats.duplicated > 0);
    // Duplicates waste wire and RX-ring slots but TCP sequence numbers
    // de-duplicate them; goodput stays near the ceiling.
    assert!(
        bw > 800.0,
        "duplication should not collapse goodput: {bw:.0}"
    );
}

#[test]
fn reordering_triggers_recovery_not_collapse() {
    let imp = Impairments::reordering(20, SimDuration::from_micros(300));
    let (bw, out) = goodput(ScenarioKind::BaselineSingleProcess, imp);
    assert!(out.impairment_stats.reordered > 0);
    // Held-back segments arrive late; the receiver's out-of-order queue and
    // (dup-ACK-driven) fast retransmit keep the stream moving.
    assert!(bw > 100.0, "reordering must not stall TCP: {bw:.0} Mbit/s");
}

#[test]
fn scenario2_service_survives_lossy_links() {
    // The Scenario 2 service cVM (the compartment split under test in the
    // paper) must tolerate the same degraded link as the monolithic
    // baseline: compartmentalization must not amplify loss sensitivity.
    let (s2, out) = goodput(ScenarioKind::Scenario2Uncontended, Impairments::lossy(5));
    let (base, _) = goodput(ScenarioKind::BaselineSingleProcess, Impairments::lossy(5));
    assert!(out.impairment_stats.lost > 0);
    assert!(
        (s2 - base).abs() / base < 0.25,
        "S2 under loss ({s2:.0}) should track Baseline under loss ({base:.0})"
    );
}

#[test]
fn jitter_alone_preserves_goodput() {
    let imp = Impairments {
        jitter: SimDuration::from_micros(2),
        ..Impairments::default()
    };
    let (bw, _) = goodput(ScenarioKind::BaselineSingleProcess, imp);
    assert!(bw > 850.0, "2µs jitter is absorbed by buffering: {bw:.0}");
}

#[test]
fn outcome_reports_stack_stats_per_node() {
    let (_, out) = goodput(ScenarioKind::BaselineSingleProcess, Impairments::default());
    assert_eq!(out.stack_stats.len(), 2, "DUT + measurement host");
    let total_in: u64 = out.stack_stats.iter().map(|(_, s)| s.frames_in).sum();
    assert!(total_in > 1_000, "frames flowed: {total_in}");
}
