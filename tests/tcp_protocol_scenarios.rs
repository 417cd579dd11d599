//! The TCP protocol-fidelity scenarios: lossy-WAN goodput (SACK on/off)
//! and mixed congestion-control dumbbell fairness. Like every scenario in
//! this repository they are pure functions of their argument tuple — the
//! digests pinned here are the seed values; update them only for a change
//! that *intends* to alter wire behavior — and byte-identical at any
//! worker count.

use capnet::scenario::{fairness_index, ScenarioSpec};
use capnet::CcAlgo;
use simkern::SimDuration;
use updk::wire::Impairments;

const LOSSY_SEED: u64 = 77;
const LOSS_PER_MILLE: u16 = 20;

/// A 2-leaf star whose final hops drop `LOSS_PER_MILLE` ‰ of frames.
fn lossy_star() -> ScenarioSpec {
    ScenarioSpec::star(2)
        .duration(SimDuration::from_millis(40))
        .seed(LOSSY_SEED)
        .impairments(Impairments {
            loss_per_mille: LOSS_PER_MILLE,
            ..Default::default()
        })
}

/// A 2-pair dumbbell whose senders run `algos` (empty: the default).
fn dumbbell(algos: &[CcAlgo]) -> ScenarioSpec {
    ScenarioSpec::dumbbell(2)
        .duration(SimDuration::from_millis(30))
        .seed(5)
        .pair_cc(algos)
}

/// CUBIC + SACK star over a 2% lossy fabric, across worker counts: the
/// new protocol machinery (scoreboard retransmits, cubic window growth)
/// must shard exactly like the classic path does.
#[test]
fn lossy_cubic_sack_star_is_pinned_and_shards_identically() {
    let cubic_sack = || lossy_star().congestion(CcAlgo::Cubic).sack(true);
    let run = |workers: usize| {
        cubic_sack()
            .workers(workers)
            .run()
            .expect("lossy star runs")
    };
    let base = run(1);
    assert!(base.trace.frames > 1_000, "real traffic flowed");
    assert!(
        base.impairment_stats.lost > 0,
        "the lossy fabric actually dropped frames"
    );
    assert_eq!(
        base.trace.digest, 0x713744d4632534de,
        "lossy CUBIC+SACK star trace drifted"
    );
    // Same scenario with Reno: the CC choice genuinely reaches the wire
    // once loss makes the algorithms recover differently.
    let reno = lossy_star()
        .congestion(CcAlgo::Reno)
        .sack(true)
        .run()
        .expect("reno star runs");
    assert_ne!(
        base.trace.digest, reno.trace.digest,
        "CUBIC and Reno must diverge under loss"
    );
    // Adaptive selection is on by default, so these runs collapse back
    // to one engine: the adaptive path must be byte-identical too.
    for workers in [2usize, 4] {
        let out = run(workers);
        assert_eq!(
            base.trace, out.trace,
            "workers={workers}: byte-identical trace"
        );
        assert_eq!(base.servers, out.servers, "workers={workers}: reports");
        assert_eq!(
            base.impairment_stats, out.impairment_stats,
            "workers={workers}: impairment totals"
        );
    }
    // And genuinely sharded (adaptive off): the protocol machinery must
    // survive real window-driven execution, not just the collapsed path.
    let sharded = cubic_sack()
        .workers(2)
        .adaptive_workers(false)
        .run()
        .expect("sharded lossy star runs");
    assert_eq!(sharded.workers, 2, "forced plan must stay sharded");
    assert_eq!(base.trace, sharded.trace, "sharded: byte-identical trace");
    assert_eq!(base.servers, sharded.servers, "sharded: reports");
    assert_eq!(
        base.impairment_stats, sharded.impairment_stats,
        "sharded: impairment totals"
    );
}

/// SACK recovers goodput on a lossy WAN: the same seed, the same drops —
/// the scoreboard-driven retransmit path must deliver at least as much as
/// timeout/fast-retransmit-only recovery, and both runs are deterministic.
#[test]
fn sack_recovers_goodput_on_a_lossy_wan() {
    let with_sack = lossy_star().sack(true).run().expect("sack run");
    let without = lossy_star().sack(false).run().expect("plain run");
    let sum =
        |out: &capnet::SimOutcome| -> f64 { out.servers.iter().map(|r| r.mbit_per_sec()).sum() };
    let (on, off) = (sum(&with_sack), sum(&without));
    assert!(
        on > 0.0 && off > 0.0,
        "both modes moved data: {on:.1}/{off:.1}"
    );
    assert!(
        on >= off * 0.95,
        "SACK must not cost goodput: {on:.1} vs {off:.1} Mbit/s"
    );
    // Determinism: replaying either configuration reproduces it exactly.
    let replay = lossy_star().sack(true).run().expect("replay");
    assert_eq!(with_sack.trace, replay.trace, "same seed, same trace");
    assert_eq!(with_sack.servers, replay.servers);
}

/// Reno and CUBIC senders sharing a lossy dumbbell trunk: the split is the
/// inter-algorithm fairness experiment, pinned by digest and scored by
/// Jain's index. On the drop-free dumbbell both algorithms stay in slow
/// start (receiver-window-limited) and the classic pinned digest must hold
/// for ANY algorithm mix — the CC plumbing is opt-in by construction.
#[test]
fn reno_vs_cubic_dumbbell_is_pinned_and_fair_enough() {
    let lossy = Impairments {
        loss_per_mille: 10,
        ..Default::default()
    };
    let out = dumbbell(&[CcAlgo::Reno, CcAlgo::Cubic])
        .impairments(lossy)
        .run()
        .expect("dumbbell runs");
    assert_eq!(out.servers.len(), 2);
    assert_eq!(
        out.trace.digest, 0x3afe5d066e8e0e51,
        "Reno-vs-CUBIC lossy dumbbell trace drifted"
    );
    let rates: Vec<f64> = out.servers.iter().map(|r| r.mbit_per_sec()).collect();
    let jain = fairness_index(&rates);
    assert!(
        jain > 0.5,
        "neither algorithm starves the other: J={jain:.3} over {rates:?}"
    );
    // The same lossy run with both senders on Reno must differ: the mixed
    // algorithms genuinely reached the wire.
    let all_reno = dumbbell(&[CcAlgo::Reno, CcAlgo::Reno])
        .impairments(lossy)
        .run()
        .expect("all-reno dumbbell");
    assert_ne!(
        out.trace.digest, all_reno.trace.digest,
        "mixing CUBIC in must change recovery behavior under loss"
    );
    // An all-default, drop-free run (empty algo slice) must reproduce the
    // repo's long-pinned classic dumbbell digest — the new plumbing
    // changes nothing unless asked.
    let classic = dumbbell(&[]).run().expect("classic dumbbell");
    assert_eq!(
        classic.trace.digest, 0x5a1adb9234ff72c8,
        "default-CC dumbbell must keep the classic pinned digest"
    );
    // And with an explicit all-CUBIC mix but no loss, the flows never
    // leave slow start, so even the algorithm swap is invisible.
    let clean_cubic = dumbbell(&[CcAlgo::Cubic])
        .run()
        .expect("clean cubic dumbbell");
    assert_eq!(
        clean_cubic.trace.digest, 0x5a1adb9234ff72c8,
        "drop-free dumbbell is rwnd-limited: CC choice is inert"
    );
}
