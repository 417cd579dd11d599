//! Ledger target for the **TCP protocol-fidelity tier**: congestion-control
//! fairness on a lossy dumbbell and SACK goodput recovery on a lossy WAN.
//!
//! Recorded into `BENCH_tcp.json` per case:
//!
//! * `fairness_index` — Jain's index over the dumbbell's per-flow rates
//!   (1.0 = perfectly even trunk split) for Reno/Reno, Reno/CUBIC and
//!   CUBIC/CUBIC sender mixes under 1% loss;
//! * `goodput_mbit_per_sec` — aggregate lossy-WAN application goodput with
//!   SACK negotiation off and on at the same seed (same drops), isolating
//!   what scoreboard-driven retransmission buys;
//! * the digest and event counters of every case
//!   ([`BenchReport::record_outcome`]).
//!
//! The target also **asserts** that the CUBIC+SACK lossy star reproduces
//! its `workers = 1` digest at `workers = 2` — extending CI's
//! behaviour-ledger determinism gate over the protocol machinery (persist
//! timer, SACK scoreboard, pluggable CC).

use capnet::scenario::fairness_index;
use capnet::{CcAlgo, ScenarioSpec, SimOutcome};
use capnet_bench::BenchReport;
use simkern::{CostModel, SimDuration};
use updk::wire::Impairments;

const DUMBBELL_SEED: u64 = 5;
const WAN_SEED: u64 = 77;
const DUMBBELL_RUN: SimDuration = SimDuration::from_millis(30);
const WAN_RUN: SimDuration = SimDuration::from_millis(40);
const DUMBBELL_LOSS: u16 = 10;
const WAN_LOSS: u16 = 20;

fn dumbbell_case(algos: &[CcAlgo]) -> SimOutcome {
    ScenarioSpec::dumbbell(2)
        .duration(DUMBBELL_RUN)
        .seed(DUMBBELL_SEED)
        .pair_cc(algos)
        .impairments(Impairments::lossy(DUMBBELL_LOSS))
        .run()
        .expect("dumbbell runs")
}

fn wan_case(sack: bool) -> SimOutcome {
    ScenarioSpec::star(2)
        .duration(WAN_RUN)
        .seed(WAN_SEED)
        .impairments(Impairments::lossy(WAN_LOSS))
        .sack(sack)
        .run()
        .expect("lossy wan runs")
}

fn main() {
    let mut report = BenchReport::new("tcp");

    // Dumbbell trunk fairness across congestion-control mixes.
    for (name, algos) in [
        ("reno_reno", [CcAlgo::Reno, CcAlgo::Reno]),
        ("reno_cubic", [CcAlgo::Reno, CcAlgo::Cubic]),
        ("cubic_cubic", [CcAlgo::Cubic, CcAlgo::Cubic]),
    ] {
        let out = dumbbell_case(&algos);
        let rates: Vec<f64> = out.servers.iter().map(|r| r.mbit_per_sec()).collect();
        let jain = fairness_index(&rates);
        eprintln!(
            "[tcp] dumbbell/{name}: {:.0}/{:.0} Mbit/s, J={jain:.3}",
            rates[0], rates[1]
        );
        report.record_outcome(
            "dumbbell_cc",
            name,
            &out,
            &[
                ("fairness_index", jain),
                ("flow0_mbit_per_sec", rates[0]),
                ("flow1_mbit_per_sec", rates[1]),
                ("loss_per_mille", f64::from(DUMBBELL_LOSS)),
            ],
        );
    }

    // Lossy-WAN goodput, SACK off vs on at the same seed (same drops).
    let mut goodput_off = 0.0;
    for sack in [false, true] {
        let out = wan_case(sack);
        let goodput: f64 = out.servers.iter().map(|r| r.mbit_per_sec()).sum();
        let name = if sack { "sack_on" } else { "sack_off" };
        if !sack {
            goodput_off = goodput;
        } else {
            eprintln!(
                "[tcp] lossy_wan: {goodput_off:.0} Mbit/s plain -> {goodput:.0} Mbit/s with SACK"
            );
        }
        report.record_outcome(
            "lossy_wan",
            name,
            &out,
            &[
                ("goodput_mbit_per_sec", goodput),
                ("loss_per_mille", f64::from(WAN_LOSS)),
                ("sack", f64::from(u8::from(sack))),
            ],
        );
    }

    // Determinism gate over the protocol machinery: the CUBIC+SACK lossy star
    // must shard byte-identically (cf. tests/tcp_protocol_scenarios.rs).
    // Adaptive worker selection is forced off — a 2-client star collapses
    // to one engine otherwise, which would make the gate vacuous.
    let star = |workers: usize| {
        ScenarioSpec::star(2)
            .duration(WAN_RUN)
            .costs(CostModel::morello())
            .seed(WAN_SEED)
            .impairments(Impairments {
                loss_per_mille: WAN_LOSS,
                ..Default::default()
            })
            .workers(workers)
            .adaptive_workers(false)
            .congestion(CcAlgo::Cubic)
            .sack(true)
            .run()
            .expect("lossy cubic star runs")
    };
    let base = star(1);
    let sharded = star(2);
    assert_eq!(
        base.trace, sharded.trace,
        "CUBIC+SACK lossy star must be byte-identical at workers=2"
    );
    assert_eq!(
        sharded.workers, 2,
        "lossy cubic star rerun must stay sharded"
    );

    let path = report.write().expect("BENCH_tcp.json written");
    eprintln!("[tcp] ledger: {}", path.display());
}
