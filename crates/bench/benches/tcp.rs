//! Bench target for the **TCP protocol-fidelity tier**: congestion-control
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
//! * the trace digest (`trace_digest_hi/lo`) of every case, plus the
//!   host-speed trio for the run phase.
//!
//! The bench also **asserts** that the CUBIC+SACK lossy star reproduces
//! its `workers = 1` digest at `workers = 2` — extending CI's bench-smoke
//! determinism gate over the new protocol machinery (persist timer, SACK
//! scoreboard, pluggable CC).

use capnet::scenario::fairness_index;
use capnet::{CcAlgo, ScenarioSpec, SimOutcome};
use capnet_bench::BenchReport;
use criterion::{criterion_group, criterion_main, Criterion};
use simkern::{CostModel, SimDuration};
use updk::wire::Impairments;

const DUMBBELL_SEED: u64 = 5;
const WAN_SEED: u64 = 77;
const DUMBBELL_RUN: SimDuration = SimDuration::from_millis(30);
const WAN_RUN: SimDuration = SimDuration::from_millis(40);
const DUMBBELL_LOSS: u16 = 10;
const WAN_LOSS: u16 = 20;

fn dumbbell_case(algos: &[CcAlgo]) -> (SimOutcome, std::time::Duration) {
    let t0 = std::time::Instant::now();
    let out = ScenarioSpec::dumbbell(2)
        .duration(DUMBBELL_RUN)
        .seed(DUMBBELL_SEED)
        .pair_cc(algos)
        .impairments(Impairments::lossy(DUMBBELL_LOSS))
        .run()
        .expect("dumbbell runs");
    (out, t0.elapsed())
}

fn wan_case(sack: bool) -> (SimOutcome, std::time::Duration) {
    let t0 = std::time::Instant::now();
    let out = ScenarioSpec::star(2)
        .duration(WAN_RUN)
        .seed(WAN_SEED)
        .impairments(Impairments::lossy(WAN_LOSS))
        .sack(sack)
        .run()
        .expect("lossy wan runs");
    (out, t0.elapsed())
}

fn digest_halves(out: &SimOutcome) -> [(&'static str, f64); 2] {
    [
        ("trace_digest_hi", (out.trace.digest >> 32) as f64),
        ("trace_digest_lo", (out.trace.digest & 0xFFFF_FFFF) as f64),
    ]
}

fn bench_tcp(c: &mut Criterion) {
    let mut report = BenchReport::new("tcp");
    let mut group = c.benchmark_group("tcp");
    group.sample_size(10);

    // Dumbbell trunk fairness across congestion-control mixes.
    for (name, algos) in [
        ("reno_reno", [CcAlgo::Reno, CcAlgo::Reno]),
        ("reno_cubic", [CcAlgo::Reno, CcAlgo::Cubic]),
        ("cubic_cubic", [CcAlgo::Cubic, CcAlgo::Cubic]),
    ] {
        let (out, wall) = dumbbell_case(&algos);
        let rates: Vec<f64> = out.servers.iter().map(|r| r.mbit_per_sec()).collect();
        let jain = fairness_index(&rates);
        eprintln!(
            "[tcp] dumbbell/{name}: {:.0}/{:.0} Mbit/s, J={jain:.3}",
            rates[0], rates[1]
        );
        let [hi, lo] = digest_halves(&out);
        report.record_timed(
            "dumbbell_cc",
            name,
            wall,
            out.events,
            out.horizon.as_nanos() as f64 / 1e9,
            &[
                ("fairness_index", jain),
                ("flow0_mbit_per_sec", rates[0]),
                ("flow1_mbit_per_sec", rates[1]),
                ("loss_per_mille", f64::from(DUMBBELL_LOSS)),
                hi,
                lo,
            ],
        );
    }

    // Lossy-WAN goodput, SACK off vs on at the same seed (same drops).
    let mut goodput_off = 0.0;
    for sack in [false, true] {
        let (out, wall) = wan_case(sack);
        let goodput: f64 = out.servers.iter().map(|r| r.mbit_per_sec()).sum();
        let name = if sack { "sack_on" } else { "sack_off" };
        if !sack {
            goodput_off = goodput;
        } else {
            eprintln!(
                "[tcp] lossy_wan: {goodput_off:.0} Mbit/s plain -> {goodput:.0} Mbit/s with SACK"
            );
        }
        let [hi, lo] = digest_halves(&out);
        report.record_timed(
            "lossy_wan",
            name,
            wall,
            out.events,
            out.horizon.as_nanos() as f64 / 1e9,
            &[
                ("goodput_mbit_per_sec", goodput),
                ("loss_per_mille", f64::from(WAN_LOSS)),
                ("sack", f64::from(u8::from(sack))),
                hi,
                lo,
            ],
        );
    }

    // Determinism gate over the new machinery: the CUBIC+SACK lossy star
    // must shard byte-identically (cf. tests/tcp_protocol_scenarios.rs).
    // Adaptive worker selection is forced off — a 2-client star collapses
    // to one engine otherwise, which would make the gate vacuous.
    let star = |workers: usize| {
        capnet::ScenarioSpec::star(2)
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

    // Criterion's own timing loop for the cheapest case only; the report
    // entries above are the machine-readable trajectory.
    group.bench_function("lossy_wan_sack_on", |b| b.iter(|| wan_case(true)));
    group.finish();
    let path = report.write().expect("BENCH_tcp.json written");
    eprintln!("[tcp] perf trajectory: {}", path.display());
}

criterion_group!(benches, bench_tcp);
criterion_main!(benches);
