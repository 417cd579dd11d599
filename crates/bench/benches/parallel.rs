//! Ledger target for the **sharded `NetSim`**: star fan-in at three
//! sizes, each at `workers = 1 / 2 / 4`, with adaptive worker selection
//! left on — so the json records what a real caller gets: small stars
//! transparently collapse to the single-engine loop (`workers_used = 1`),
//! the 128-client star genuinely shards.
//!
//! Per `(clients, workers)` case, `BENCH_parallel.json` records `workers`
//! (what was asked), `lookahead_ns`, and the run's digest, `workers_used`
//! and counters ([`BenchReport::record_outcome`]) — including the
//! per-round trio `ev_rounds` / `ev_empty_rounds` / `ev_xshard_frames`
//! (rounds driven, shard-rounds with nothing to run, frames handed
//! across), the only fields that legitimately differ along the worker
//! axis.
//!
//! The target **asserts** that every worker count reproduces the
//! `workers = 1` digest and counters byte for byte, so CI's
//! behaviour-ledger job fails on any determinism regression.

use capnet::{ScenarioSpec, SimOutcome};
use capnet_bench::BenchReport;
use simkern::SimDuration;

const SEED: u64 = 0x70B0;
const RUN: SimDuration = SimDuration::from_millis(25);

fn main() {
    let mut report = BenchReport::new("parallel");

    for clients in [8usize, 32, 128] {
        let mut baseline: Option<SimOutcome> = None;
        for workers in [1usize, 2, 4] {
            let out = ScenarioSpec::star(clients)
                .duration(RUN)
                .seed(SEED)
                .workers(workers)
                .run()
                .expect("star runs");
            if let Some(base) = &baseline {
                // The headline contract: byte-identical wire behavior at
                // any worker count.
                assert_eq!(
                    base.trace, out.trace,
                    "star/{clients}: workers={workers} diverged from workers=1"
                );
                assert_eq!(
                    base.counters, out.counters,
                    "star/{clients}: workers={workers} counter drift"
                );
            }
            eprintln!(
                "[parallel] star/{clients} workers={workers} (used {}): digest {:#018x}",
                out.workers, out.trace.digest
            );
            report.record_outcome(
                "star",
                &format!("clients={clients}/workers={workers}"),
                &out,
                &[
                    ("workers", workers as f64),
                    ("flows", clients as f64),
                    ("lookahead_ns", out.lookahead_ns as f64),
                ],
            );
            baseline.get_or_insert(out);
        }
    }

    let path = report.write().expect("BENCH_parallel.json written");
    eprintln!("[parallel] ledger: {}", path.display());
}
