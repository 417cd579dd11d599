//! Bench target for the **sharded parallel `NetSim`**: star fan-in at
//! three sizes, each at `workers = 1 / 2 / 4`, with adaptive worker
//! selection left on — so the json records what a real caller gets:
//! small stars transparently collapse to the single-engine loop
//! (`workers_used = 1`), the 128-client star genuinely shards.
//!
//! Per `(clients, workers)` case, `BENCH_parallel.json` records:
//!
//! * the host-speed trio (`host_wall_ms`, `events_per_sec`,
//!   `host_ns_per_sim_sec`) for the **run phase only** — scenario
//!   construction is identical across worker counts and its wall time is
//!   dominated by allocator noise (hundreds of 4 MiB node arenas), which
//!   would drown the worker-axis signal;
//! * the trace digest (split into `trace_digest_hi/lo` — the metrics are
//!   `f64`, which holds 32-bit halves exactly), plus `workers` (what was
//!   asked), `workers_used` (what the adaptive model chose),
//!   `lookahead_ns` and the `ev_*` counters — including the per-round
//!   trio `ev_rounds` / `ev_empty_rounds` / `ev_xshard_frames` (rounds
//!   driven, shard-rounds with nothing to run, frames handed across).
//!
//! The bench **asserts** that every worker count reproduces the
//! `workers = 1` digest and counters byte for byte, so CI's bench-smoke
//! job fails on any determinism regression. Cross-case derived ratios
//! (`speedup_vs_workers1`) are *not* recorded per case: they're computed
//! by `tools/bench_delta.py` from `host_wall_ms`. The shards share one
//! thread, so those ratios price sharding (shallower calendars against
//! rendezvous rounds), not parallel speedup.

use capnet::netsim::NetSim;
use capnet::SimOutcome;
use capnet_bench::BenchReport;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simkern::{CostModel, SimDuration};

const SEED: u64 = 0x70B0;
const RUN: SimDuration = SimDuration::from_millis(25);
const HORIZON: SimDuration = SimDuration::from_millis(55);

/// Builds the star scenario and times only the simulation run.
fn star_case(clients: usize, workers: usize) -> (SimOutcome, std::time::Duration) {
    let mut sim = NetSim::new(CostModel::morello());
    sim.set_seed(SEED);
    sim.set_workers(workers);
    let star = capnet::topology::build_star(&mut sim, clients).expect("star builds");
    for (i, &leaf) in star.leaves.iter().enumerate() {
        let port = 5301 + i as u16;
        sim.add_server(star.hub, format!("hub-rx{i}"), port)
            .expect("server");
        sim.add_client(
            leaf,
            format!("leaf-tx{i}"),
            (star.hub_ip, port),
            RUN,
            SimDuration::ZERO,
        )
        .expect("client");
    }
    let t0 = std::time::Instant::now();
    let out = sim.run(HORIZON).expect("runs");
    (out, t0.elapsed())
}

/// Best-of-`reps` wall time (first outcome kept; all reps must agree).
fn measured(clients: usize, workers: usize, reps: usize) -> (SimOutcome, std::time::Duration) {
    let (out, mut best) = star_case(clients, workers);
    for _ in 1..reps {
        let (again, wall) = star_case(clients, workers);
        assert_eq!(
            again.trace, out.trace,
            "star/{clients}/w{workers}: a rerun diverged from itself"
        );
        best = best.min(wall);
    }
    (out, best)
}

/// The per-case metric rows shared by every recorded entry.
fn case_metrics(out: &SimOutcome, clients: usize, workers: usize) -> Vec<(&'static str, f64)> {
    let cnt = out.counters;
    let r = out.rounds;
    vec![
        ("workers", workers as f64),
        ("workers_used", out.workers as f64),
        ("flows", clients as f64),
        ("lookahead_ns", out.lookahead_ns as f64),
        ("trace_digest_hi", (out.trace.digest >> 32) as f64),
        ("trace_digest_lo", (out.trace.digest & 0xFFFF_FFFF) as f64),
        ("trace_frames", out.trace.frames as f64),
        ("ev_loop_polls", cnt.loop_polls as f64),
        ("ev_deliveries", cnt.deliveries as f64),
        ("ev_switch_hops", cnt.switch_hops as f64),
        ("ev_timer_wakes", cnt.timer_wakes as f64),
        ("ev_stale_wakes", cnt.stale_wakes as f64),
        ("ev_parks", cnt.parks as f64),
        ("ev_wakes", cnt.wakes as f64),
        ("ev_rounds", r.rounds as f64),
        ("ev_empty_rounds", r.empty_rounds as f64),
        ("ev_xshard_frames", r.xshard_frames as f64),
    ]
}

fn bench_parallel(c: &mut Criterion) {
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    // Best-of-7 (applied to every worker count alike) damps the
    // single-allocator noise that dominates run-to-run variance here.
    let reps = if smoke { 1 } else { 7 };
    let mut report = BenchReport::new("parallel");
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);

    for clients in [8usize, 32, 128] {
        let mut baseline: Option<(SimOutcome, f64)> = None;
        for workers in [1usize, 2, 4] {
            let (out, wall) = measured(clients, workers, reps);
            if let Some((base, _)) = &baseline {
                // The headline contract, enforced in CI's bench-smoke job:
                // byte-identical wire behavior at any worker count.
                assert_eq!(
                    base.trace, out.trace,
                    "star/{clients}: workers={workers} diverged from workers=1"
                );
                assert_eq!(
                    base.counters, out.counters,
                    "star/{clients}: workers={workers} counter drift"
                );
            }
            let wall_s = wall.as_secs_f64();
            let speedup = baseline
                .as_ref()
                .map_or(1.0, |(_, base_wall)| base_wall / wall_s);
            eprintln!(
                "[parallel] star/{clients} workers={workers} (used {}): {:.1} ms run, {speedup:.2}x vs workers=1, digest {:#018x}",
                out.workers,
                wall_s * 1e3,
                out.trace.digest
            );
            report.record_timed(
                "star",
                &format!("clients={clients}/workers={workers}"),
                wall,
                out.events,
                out.horizon.as_nanos() as f64 / 1e9,
                &case_metrics(&out, clients, workers),
            );
            if baseline.is_none() {
                baseline = Some((out, wall_s));
            }
        }

        // Criterion's own timing loop only for the smallest case — the
        // artifacts above are the machine-readable trajectory.
        if clients == 8 {
            for workers in [1usize, 4] {
                group.bench_with_input(
                    BenchmarkId::new(format!("star{clients}"), workers),
                    &workers,
                    |b, &workers| b.iter(|| star_case(clients, workers)),
                );
            }
        }
    }

    group.finish();
    let path = report.write().expect("BENCH_parallel.json written");
    eprintln!("[parallel] perf trajectory: {}", path.display());
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
