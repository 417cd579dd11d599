//! The timed pass: spawning samples, checking them, and reducing them to
//! the end-to-end metrics.
//!
//! Every sample is a fresh process (`--child`), so each one starts with an
//! empty frame-buffer pool, allocator and page cache state of its own, and
//! pays what a user's first call pays. Host-time metrics are reduced with
//! the **minimum** over a workload's samples — interference on a shared
//! box only ever slows a run down — while the median, quartiles and raw
//! samples are kept beside it.

use crate::json::Value;
use crate::ledger::BuildRun;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{self, Summary};
use crate::sys;
use crate::workloads::{counters_of, Kind, Sample, Workload};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fewest samples a timed run reduces.
pub const MIN_SAMPLES: usize = 3;
/// Most samples one `--seconds` window collects.
pub const MAX_SAMPLES: usize = 40;
/// Rounds of the all-workloads timed pass.
pub const ROUNDS: usize = 7;

/// Which shard driver a child's `workers(2)` run uses. Samples pin the
/// one-thread multiplexer: the threaded driver's wall time on the 2-vCPU
/// recording host scatters by more than 2x between runs (futex barrier
/// wake-ups), which no bound could gate. The traced pass measures the
/// threaded driver once, as `core.threaded_run_ms` / `core.threaded_cpu_ms`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardDriver {
    Multiplexed,
    Threaded,
}

/// The child's half of a sample: time exactly one `spec.run()`. `entered`
/// is the first instant of the child's `main`, where `setup_s` starts.
///
/// # Errors
///
/// The scenario's own failure, as text.
pub fn child(w: &Workload, seed: u64, scale: u64, entered: Instant) -> Result<Sample, String> {
    let spec = w.spec(seed, scale);
    let pool0 = updk::framebuf::pool_stats();
    let setup_ns = entered.elapsed().as_nanos() as u64;
    let cpu0 = sys::process_cpu_ns();
    let t0 = Instant::now();
    let out = spec.run().map_err(|e| e.to_string())?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = sys::process_cpu_ns() - cpu0;
    let threads = sys::threads_now();

    let mut counters = counters_of(w, &out);
    let pool = updk::framebuf::pool_stats();
    let (fresh, reused) = (pool.fresh - pool0.fresh, pool.reused - pool0.reused);
    counters.insert("updk.framebuf_fresh".into(), fresh as f64);
    counters.insert(
        "updk.framebuf_reuse_share".into(),
        if fresh + reused > 0 {
            reused as f64 / (fresh + reused) as f64
        } else {
            0.0
        },
    );
    Ok(Sample {
        workload: w.name.to_owned(),
        seed,
        scale,
        wall_ns,
        cpu_ns,
        setup_ns,
        peak_rss_mib: sys::peak_rss_mib(),
        threads,
        horizon_ns: out.horizon.as_nanos(),
        digest: out.trace.digest,
        counters,
    })
}

/// Spawns this binary as a `--child` of workload `w`, waits for it, and
/// parses the one JSON line it prints.
fn spawn_child(
    w: &Workload,
    seed: u64,
    scale: u64,
    driver: ShardDriver,
    extra: &[&str],
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--child", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(extra)
        // Whatever the caller's environment says, the driver is chosen here.
        .env(
            "CAPNET_SHARD_THREADS",
            match driver {
                ShardDriver::Multiplexed => "0",
                ShardDriver::Threaded => "1",
            },
        )
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {} exited with {}", w.name, out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|_| "child output is not UTF-8")?;
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("child printed nothing")?;
    crate::json::parse(line)
}

/// One sample of `w` from a fresh process.
///
/// # Errors
///
/// The child could not be started, exited non-zero, or printed no sample.
pub fn spawn_sample(
    w: &Workload,
    seed: u64,
    scale: u64,
    driver: ShardDriver,
) -> Result<Sample, String> {
    Sample::from_json(&spawn_child(w, seed, scale, driver, &[])?)
}

/// The build/run split of star workload `w` from a fresh process (in a
/// process that has already built a 129-node star, the allocator hands the
/// arenas back dirty and "build" becomes a memset).
///
/// # Errors
///
/// As [`spawn_sample`].
pub fn spawn_rebuild(w: &Workload, seed: u64, scale: u64) -> Result<BuildRun, String> {
    BuildRun::from_json(&spawn_child(
        w,
        seed,
        scale,
        ShardDriver::Multiplexed,
        &["--rebuild"],
    )?)
}

/// Collects samples of `w` for about `seconds` of host time: at least
/// [`MIN_SAMPLES`], then as many as fit, never more than [`MAX_SAMPLES`].
///
/// # Errors
///
/// The first child that failed.
pub fn timed_samples(
    w: &Workload,
    seed: u64,
    scale: u64,
    seconds: f64,
) -> Result<Vec<Sample>, String> {
    let t0 = Instant::now();
    let mut longest = 0.0f64;
    let mut samples = Vec::new();
    loop {
        let s0 = Instant::now();
        samples.push(spawn_sample(w, seed, scale, ShardDriver::Multiplexed)?);
        longest = longest.max(s0.elapsed().as_secs_f64());
        let spent = t0.elapsed().as_secs_f64();
        if samples.len() >= MAX_SAMPLES
            || (samples.len() >= MIN_SAMPLES && spent + longest > seconds)
        {
            return Ok(samples);
        }
    }
}

/// Whether the workload's traffic depends on the seed at all (the two
/// 128-leaf stars and the paper testbed draw nothing random).
pub fn seed_dependent(w: &Workload) -> bool {
    w.kind == Kind::Httpd || w.name == "lossy_wan_sack"
}

/// Runs `w` in-process at a tenth of `scale`'s length with `seed` and
/// with `seed + 1` and reports whether the two digests differ.
///
/// # Errors
///
/// The scenario's own failure, as text.
pub fn second_seed_changes_digest(w: &Workload, seed: u64, scale: u64) -> Result<bool, String> {
    let digest = |s: u64| {
        w.spec(s, scale * 10)
            .run()
            .map(|o| o.trace.digest)
            .map_err(|e| e.to_string())
    };
    Ok(digest(seed)? != digest(seed.wrapping_add(1))?)
}

/// The output checks of one workload, golden-value free so any seed works
/// and a later model fix is not blocked by a file: returns every failure.
pub fn check(w: &Workload, samples: &[Sample], reference: Option<&Sample>) -> Vec<String> {
    let mut bad = Vec::new();
    let Some(first) = samples.first() else {
        return vec![format!("{}: no samples", w.name)];
    };
    for (i, s) in samples.iter().enumerate().skip(1) {
        if s.digest != first.digest {
            bad.push(format!(
                "sample {i} digest {:016x} != sample 0 digest {:016x}",
                s.digest, first.digest
            ));
        }
        if s.horizon_ns != first.horizon_ns {
            bad.push(format!("sample {i} horizon differs"));
        }
        for (k, v) in &first.counters {
            let got = s.counter(k);
            if got != *v || !s.counters.contains_key(k) {
                bad.push(format!("sample {i} {k} = {got}, sample 0 has {v}"));
            }
        }
    }
    let nproc = sys::available_parallelism() as u64;
    if let Some(s) = samples.iter().find(|s| s.threads > nproc) {
        bad.push(format!(
            "a sample ran {} threads on {nproc} cores",
            s.threads
        ));
    }
    if first.counter("sim_goodput_mbit_per_sec") <= 0.0 {
        bad.push("goodput is not positive".into());
    }
    // Payload over the whole horizon cannot beat the one 1 Gbit/s
    // bottleneck every iperf topology here has. (The goodput metric itself
    // sums per-flow rates over each flow's own span, which on very short
    // runs can read a little above line rate.)
    let offered =
        first.counter("iperf.payload_bytes") * 8.0 / (first.horizon_ns as f64 / 1e9) / 1e6;
    if offered > 1000.0 {
        bad.push(format!(
            "{offered} Mbit/s of payload over a 1000 Mbit/s bottleneck"
        ));
    }
    if first.counter("ops_attempted") < 1.0 {
        bad.push("no operation attempted".into());
    }
    if w.kind == Kind::Httpd {
        let (ok, non200, lat) = (
            first.counter("httpd.requests_ok"),
            first.counter("httpd.non200"),
            first.counter("httpd.latency_samples"),
        );
        if ok < 1.0 {
            bad.push("no request answered 200".into());
        }
        if ok + non200 != lat {
            bad.push(format!(
                "{ok} 200s + {non200} others != {lat} latency samples"
            ));
        }
        // The two ends count on their own: a client cannot have read more
        // 200s than the server wrote, nor the server have accepted more
        // connections than the fleets opened.
        let (server_ok, accepted, started) = (
            first.counter("httpd.server_ok"),
            first.counter("httpd.accepted"),
            first.counter("httpd.conns_started"),
        );
        if ok > server_ok {
            bad.push(format!(
                "clients read {ok} 200s, the server wrote {server_ok}"
            ));
        }
        if accepted > started {
            bad.push(format!(
                "server accepted {accepted} connections, fleets opened {started}"
            ));
        }
    }
    if w.workers > 1 {
        if first.counter("core.workers_used") != w.workers as f64 {
            bad.push(format!(
                "ran on {} shards, asked for {}",
                first.counter("core.workers_used"),
                w.workers
            ));
        }
        match reference {
            None => bad.push("no single-engine reference to compare with".into()),
            Some(r) => {
                if r.digest != first.digest {
                    bad.push(format!(
                        "digest {:016x} != single-engine {:016x}",
                        first.digest, r.digest
                    ));
                }
                for (k, v) in &r.counters {
                    if (k.starts_with("sim_") || k == "core.events") && first.counter(k) != *v {
                        bad.push(format!("{k} = {}, single-engine has {v}", first.counter(k)));
                    }
                }
            }
        }
    }
    bad.iter().map(|m| format!("{}: {m}", w.name)).collect()
}

/// One end-to-end metric of one workload: the gated value and the spread
/// it was reduced from.
#[derive(Debug, Clone)]
pub struct Reduced {
    /// The registry entry: name, unit, direction, bound.
    pub def: &'static EndToEnd,
    /// The value the gate reads.
    pub value: f64,
    /// Over the samples' own values (one per sample).
    pub summary: Summary,
    pub raw: Vec<f64>,
}

impl Reduced {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("value", Value::Num(self.value)),
            ("unit", Value::str(self.def.unit)),
            ("better", Value::str(self.def.better.as_str())),
            ("bound", Value::Num(self.def.bound)),
            ("summary", self.summary.to_json()),
            ("samples", Value::nums(&self.raw)),
        ])
    }
}

/// Reduces a workload's samples to the end-to-end metrics, in registry
/// order.
pub fn end_to_end(samples: &[Sample]) -> Vec<Reduced> {
    END_TO_END
        .iter()
        .map(|m| {
            let raw: Vec<f64> = samples
                .iter()
                .map(|s| match m.name {
                    "host_ns_per_sim_sec" => s.host_ns_per_sim_sec(),
                    "setup_s" => s.setup_ns as f64 / 1e9,
                    "peak_rss_mib" => s.peak_rss_mib,
                    other => s.counter(other),
                })
                .collect();
            let value = match m.name {
                // Interference only ever slows a run or a start-up down.
                "host_ns_per_sim_sec" | "setup_s" => stats::min(&raw),
                "peak_rss_mib" => stats::median(&raw),
                // Simulated time is exact: every sample has the same value
                // (the output check enforces it).
                _ => raw[0],
            };
            Reduced {
                def: m,
                value,
                summary: Summary::of(&raw).expect("at least one sample"),
                raw,
            }
        })
        .collect()
}

/// The sample with the shortest wall time.
///
/// # Panics
///
/// Panics on an empty slice (every caller has at least one sample).
pub fn fastest(samples: &[Sample]) -> &Sample {
    samples
        .iter()
        .min_by_key(|s| s.wall_ns)
        .expect("at least one sample")
}

/// `(attempted, failed)` for the result line: every operation fails when
/// an output check did.
pub fn ops(sample: &Sample, correct: bool) -> (u64, u64) {
    let attempted = (sample.counter("ops_attempted") as u64).max(1);
    let failed = if correct {
        sample.counter("ops_failed") as u64
    } else {
        attempted
    };
    (attempted, failed)
}

/// The counters of a sample that are per-layer metrics, by registry name.
pub fn layer_counters(sample: &Sample) -> BTreeMap<&'static str, f64> {
    crate::metrics::PER_LAYER
        .iter()
        .filter_map(|m| sample.counters.get(m.name).map(|v| (m.name, *v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    /// An in-process sample. The test harness's own threads are not the
    /// workload's, so the thread count is reset.
    fn sample(w: &Workload, seed: u64) -> Sample {
        Sample {
            threads: 1,
            ..child(w, seed, 20, Instant::now()).unwrap()
        }
    }

    #[test]
    fn identical_samples_pass_and_a_diverging_one_fails() {
        let w = find("httpd_churn").unwrap();
        let a = sample(w, 9);
        assert_eq!(
            check(w, &[a.clone(), a.clone()], None),
            Vec::<String>::new()
        );
        let mut b = a.clone();
        b.digest ^= 1;
        *b.counters.get_mut("core.events").unwrap() += 1.0;
        let bad = check(w, &[a.clone(), b], None);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(check(w, &[], None)[0].contains("no samples"));
        // The server's count of 200s bounds the clients'.
        let mut c = a.clone();
        c.counters.insert(
            "httpd.server_ok".into(),
            a.counter("httpd.requests_ok") - 1.0,
        );
        let bad = check(w, &[c], None);
        assert!(
            bad.len() == 1 && bad[0].contains("the server wrote"),
            "{bad:?}"
        );
        let (attempted, failed) = ops(&a, false);
        assert_eq!(attempted, failed);
        assert_eq!(ops(&a, true).1, 0);
    }

    #[test]
    fn sharded_run_must_match_its_single_engine_reference() {
        let (w1, w2) = (
            find("star128_fanin").unwrap(),
            find("star128_fanin_w2_mux").unwrap(),
        );
        let reference = sample(w1, 3);
        let sharded = sample(w2, 3);
        assert_eq!(sharded.counter("core.workers_used"), 2.0);
        assert_eq!(
            check(w2, std::slice::from_ref(&sharded), Some(&reference)),
            Vec::<String>::new()
        );
        assert!(!check(w2, std::slice::from_ref(&sharded), None).is_empty());
        let mut other = reference.clone();
        other.digest ^= 1;
        assert!(!check(w2, &[sharded], Some(&other)).is_empty());
    }

    #[test]
    fn seeds_move_what_they_should() {
        let lossy = find("lossy_wan_sack").unwrap();
        assert!(seed_dependent(lossy));
        assert!(second_seed_changes_digest(lossy, 7, 10).unwrap());
        let star = find("star128_fanin").unwrap();
        assert!(!seed_dependent(star));
    }

    #[test]
    fn reduction_takes_min_for_times_and_median_for_memory() {
        let w = find("httpd_churn").unwrap();
        let base = sample(w, 9);
        let mut samples = vec![base.clone(), base.clone(), base.clone()];
        samples[0].wall_ns = 300;
        samples[1].wall_ns = 100;
        samples[2].wall_ns = 200;
        samples[0].setup_ns = 3000;
        samples[1].setup_ns = 1000;
        samples[2].setup_ns = 2000;
        samples[0].peak_rss_mib = 30.0;
        samples[1].peak_rss_mib = 10.0;
        samples[2].peak_rss_mib = 20.0;
        let e2e = end_to_end(&samples);
        assert_eq!(e2e.len(), END_TO_END.len());
        let by = |n: &str| e2e.iter().find(|r| r.def.name == n).unwrap();
        assert_eq!(
            by("host_ns_per_sim_sec").value,
            100.0 / (base.horizon_ns as f64 / 1e9)
        );
        assert_eq!(by("setup_s").value, 1e-6);
        assert_eq!(by("peak_rss_mib").value, 20.0);
        assert_eq!(fastest(&samples).wall_ns, 100);
        assert!(by("sim_goodput_mbit_per_sec").value > 0.0);
        assert!(
            e2e.iter().all(|r| r.value != 0.0),
            "no end-to-end metric is 0"
        );
        assert!(!layer_counters(&base).is_empty());
    }
}
