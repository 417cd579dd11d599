//! The repo benchmark. See `README.md` beside this crate for the workload
//! table, the metric glossary and the measurement protocol, and
//! `BENCHMARK.json` at the repo root for the contract it is run under.
//!
//! ```text
//! capnet-benchmark [--seed N] [--smoke] [--trace | --aa]
//!     every workload: timed pass, then traced pass (--trace: traced pass
//!     only; --aa: timed pass twice, compared against the bounds)
//! capnet-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload for S seconds; last stdout line is the result object
//! capnet-benchmark --contract
//!     prints BENCHMARK.json from the metric registry
//! capnet-benchmark --child W --seed N --scale K [--rebuild]
//!     internal: one sample (or one NetSim-builder rebuild) as a JSON line
//! ```

use capnet_benchmark::harness::{self, Reduced, ShardDriver};
use capnet_benchmark::json::Value;
use capnet_benchmark::ledger::{self, Charge, Pumps, SpanCost};
use capnet_benchmark::metrics::{self, PER_LAYER};
use capnet_benchmark::workloads::{self, Sample, Workload, WORKLOADS};
use capnet_benchmark::{probes, sys};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// `--smoke` runs everything at a tenth of its length.
const SMOKE_SCALE: u64 = 10;
const DEFAULT_SEED: u64 = 7;

#[derive(Debug, Default)]
struct Args {
    child: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    /// `--trace` alone is `Some(None)`; `--trace 0|1` is `Some(Some(_))`.
    trace: Option<Option<bool>>,
    scale: Option<u64>,
    rebuild: bool,
    smoke: bool,
    aa: bool,
    contract: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter().peekable();
    fn value<'a>(
        flag: &str,
        it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
    ) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
        s.parse()
            .map_err(|_| format!("{flag}: {s:?} is not a valid number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--child" => a.child = Some(value(flag, &mut it)?.clone()),
            "--workload" => a.workload = Some(value(flag, &mut it)?.clone()),
            "--seed" => a.seed = Some(num(flag, value(flag, &mut it)?)?),
            "--seconds" => a.seconds = Some(num(flag, value(flag, &mut it)?)?),
            "--scale" => a.scale = Some(num(flag, value(flag, &mut it)?)?),
            "--trace" => {
                a.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        Some(false)
                    }
                    Some("1") => {
                        it.next();
                        Some(true)
                    }
                    _ => None,
                })
            }
            "--rebuild" => a.rebuild = true,
            "--smoke" => a.smoke = true,
            "--aa" => a.aa = true,
            "--contract" => a.contract = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if a.scale == Some(0) {
        return Err("--scale must be at least 1".into());
    }
    Ok(a)
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

fn main() -> ExitCode {
    // Where a child's `setup_s` starts.
    let entered = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|a| run(a, entered)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("capnet-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Dispatches on the mode; `Ok(false)` is "ran, but a check failed".
fn run(a: Args, entered: Instant) -> Result<bool, String> {
    metrics::validate_registry()?;
    let seed = a.seed.unwrap_or(DEFAULT_SEED);
    let scale = a.scale.unwrap_or(if a.smoke { SMOKE_SCALE } else { 1 });
    if a.contract {
        print!("{}", metrics::contract_json().to_pretty());
        return Ok(true);
    }
    if let Some(name) = &a.child {
        let w = find_workload(name)?;
        let line = if a.rebuild {
            ledger::rebuild_star(w, seed, scale)?.to_json()
        } else {
            harness::child(w, seed, scale, entered)?.to_json()
        };
        println!("{}", line.to_line());
        return Ok(true);
    }
    if let Some(name) = &a.workload {
        let w = find_workload(name)?;
        let seconds = a.seconds.unwrap_or(metrics::RUN_SECONDS as f64);
        let traced = a.trace.flatten().unwrap_or(false);
        return one_workload(w, seed, scale, seconds, traced);
    }
    let rounds = if a.smoke { 1 } else { harness::ROUNDS };
    if a.aa {
        return aa(seed, scale, rounds);
    }
    all_workloads(seed, scale, rounds, a.trace.is_none())
}

// ---------------------------------------------------------------------
// Shared steps
// ---------------------------------------------------------------------

/// Everything the timed pass knows about one workload.
struct Timed {
    w: &'static Workload,
    samples: Vec<Sample>,
    e2e: Vec<Reduced>,
    failures: Vec<String>,
}

impl Timed {
    fn new(
        w: &'static Workload,
        samples: Vec<Sample>,
        reference: Option<&Sample>,
        seed: u64,
        scale: u64,
    ) -> Result<Timed, String> {
        let mut failures = harness::check(w, &samples, reference);
        if harness::seed_dependent(w) && !harness::second_seed_changes_digest(w, seed, scale)? {
            failures.push(format!(
                "{}: a second seed left the digest unchanged",
                w.name
            ));
        }
        let e2e = harness::end_to_end(&samples);
        Ok(Timed {
            w,
            samples,
            e2e,
            failures,
        })
    }

    fn print(&self) {
        for r in &self.e2e {
            println!("{} {} {} {}", self.w.name, r.def.name, r.value, r.def.unit);
        }
    }

    fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.w.name)),
            ("n", Value::Num(self.samples.len() as f64)),
            (
                "end_to_end",
                Value::obj(self.e2e.iter().map(|r| (r.def.name, r.to_json()))),
            ),
            (
                "check_failures",
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
            ("horizon_ns", Value::Num(self.samples[0].horizon_ns as f64)),
            // Identical in every sample (the output check enforces it), so
            // carried once.
            (
                "counters",
                Value::obj(
                    self.samples[0]
                        .counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v))),
                ),
            ),
            (
                "samples",
                Value::Arr(self.samples.iter().map(Sample::host_fields_json).collect()),
            ),
        ])
    }
}

/// Everything the traced pass knows about one workload.
struct Traced {
    w: &'static Workload,
    layer: BTreeMap<&'static str, f64>,
    charges: Vec<Charge>,
    failures: Vec<String>,
    wall_ns: u64,
}

/// What the traced pass shares between workloads: the pumps and probes do
/// not depend on which workload's ledger they price.
struct Instruments {
    pumps: Pumps,
    probes: BTreeMap<&'static str, f64>,
    span_cost: SpanCost,
}

impl Instruments {
    fn run(seed: u64, scale: u64) -> Result<Instruments, String> {
        Ok(Instruments {
            pumps: Pumps::run(seed, scale)?,
            probes: probes::run(scale),
            span_cost: SpanCost::measure(),
        })
    }
}

impl Traced {
    /// Assembles `w`'s per-layer ledger from one of its samples.
    fn new(
        w: &'static Workload,
        sample: &Sample,
        ins: &Instruments,
        seed: u64,
        scale: u64,
    ) -> Result<Traced, String> {
        let mut failures = Vec::new();
        let mut layer = harness::layer_counters(sample);
        layer.extend(ins.probes.iter().map(|(k, v)| (*k, *v)));
        layer.extend(ledger::pump_metrics(w, &ins.pumps, ins.span_cost));

        let wall = sample.wall_ns as f64;
        let per = |count: f64| if count > 0.0 { wall / count } else { 0.0 };
        layer.insert("host_cpu_ns_per_sim_sec", sample.host_cpu_ns_per_sim_sec());
        layer.insert("core.host_ns_per_event", per(sample.counter("core.events")));
        layer.insert(
            "core.host_ns_per_frame",
            per(sample.counter("core.trace_frames")),
        );

        // Build/run split through the NetSim builder (stars only; the
        // two-node paper testbed's build is below timer noise and its
        // addresses are private to ScenarioSpec, so its whole wall time is
        // reported as run time).
        let (build_ms, run_ms) = if w.star_leaves.is_some() {
            let br = harness::spawn_rebuild(w, seed, scale)?;
            if br.digest != sample.digest {
                failures.push(format!(
                    "{}: NetSim-builder rebuild digest {:016x} != ScenarioSpec digest {:016x}",
                    w.name, br.digest, sample.digest
                ));
            }
            (br.build_ns as f64 / 1e6, br.run_ns as f64 / 1e6)
        } else {
            (0.0, wall / 1e6)
        };
        layer.insert("core.build_ms", build_ms);
        layer.insert("core.run_ms", run_ms);

        // The threaded shard driver, once, for the sharded workload only:
        // wall time, and the CPU time that shows what a second core cost.
        let (threaded_ms, threaded_cpu_ms) = if w.workers > 1 && sys::available_parallelism() > 1 {
            let t = harness::spawn_sample(w, seed, scale, ShardDriver::Threaded)?;
            if t.digest != sample.digest {
                failures.push(format!("{}: threaded driver digest differs", w.name));
            }
            (t.wall_ns as f64 / 1e6, t.cpu_ns as f64 / 1e6)
        } else {
            (0.0, 0.0)
        };
        layer.insert("core.threaded_run_ms", threaded_ms);
        layer.insert("core.threaded_cpu_ms", threaded_cpu_ms);

        let switch_ns = w
            .star_leaves
            .map_or(0.0, |leaves| probes::switch_ingress_ns(leaves + 1, scale));
        let (charges, unattributed) =
            ledger::reconcile(w, sample, &layer, &ins.pumps, ins.span_cost, switch_ns);
        layer.insert("core.unattributed_share", unattributed);
        if unattributed < 0.0 {
            failures.push(format!(
                "{}: the ledger charges {:.1} % more than the measured wall time",
                w.name,
                -100.0 * unattributed
            ));
        }

        // The ledger must cover the registry (what is printed is the
        // registry's names, so nothing unregistered can leak out).
        for m in &PER_LAYER {
            if !layer.contains_key(m.name) {
                failures.push(format!(
                    "{}: per-layer metric {} was not produced",
                    w.name, m.name
                ));
            }
        }
        Ok(Traced {
            w,
            layer,
            charges,
            failures,
            wall_ns: sample.wall_ns,
        })
    }

    fn print(&self) {
        for m in &PER_LAYER {
            if let Some(v) = self.layer.get(m.name) {
                println!("{} {} {} {}", self.w.name, m.name, v, m.unit);
            }
        }
    }

    /// `{name: {value, unit}}` in registry order — the `metrics` of a
    /// traced result line and the `per_layer` of the results file.
    fn metrics_json(&self) -> Value {
        Value::obj(PER_LAYER.iter().filter_map(|m| {
            self.layer
                .get(m.name)
                .map(|v| (m.name, metric_json(*v, m.unit)))
        }))
    }

    fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.w.name)),
            ("per_layer", self.metrics_json()),
            (
                "reconciliation",
                Value::obj([
                    ("wall_ns", Value::Num(self.wall_ns as f64)),
                    (
                        "charges",
                        Value::Arr(
                            self.charges
                                .iter()
                                .map(|c| {
                                    Value::obj([
                                        ("layer", Value::str(c.layer)),
                                        ("count", Value::Num(c.count)),
                                        ("ns_per_unit", Value::Num(c.ns_per_unit)),
                                        ("ns", Value::Num(c.ns())),
                                        (
                                            "share_of_wall",
                                            Value::Num(c.ns() / self.wall_ns.max(1) as f64),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "check_failures",
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
        ])
    }
}

/// One metric as the result line and the results file carry it.
fn metric_json(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))])
}

/// The samples a traced pass without a timed pass prices: the fewest a
/// minimum means anything over.
fn ledger_samples(w: &Workload, seed: u64, scale: u64) -> Result<Vec<Sample>, String> {
    (0..harness::MIN_SAMPLES)
        .map(|_| harness::spawn_sample(w, seed, scale, ShardDriver::Multiplexed))
        .collect()
}

/// Facts about the run that every results file carries.
fn header(mode: &str, seed: u64, scale: u64) -> Vec<(&'static str, Value)> {
    vec![
        ("mode", Value::str(mode)),
        ("seed", Value::str(seed.to_string())),
        ("scale", Value::Num(scale as f64)),
        ("nproc", Value::Num(sys::nproc() as f64)),
        (
            "available_parallelism",
            Value::Num(sys::available_parallelism() as f64),
        ),
        ("rustc", Value::str(sys::tool_line("rustc", &["-V"]))),
        ("git_head", Value::str(sys::tool_line("git", &["rev-parse", "HEAD"]))),
        ("shard_driver", Value::str("multiplexed (CAPNET_SHARD_THREADS=0)")),
        ("cost_model", Value::str("CostModel::morello()")),
        (
            "model_validation",
            Value::str("unvalidated: the tree holds no paper-hardware reference numbers, so no accuracy figure is given"),
        ),
    ]
}

/// Writes `out/results.json` beside the benchmark's manifest.
fn write_results(doc: Value) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("results.json");
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn report_failures(failures: &[String]) {
    for f in failures {
        eprintln!("CHECK FAILED {f}");
    }
}

// ---------------------------------------------------------------------
// Mode: one workload under the acceptance contract
// ---------------------------------------------------------------------

fn one_workload(
    w: &'static Workload,
    seed: u64,
    scale: u64,
    seconds: f64,
    traced: bool,
) -> Result<bool, String> {
    // A sharded workload is checked against its single-engine twin.
    let reference = w
        .single_engine_twin()
        .map(|twin| harness::spawn_sample(twin, seed, scale, ShardDriver::Multiplexed))
        .transpose()?;
    let mut doc = header(
        if traced {
            "workload-traced"
        } else {
            "workload-timed"
        },
        seed,
        scale,
    );
    doc.push(("seconds", Value::Num(seconds)));

    let (correct, sample, metrics) = if traced {
        let samples = ledger_samples(w, seed, scale)?;
        let sample = harness::fastest(&samples).clone();
        let mut failures = harness::check(w, &samples, reference.as_ref());
        let ins = Instruments::run(seed, scale)?;
        let t = Traced::new(w, &sample, &ins, seed, scale)?;
        failures.extend(t.failures.iter().cloned());
        t.print();
        report_failures(&failures);
        doc.push(("traced", Value::Arr(vec![t.to_json()])));
        doc.push(("pumps", ins.pumps.to_json(ins.span_cost)));
        (failures.is_empty(), sample, t.metrics_json())
    } else {
        let samples = harness::timed_samples(w, seed, scale, seconds)?;
        let t = Timed::new(w, samples, reference.as_ref(), seed, scale)?;
        t.print();
        report_failures(&t.failures);
        doc.push(("timed", Value::Arr(vec![t.to_json()])));
        let metrics = Value::obj(
            t.e2e
                .iter()
                .map(|r| (r.def.name, metric_json(r.value, r.def.unit))),
        );
        (t.failures.is_empty(), t.samples[0].clone(), metrics)
    };
    write_results(Value::obj(doc))?;
    let (attempted, failed) = harness::ops(&sample, correct);
    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_line());
    Ok(correct)
}

// ---------------------------------------------------------------------
// Mode: every workload
// ---------------------------------------------------------------------

/// `rounds` rounds, each spawning one sample of every workload, so each
/// workload's samples are spread over the whole pass.
fn timed_pass(seed: u64, scale: u64, rounds: usize) -> Result<Vec<Timed>, String> {
    let mut samples: Vec<Vec<Sample>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        for (i, w) in WORKLOADS.iter().enumerate() {
            let t0 = Instant::now();
            samples[i].push(harness::spawn_sample(
                w,
                seed,
                scale,
                ShardDriver::Multiplexed,
            )?);
            eprintln!(
                "round {}/{rounds} {} {:.2} s",
                round + 1,
                w.name,
                t0.elapsed().as_secs_f64()
            );
        }
    }
    // A sharded workload's reference is its single-engine twin's first
    // sample of this same pass.
    let firsts: Vec<Sample> = samples.iter().map(|s| s[0].clone()).collect();
    WORKLOADS
        .iter()
        .zip(samples)
        .map(|(w, s)| {
            let reference = w
                .single_engine_twin()
                .and_then(|twin| firsts.iter().find(|f| f.workload == twin.name));
            Timed::new(w, s, reference, seed, scale)
        })
        .collect()
}

fn all_workloads(seed: u64, scale: u64, rounds: usize, with_timed: bool) -> Result<bool, String> {
    let t0 = Instant::now();
    let mut failures = Vec::new();
    let mut doc = header("all", seed, scale);
    doc.push(("rounds", Value::Num(rounds as f64)));

    let timed = if with_timed {
        let timed = timed_pass(seed, scale, rounds)?;
        for t in &timed {
            t.print();
            failures.extend(t.failures.iter().cloned());
        }
        doc.push((
            "timed",
            Value::Arr(timed.iter().map(Timed::to_json).collect()),
        ));
        eprintln!("timed pass: {:.1} s", t0.elapsed().as_secs_f64());
        Some(timed)
    } else {
        None
    };

    let t1 = Instant::now();
    let ins = Instruments::run(seed, scale)?;
    let mut traced = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        // The ledger prices the fastest sample there is: like the gated
        // host-time metrics, the reconciliation should not inherit a
        // descheduled run's wall time.
        let spawned;
        let samples: &[Sample] = match &timed {
            Some(t) => &t[i].samples,
            None => {
                spawned = ledger_samples(w, seed, scale)?;
                &spawned
            }
        };
        let sample = harness::fastest(samples);
        let t = Traced::new(w, sample, &ins, seed, scale)?;
        t.print();
        failures.extend(t.failures.iter().cloned());
        traced.push(t);
    }
    doc.push((
        "traced",
        Value::Arr(traced.iter().map(Traced::to_json).collect()),
    ));
    doc.push(("pumps", ins.pumps.to_json(ins.span_cost)));
    eprintln!("traced pass: {:.1} s", t1.elapsed().as_secs_f64());

    report_failures(&failures);
    doc.push((
        "check_failures",
        Value::Arr(failures.iter().map(Value::str).collect()),
    ));
    write_results(Value::obj(doc))?;
    Ok(failures.is_empty())
}

// ---------------------------------------------------------------------
// Mode: A/A
// ---------------------------------------------------------------------

/// Runs the whole timed pass twice on this binary and holds the two
/// against each other with the benchmark's own bounds: the check behind
/// "two sets of runs of the same code agree", and what a reviewer runs
/// before believing a claimed gain.
fn aa(seed: u64, scale: u64, rounds: usize) -> Result<bool, String> {
    let first = timed_pass(seed, scale, rounds)?;
    let second = timed_pass(seed, scale, rounds)?;
    let mut ok = true;
    println!("workload metric first second worse_by bound verdict");
    let mut rows = Vec::new();
    for (a, b) in first.iter().zip(&second) {
        report_failures(&a.failures);
        report_failures(&b.failures);
        ok &= a.failures.is_empty() && b.failures.is_empty();
        for (ra, rb) in a.e2e.iter().zip(&b.e2e) {
            // Either order may be the worse one; the larger worsening is
            // what a parent-vs-change comparison could have seen.
            let def = ra.def;
            let worse = def
                .better
                .worsening(ra.value, rb.value)
                .max(def.better.worsening(rb.value, ra.value));
            let within = worse <= def.bound;
            ok &= within;
            println!(
                "{} {} {} {} {:.4} {} {}",
                a.w.name,
                def.name,
                ra.value,
                rb.value,
                worse,
                def.bound,
                if within { "ok" } else { "OUTSIDE" }
            );
            rows.push(Value::obj([
                ("workload", Value::str(a.w.name)),
                ("metric", Value::str(def.name)),
                ("first", Value::Num(ra.value)),
                ("second", Value::Num(rb.value)),
                ("ratio", Value::Num(rb.value / ra.value)),
                ("worse_by", Value::Num(worse)),
                ("bound", Value::Num(def.bound)),
                ("within", Value::Bool(within)),
            ]));
        }
        // Simulated results, counters and the failure share are exact.
        let (sa, sb) = (&a.samples[0], &b.samples[0]);
        if sa.digest != sb.digest || sa.counters != sb.counters {
            let diff: Vec<_> = sa
                .counters
                .iter()
                .filter(|(k, v)| sb.counter(k) != **v)
                .map(|(k, _)| k.as_str())
                .collect();
            eprintln!(
                "CHECK FAILED {}: passes disagree on digest or counters {diff:?}",
                a.w.name
            );
            ok = false;
        }
    }
    let mut doc = header("aa", seed, scale);
    doc.push(("rounds", Value::Num(rounds as f64)));
    doc.push(("pairs", Value::Arr(rows)));
    doc.push((
        "first",
        Value::Arr(first.iter().map(Timed::to_json).collect()),
    ));
    doc.push((
        "second",
        Value::Arr(second.iter().map(Timed::to_json).collect()),
    ));
    write_results(Value::obj(doc))?;
    println!("aa {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a = args("--workload httpd_churn --seed 42 --seconds 15 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("httpd_churn"));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(42), Some(15.0), Some(Some(true)))
        );
        let a = args("--trace 0 --workload x").unwrap();
        assert_eq!(a.trace, Some(Some(false)));
    }

    #[test]
    fn bare_trace_is_the_traced_pass_only_flag() {
        let a = args("--seed 8 --trace --smoke").unwrap();
        assert_eq!(a.trace, Some(None));
        assert!(a.smoke && !a.aa);
        assert_eq!(args("").unwrap().trace, None);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--seed",
            "--seed x",
            "--bogus",
            "--seconds 0",
            "--seconds 61",
            "--scale 0",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
        assert!(find_workload("nope")
            .unwrap_err()
            .contains("paper_s2c_bulk"));
    }
}
