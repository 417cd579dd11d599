//! The behaviour ledger behind `cargo bench`.
//!
//! Every number this crate writes is **exact**: a trace digest, an event
//! counter, or a virtual-time metric (Mbit/s, latency percentiles,
//! fairness, recovery times) that regenerates bit for bit on any host.
//! Each bench target is a plain `fn main()` that runs its scenarios once,
//! records one [`BenchReport::record_outcome`] row per case and rewrites
//! its `BENCH_<name>.json` at the repo root in place. The files are
//! committed, and CI regenerates them and fails on
//! `git diff --exit-code -- 'BENCH_*.json'` — a golden-file gate whose
//! failure message is the diff itself.
//!
//! Host time is deliberately absent: it is measured only by the
//! standalone `benchmark/` package, whose numbers carry a noise bound.
//!
//! The JSON is written by hand: the workspace's vendored `serde` is a
//! no-op API stand-in (see `vendor/serde`), and the schema here is flat
//! enough that a formatter is all that's needed.
//!
//! # Example
//!
//! ```
//! use capnet::ScenarioSpec;
//! use capnet_bench::BenchReport;
//! use simkern::SimDuration;
//!
//! let out = ScenarioSpec::star(2)
//!     .duration(SimDuration::from_millis(2))
//!     .run()
//!     .unwrap();
//! let mut report = BenchReport::new("doc_example");
//! report.record_outcome("star", "clients=2", &out, &[("flows", 2.0)]);
//! let json = report.to_json();
//! assert!(json.contains("\"flows\": 2, \"trace_digest_hi\": "));
//! assert!(json.contains(&format!("\"events\": {}", out.events)));
//! assert!(report.path().ends_with("BENCH_doc_example.json"));
//! ```

#![forbid(unsafe_code)]

use capnet::{EventCounters, RoundCounters, SimOutcome, TraceDigest};
use simkern::engine::CalendarStats;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One recorded case: a bench name, a case label, and its metrics.
#[derive(Debug, Clone)]
struct Entry {
    bench: String,
    case: String,
    metrics: Vec<(String, f64)>,
}

/// One file of the behaviour ledger, serialized as `BENCH_<name>.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    entries: Vec<Entry>,
}

impl BenchReport {
    /// Creates an empty report named `name` (the file becomes
    /// `BENCH_<name>.json`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport {
            name: name.into(),
            entries: Vec::new(),
        }
    }

    /// Records one row: `extra` (the case's own paper-facing numbers, all
    /// exact) followed by everything a [`SimOutcome`] says about the run
    /// that produced them — the trace digest as two 32-bit halves (metrics
    /// are `f64`, which holds those exactly), the event total, the shards
    /// actually used, every per-kind counter (`ev_*`) and the event
    /// calendars' exact work (`cal_*`).
    ///
    /// `trace_bytes` is what the digest's FNV-1a chain folded, one
    /// [`TraceDigest::RECORD_BYTES`] record per delivered frame, and every
    /// frame the digest folded is one delivery the engines counted
    /// (`ev_deliveries == trace_frames`, which on a sharded run checks the
    /// merged delivery log against the per-engine counters) and executed
    /// (`events >= trace_frames`); a row that says otherwise panics before
    /// it is written.
    ///
    /// The counter structs are destructured without `..` on purpose: a
    /// field added to any of them fails to compile here until it is given
    /// a key, so no counter can miss the ledger.
    pub fn record_outcome(
        &mut self,
        bench: &str,
        case: &str,
        out: &SimOutcome,
        extra: &[(&str, f64)],
    ) {
        let TraceDigest {
            digest,
            frames,
            bytes,
        } = out.trace;
        assert_eq!(
            bytes,
            TraceDigest::RECORD_BYTES * frames,
            "{bench}/{case}: the digest chain folds one fixed-size record per delivery"
        );
        let EventCounters {
            loop_polls,
            app_visits,
            idle_polls,
            deliveries,
            switch_hops,
            timer_wakes,
            stale_wakes,
            parks,
            wakes,
        } = out.counters;
        assert_eq!(
            deliveries, frames,
            "{bench}/{case}: the digest folds each counted delivery exactly once"
        );
        assert!(
            out.events >= frames,
            "{bench}/{case}: every folded delivery is an executed event"
        );
        let RoundCounters {
            rounds,
            empty_rounds,
            xshard_frames,
            // Always 0 and going away with its last reader (see the field).
            rehome_bytes: _,
        } = out.rounds;
        let CalendarStats {
            near,
            coarse,
            overflow,
            compares,
            moved,
            cascaded,
            reaped,
            max_slot,
        } = out.calendar;
        let ledger = [
            ("trace_digest_hi", digest >> 32),
            ("trace_digest_lo", digest & 0xFFFF_FFFF),
            ("trace_frames", frames),
            ("trace_bytes", bytes),
            ("events", out.events),
            ("workers_used", out.workers as u64),
            ("ev_loop_polls", loop_polls),
            ("ev_app_visits", app_visits),
            ("ev_idle_polls", idle_polls),
            ("ev_deliveries", deliveries),
            ("ev_switch_hops", switch_hops),
            ("ev_timer_wakes", timer_wakes),
            ("ev_stale_wakes", stale_wakes),
            ("ev_parks", parks),
            ("ev_wakes", wakes),
            // Sharded-driver tallies: all zero on a single-engine run.
            ("ev_rounds", rounds),
            ("ev_empty_rounds", empty_rounds),
            ("ev_xshard_frames", xshard_frames),
            // The event calendars' exact work, summed over the engines.
            ("cal_near", near),
            ("cal_coarse", coarse),
            ("cal_overflow", overflow),
            ("cal_compares", compares),
            ("cal_moved", moved),
            ("cal_cascaded", cascaded),
            ("cal_reaped", reaped),
            ("cal_max_slot", max_slot),
        ];
        self.entries.push(Entry {
            bench: bench.to_string(),
            case: case.to_string(),
            metrics: extra
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .chain(ledger.iter().map(|&(k, v)| (k.to_string(), v as f64)))
                .collect(),
        });
    }

    /// Cases recorded so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` before the first [`BenchReport::record_outcome`].
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The destination path: `BENCH_<name>.json` in the directory that
    /// holds the workspace `Cargo.toml`, derived from this crate's
    /// compile-time location — cargo starts bench binaries in the package
    /// directory, so the working directory is never the right answer.
    pub fn path(&self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/bench sits two levels below the workspace root")
            .join(format!("BENCH_{}.json", self.name))
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"report\": {},", json_string(&self.name));
        out.push_str("  \"generated_by\": \"capnet-bench\",\n");
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"bench\": {}, \"case\": {}, \"metrics\": {{",
                json_string(&e.bench),
                json_string(&e.case)
            );
            for (j, (k, v)) in e.metrics.iter().enumerate() {
                let _ = write!(out, "{}{}: {}", sep(j), json_string(k), json_number(*v));
            }
            out.push_str("}}");
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Rewrites `BENCH_<name>.json` in place and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = self.path();
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

fn sep(i: usize) -> &'static str {
    if i == 0 {
        ""
    } else {
        ", "
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a metric as a JSON number (non-finite values become `null`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v.trunc() as i64)
        } else {
            format!("{v}")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capnet::ScenarioSpec;
    use simkern::SimDuration;

    fn short_star() -> SimOutcome {
        ScenarioSpec::star(2)
            .duration(SimDuration::from_millis(2))
            .seed(7)
            .run()
            .expect("star runs")
    }

    #[test]
    fn json_shape_is_stable() {
        let out = short_star();
        let mut r = BenchReport::new("unit");
        assert!(r.is_empty());
        r.record_outcome(
            "star",
            "clients=2",
            &out,
            &[("aggregate_mbit_per_sec", 941.5), ("flows", 2.0)],
        );
        r.record_outcome("chain", "hops=3", &out, &[]);
        assert_eq!(r.len(), 2);
        let json = r.to_json();
        assert!(json.contains("\"report\": \"unit\""));
        assert!(json.contains("\"bench\": \"star\""));
        assert!(json.contains("\"case\": \"clients=2\""));
        // The case's own numbers lead the row, the outcome follows.
        assert!(json.contains(
            "\"metrics\": {\"aggregate_mbit_per_sec\": 941.5, \"flows\": 2, \"trace_digest_hi\": "
        ));
        assert!(json.contains("\"case\": \"hops=3\", \"metrics\": {\"trace_digest_hi\": "));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn strings_and_numbers_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(3.25), "3.25");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    /// The ledger lands beside the workspace manifest whatever the working
    /// directory: the path is absolute, and cargo runs this very test from
    /// `crates/bench`, where a cwd-relative writer would have dropped it.
    #[test]
    fn path_is_the_workspace_root() {
        let path = BenchReport::new("pathtest").path();
        assert!(path.is_absolute(), "{}", path.display());
        assert_eq!(path.file_name().unwrap(), "BENCH_pathtest.json");
        let manifest = std::fs::read_to_string(path.with_file_name("Cargo.toml"))
            .expect("a Cargo.toml sits next to the ledger");
        assert!(manifest.contains("[workspace]"), "{}", path.display());
    }

    /// Two runs of the same spec render byte-identical JSON (the whole
    /// premise of gating on `git diff`), and every `EventCounters` field —
    /// named by the struct's own `Debug` output — has its `ev_` key.
    #[test]
    fn record_outcome_is_reproducible_and_complete() {
        let render = || {
            let out = short_star();
            assert!(out.trace.frames > 0, "the run produced traffic");
            let mut r = BenchReport::new("ledger");
            r.record_outcome("star", "clients=2", &out, &[("flows", 2.0)]);
            r.to_json()
        };
        let json = render();
        assert_eq!(json, render());

        let debug = format!("{:?}", EventCounters::default());
        let fields: Vec<&str> = debug
            .split([' ', '{', ','])
            .filter_map(|tok| tok.strip_suffix(':'))
            .collect();
        assert!(
            fields.len() >= 9 && fields.contains(&"app_visits"),
            "{debug}"
        );
        for field in fields {
            assert!(
                json.contains(&format!("\"ev_{field}\": ")),
                "ev_{field} missing"
            );
        }
    }
}
