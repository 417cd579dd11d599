//! Support library for the bench targets.
//!
//! [`BenchReport`] is the machine-readable side of `cargo bench`: each
//! bench target records its paper-facing summary numbers (throughput,
//! latency, fairness) and serializes them to `BENCH_<name>.json` in the
//! working directory (or `$BENCH_REPORT_DIR`). CI uploads these files as
//! workflow artifacts, so every PR carries its own point on the repo's
//! perf trajectory.
//!
//! The JSON is written by hand: the workspace's vendored `serde` is a
//! no-op API stand-in (see `vendor/serde`), and the schema here is flat
//! enough that a formatter is all that's needed.
//!
//! # Example
//!
//! ```
//! use capnet_bench::BenchReport;
//! let mut report = BenchReport::new("doc_example");
//! report.record("star", "clients=8", &[("aggregate_mbit_per_sec", 941.0)]);
//! let path = report.write().unwrap();
//! let json = std::fs::read_to_string(&path).unwrap();
//! assert!(json.contains("\"aggregate_mbit_per_sec\": 941"));
//! # std::fs::remove_file(path).unwrap();
//! ```

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::PathBuf;

/// One recorded case: a bench name, a case label, and its metrics.
#[derive(Debug, Clone)]
struct Entry {
    bench: String,
    case: String,
    metrics: Vec<(String, f64)>,
}

/// A perf-trajectory report, serialized as `BENCH_<name>.json`.
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

    /// Records `metrics` for `case` of `bench`.
    pub fn record(&mut self, bench: &str, case: &str, metrics: &[(&str, f64)]) {
        self.entries.push(Entry {
            bench: bench.to_string(),
            case: case.to_string(),
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        });
    }

    /// Records `metrics` plus the host-speed trio derived from a measured
    /// run: `host_wall_ms` (wall clock of the run), `events_per_sec`
    /// (simulation events executed per host second) and
    /// `host_ns_per_sim_sec` (host nanoseconds spent per simulated
    /// second — the number the perf trajectory tracks across PRs; smaller
    /// is faster).
    pub fn record_timed(
        &mut self,
        bench: &str,
        case: &str,
        wall: std::time::Duration,
        events: u64,
        sim_seconds: f64,
        metrics: &[(&str, f64)],
    ) {
        let wall_s = wall.as_secs_f64();
        let mut all: Vec<(String, f64)> =
            metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        all.push(("host_wall_ms".to_string(), wall_s * 1e3));
        all.push((
            "events_per_sec".to_string(),
            if wall_s > 0.0 {
                events as f64 / wall_s
            } else {
                f64::NAN
            },
        ));
        all.push((
            "host_ns_per_sim_sec".to_string(),
            if sim_seconds > 0.0 {
                wall_s * 1e9 / sim_seconds
            } else {
                f64::NAN
            },
        ));
        self.entries.push(Entry {
            bench: bench.to_string(),
            case: case.to_string(),
            metrics: all,
        });
    }

    /// Cases recorded so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` before the first [`BenchReport::record`].
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The destination path: `$BENCH_REPORT_DIR` (or the working
    /// directory) joined with `BENCH_<name>.json`.
    pub fn path(&self) -> PathBuf {
        let dir = std::env::var_os("BENCH_REPORT_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        dir.join(format!("BENCH_{}.json", self.name))
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

    /// Writes `BENCH_<name>.json` and returns its path.
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

    #[test]
    fn json_shape_is_stable() {
        let mut r = BenchReport::new("unit");
        assert!(r.is_empty());
        r.record(
            "star",
            "clients=2",
            &[("aggregate_mbit_per_sec", 941.5), ("flows", 2.0)],
        );
        r.record("chain", "hops=3", &[("mbit_per_sec", 930.0)]);
        assert_eq!(r.len(), 2);
        let json = r.to_json();
        assert!(json.contains("\"report\": \"unit\""));
        assert!(json.contains("\"bench\": \"star\""));
        assert!(json.contains("\"case\": \"clients=2\""));
        assert!(json.contains("\"aggregate_mbit_per_sec\": 941.5"));
        assert!(json.contains("\"flows\": 2"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn record_timed_derives_speed_metrics() {
        let mut r = BenchReport::new("timed");
        r.record_timed(
            "star",
            "clients=8",
            std::time::Duration::from_millis(50),
            1_000_000,
            0.025,
            &[("aggregate_mbit_per_sec", 900.0)],
        );
        let json = r.to_json();
        assert!(json.contains("\"host_wall_ms\": 50"));
        assert!(json.contains("\"events_per_sec\": 20000000"));
        // 50 ms of host time for 25 ms simulated = 2e9 ns per sim second.
        assert!(json.contains("\"host_ns_per_sim_sec\": 2000000000"));
        assert!(json.contains("\"aggregate_mbit_per_sec\": 900"));
        // Degenerate denominators serialize as null, not a crash.
        let mut r = BenchReport::new("degenerate");
        r.record_timed("b", "c", std::time::Duration::ZERO, 1, 0.0, &[]);
        assert!(r.to_json().contains("null"));
    }

    #[test]
    fn strings_and_numbers_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(3.25), "3.25");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn write_lands_in_report_dir() {
        let dir = std::env::temp_dir().join("capnet_bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Env vars are process-global; this is the only test that sets it.
        std::env::set_var("BENCH_REPORT_DIR", &dir);
        let mut r = BenchReport::new("dirtest");
        r.record("b", "c", &[("m", 1.0)]);
        let path = r.write().unwrap();
        std::env::remove_var("BENCH_REPORT_DIR");
        assert_eq!(path, dir.join("BENCH_dirtest.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"m\": 1"));
        std::fs::remove_file(path).unwrap();
    }
}
