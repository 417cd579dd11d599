//! The metric registry: every name the benchmark prints, with its unit,
//! which direction is better and — for end-to-end metrics — the bound by
//! which it may worsen. `BENCHMARK.json` at the repo root is this table
//! serialised ([`contract_json`]); a test keeps the two identical.

use crate::json::Value;
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative when it improved).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return if new == base { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// A metric every workload reports and a later change is gated on.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which it may worsen.
    pub bound: f64,
}

/// A metric of a single layer: reported, never gated.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// The gated metrics. Every workload produces every one of them and none
/// is ever zero, which is why `failed_ops_share` (zero on a healthy run)
/// and the metrics that exist only for iperf or only for httpd rows are
/// reported through [`PER_LAYER`] and the result line's `attempted` /
/// `failed` instead.
///
/// `host_ns_per_sim_sec` and `setup_s` are the minimum over a run's
/// samples, `peak_rss_mib` the median. One bound covers all six workloads
/// and the acceptance check computes its spreads across ten different
/// seeds, so each bound is sized by the noisiest row of the README's noise
/// study: on the shared 2-vCPU recording host the best-of-N host times of
/// ten runs spread by 2-7 % in a quiet quarter of an hour and by up to
/// 22 % in a noisy one, while `peak_rss_mib` (7 %) and the simulated
/// goodput (up to 5 % on the lossy row) spread because the seed changes
/// the traffic.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "host_ns_per_sim_sec",
        unit: "ns/s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_goodput_mbit_per_sec",
        unit: "Mbit/s",
        better: Higher,
        bound: 0.15,
    },
];

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer ledger (layer = crate, `<layer>.<name>`), preceded by the
/// simulated-time and failure metrics that apply to some workloads only.
/// Counters repeat exactly from run to run; `_ns` values are host time
/// from the traced pass. A metric a workload does not produce reads 0.
pub const PER_LAYER: [PerLayer; 90] = [
    // Simulated-time results that exist for one workload family, and the
    // failure share (end-to-end in meaning; here because they can be 0).
    pl("sim_fairness_jain", "ratio", Higher),
    pl("sim_requests_per_sec", "1/s", Higher),
    pl("sim_req_p50_us", "us", Lower),
    pl("sim_req_p999_us", "us", Lower),
    pl("ops_attempted", "count", Higher),
    pl("ops_failed", "count", Lower),
    pl("failed_ops_share", "ratio", Lower),
    // Process CPU time over the timed call. Every sample runs on one
    // thread, where it is a second copy of the wall time, so it is not
    // gated; it separates "slower" from "descheduled" when reading a run.
    pl("host_cpu_ns_per_sim_sec", "ns/s", Lower),
    // core: the discrete-event driver.
    pl("core.events", "count", Lower),
    pl("core.events_per_frame", "ratio", Lower),
    pl("core.idle_poll_share", "ratio", Lower),
    pl("core.parks", "count", Lower),
    pl("core.timer_wakes", "count", Lower),
    pl("core.stale_wakes", "count", Lower),
    pl("core.trace_frames", "count", Higher),
    pl("core.trace_bytes", "bytes", Higher),
    pl("core.digest_hi", "id", Lower),
    pl("core.digest_lo", "id", Lower),
    pl("core.host_ns_per_event", "ns/event", Lower),
    pl("core.host_ns_per_frame", "ns/frame", Lower),
    pl("core.workers_used", "count", Higher),
    pl("core.shard_rounds", "count", Lower),
    pl("core.shard_empty_round_share", "ratio", Lower),
    pl("core.xshard_frames", "count", Lower),
    pl("core.rehome_bytes", "bytes", Lower),
    pl("core.build_ms", "ms", Lower),
    pl("core.run_ms", "ms", Lower),
    pl("core.threaded_run_ms", "ms", Lower),
    pl("core.threaded_cpu_ms", "ms", Lower),
    pl("core.digest_ns_per_byte", "ns/byte", Lower),
    pl("core.unattributed_share", "ratio", Lower),
    // simkern: the event calendar.
    pl("simkern.wheel_ns_per_event", "ns/event", Lower),
    pl("simkern.heap_ns_per_event", "ns/event", Lower),
    // updk: NIC, wire, switch, frame storage.
    pl("updk.switch_forwarded", "count", Higher),
    pl("updk.switch_flooded", "count", Lower),
    pl("updk.switch_dropped", "count", Lower),
    pl("updk.wire_delivered", "count", Higher),
    pl("updk.wire_lost", "count", Lower),
    pl("updk.rx_imissed", "count", Lower),
    pl("updk.mbuf_alloc_failures", "count", Lower),
    pl("updk.framebuf_fresh", "count", Lower),
    pl("updk.framebuf_reuse_share", "ratio", Higher),
    pl("updk.tx_burst_ns", "ns/frame", Lower),
    pl("updk.deliver_ns", "ns/frame", Lower),
    pl("updk.rx_burst_ns", "ns/frame", Lower),
    pl("updk.free_mbuf_ns", "ns/frame", Lower),
    pl("updk.framebuf_cycle_ns", "ns/op", Lower),
    pl("updk.switch_ingress_ns_n129", "ns/frame", Lower),
    // fstack: TCP/IP and the ff_* API.
    pl("fstack.frames_in", "count", Higher),
    pl("fstack.frames_out", "count", Higher),
    pl("fstack.drops", "count", Lower),
    pl("fstack.parse_drops", "count", Lower),
    pl("fstack.rsts_out", "count", Lower),
    pl("fstack.listen_drops", "count", Lower),
    pl("fstack.conn_timeouts", "count", Lower),
    pl("fstack.s2_mutex_acquisitions", "count", Lower),
    pl("fstack.s2_mutex_contention_share", "ratio", Lower),
    pl("fstack.input_buf_ns", "ns/frame", Lower),
    pl("fstack.poll_tx_ns", "ns/frame", Lower),
    pl("fstack.ff_write_ns", "ns/call", Lower),
    pl("fstack.ff_read_ns", "ns/call", Lower),
    pl("fstack.connect_close_ns", "ns/conn", Lower),
    pl("fstack.epoll_wait_ns_n8", "ns/call", Lower),
    pl("fstack.epoll_wait_ns_n512", "ns/call", Lower),
    pl("fstack.checksum_ns_1448", "ns/op", Lower),
    pl("fstack.seg_build_ns", "ns/op", Lower),
    pl("fstack.seg_parse_ns", "ns/op", Lower),
    // cheri: the capability machine under every copy.
    pl("cheri.check_access_ns", "ns/op", Lower),
    pl("cheri.write_ns_1448", "ns/op", Lower),
    pl("cheri.read_ns_1448", "ns/op", Lower),
    pl("cheri.view_ns", "ns/op", Lower),
    // httpd and iperf: the applications.
    pl("httpd.accepted", "count", Higher),
    pl("httpd.requests", "count", Higher),
    pl("httpd.conns_started", "count", Higher),
    pl("httpd.shed", "count", Lower),
    pl("httpd.server_step_ns_n8", "ns/call", Lower),
    pl("httpd.server_step_ns_n512", "ns/call", Lower),
    pl("httpd.parse_request_ns", "ns/op", Lower),
    pl("iperf.flows", "count", Higher),
    pl("iperf.min_flow_mbit_per_sec", "Mbit/s", Higher),
    // Off every workload's hot path (NetSim charges crossings as virtual
    // nanoseconds and never executes them): baselines for the issue that
    // puts them on a path.
    pl("intravisor.xcall_ns", "ns/op", Lower),
    pl("intravisor.trampoline_ns", "ns/op", Lower),
    pl("mavsim.cheri_parse_ns_per_frame", "ns/frame", Lower),
    pl("mavsim.flat_parse_ns_per_frame", "ns/frame", Lower),
    // pump: the benchmark's own two-host loop and what tracing it costs.
    pl("pump.span_overhead_ns", "ns/op", Lower),
    pl("pump.trace_overhead_share", "ratio", Lower),
    pl("pump.bulk_ns_per_frame", "ns/frame", Lower),
    pl("pump.lossy_ns_per_frame", "ns/frame", Lower),
    pl("pump.keepalive_ns_per_request", "ns/op", Lower),
    pl("pump.churn_ns_per_conn", "ns/conn", Lower),
];

/// How long one acceptance run measures, in seconds.
pub const RUN_SECONDS: u64 = 20;

/// Contract limits on names and list sizes.
pub const MAX_NAME: usize = 64;
pub const MAX_UNIT: usize = 16;
pub const MAX_WORKLOADS: usize = 8;
pub const MAX_END_TO_END: usize = 16;
pub const MAX_PER_LAYER: usize = 128;
pub const MAX_BOUND: f64 = 0.25;

/// A metric or workload name: starts with a letter or digit, then at most
/// 63 more of `[A-Za-z0-9_.-]`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= MAX_NAME
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= MAX_UNIT
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the whole registry against the contract's limits.
///
/// # Errors
///
/// Every violation found, one per line.
pub fn validate_registry() -> Result<(), String> {
    let mut bad = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut check = |kind: &str, name: &str, unit: Option<&str>| -> Vec<String> {
        let mut found = Vec::new();
        if !valid_name(name) {
            found.push(format!(
                "{kind} name {name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
        if unit.is_some_and(|u| !valid_unit(u)) {
            found.push(format!("{kind} {name}: unit {unit:?} is not valid"));
        }
        if !seen.insert(name.to_owned()) {
            found.push(format!("name {name} is used twice"));
        }
        found
    };
    for w in &WORKLOADS {
        bad.extend(check("workload", w.name, None));
        if w.why.len() > 200 || w.why.contains('\n') {
            bad.push(format!(
                "workload {}: why must be one line of <= 200 chars",
                w.name
            ));
        }
    }
    for m in &END_TO_END {
        bad.extend(check("end_to_end", m.name, Some(m.unit)));
        if !(m.bound > 0.0 && m.bound <= MAX_BOUND) {
            bad.push(format!(
                "end_to_end {}: bound {} not in (0, {MAX_BOUND}]",
                m.name, m.bound
            ));
        }
    }
    for m in &PER_LAYER {
        bad.extend(check("per_layer", m.name, Some(m.unit)));
    }
    if !(2..=MAX_WORKLOADS).contains(&WORKLOADS.len()) {
        bad.push(format!(
            "{} workloads, need 2..={MAX_WORKLOADS}",
            WORKLOADS.len()
        ));
    }
    if !(1..=MAX_END_TO_END).contains(&END_TO_END.len()) {
        bad.push(format!(
            "{} end_to_end metrics, need 1..={MAX_END_TO_END}",
            END_TO_END.len()
        ));
    }
    if !(1..=MAX_PER_LAYER).contains(&PER_LAYER.len()) {
        bad.push(format!(
            "{} per_layer metrics, need 1..={MAX_PER_LAYER}",
            PER_LAYER.len()
        ));
    }
    if !END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower)
    {
        bad.push("end_to_end must contain setup_s (s, lower)".to_owned());
    }
    if !(1..=60).contains(&RUN_SECONDS) {
        bad.push(format!("run_seconds {RUN_SECONDS} not in 1..=60"));
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}

/// `BENCHMARK.json`, from the registry.
pub fn contract_json() -> Value {
    let strs = |xs: &[&str]| Value::Arr(xs.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                // The build flags that take link layout out of the numbers.
                "--config",
                "benchmark/.cargo/config.toml",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_meets_the_contract_limits() {
        validate_registry().unwrap();
    }

    #[test]
    fn name_and_unit_validation() {
        for ok in [
            "a",
            "9lives",
            "core.host_ns_per_event",
            "a-b_c.d",
            &"x".repeat(64),
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_a", ".a", "-a", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "ns/frame", "%", "Mbit/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Lower.worsening(100.0, 90.0) < 0.0);
        assert_eq!(Lower.worsening(0.0, 0.0), 0.0);
        assert!(Lower.worsening(0.0, 1.0).is_infinite());
    }

    /// The file at the repo root is the registry, byte for byte in content:
    /// every name in `BENCHMARK.json` is one the program prints and every
    /// name the program prints is in `BENCHMARK.json`.
    #[test]
    fn benchmark_json_is_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024, "contract file is at most 64 KiB");
        let file = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(file, contract_json(), "regenerate with `--contract`");
        let keys: Vec<&str> = file
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
