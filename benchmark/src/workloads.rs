//! The six workloads and what one run of each yields.
//!
//! Every workload is a [`ScenarioSpec`] built only from public knobs, with
//! `--seed` feeding [`ScenarioSpec::seed`] and nothing else; sizes are fixed
//! here so a number recorded today is comparable with one recorded ten PRs
//! from now. A child process times exactly one `spec.run()` — topology
//! build, simulation and outcome assembly, what a user of the library
//! pays — and flattens the [`SimOutcome`] into named counters.

use crate::json::Value;
use capnet::scenario::{fairness_index, ScenarioKind, ScenarioSpec, TrafficMode};
use capnet::SimOutcome;
use capnet_httpd::{FleetConfig, FleetReport, HttpServerConfig};
use fstack::CcAlgo;
use simkern::SimDuration;
use std::collections::BTreeMap;
use updk::wire::Impairments;

/// What drives the traffic — it decides which outcome fields mean
/// anything and which pump shape mirrors the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop: window-limited bulk flows.
    Iperf,
    /// Open loop: Poisson fleets whose clock is virtual, so the generator
    /// is never late — arrivals it sheds are failed operations instead.
    Httpd,
}

/// One row of the workload table.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Simulated traffic window in milliseconds at full scale.
    pub sim_ms: u64,
    /// Shards asked for (`ScenarioSpec::workers`).
    pub workers: usize,
    /// Star leaves, or `None` for the paper's two-hosts-on-a-cable testbed.
    pub star_leaves: Option<usize>,
    /// One line: why the workload exists (goes into `BENCHMARK.json`).
    pub why: &'static str,
}

/// The workload table. Order is the order rounds run them in.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "paper_s2c_bulk",
        kind: Kind::Iperf,
        sim_ms: 3000,
        workers: 1,
        star_leaves: None,
        why: "Paper Table II contended row: two app cVMs through the S2 mutex, full 1448-B segments, 2 nodes. Per-byte work dominates (fstack RX/TX, cheri copies, framebuf, NIC, digest); node count does nothing.",
    },
    Workload {
        name: "star128_fanin",
        kind: Kind::Iperf,
        sim_ms: 600,
        workers: 1,
        star_leaves: Some(128),
        why: "128 leaves into one hub on one engine: node loop, 129-station switch, 128-socket demux, engine heap band (about 4x the host ns per event of the two-node row). Per-byte gains do not show here.",
    },
    Workload {
        name: "star128_fanin_w2_mux",
        kind: Kind::Iperf,
        sim_ms: 600,
        workers: 2,
        star_leaves: Some(128),
        why: "Same spec at workers(2), adaptive selection on, shards multiplexed on one thread: shard planner, windows, rendezvous rounds, cross-shard hand-off. Must reproduce star128_fanin's digest exactly.",
    },
    Workload {
        name: "httpd_keepalive",
        kind: Kind::Httpd,
        sim_ms: 600,
        workers: 1,
        star_leaves: Some(4),
        why: "Open-loop Poisson fleets, 4000 conn/s/leaf, 90% keep-alive: ~39k small requests over hundreds of open connections. Per-call ff_*/epoll/app-step cost and anything O(open connections).",
    },
    Workload {
        name: "httpd_churn",
        kind: Kind::Httpd,
        sim_ms: 1000,
        workers: 1,
        star_leaves: Some(4),
        why: "Open loop, 16000 conn/s/leaf, close per request: ~64k connect/GET/close cycles, few open at once, many in TIME_WAIT. SYN/FIN paths, socket table, ephemeral ports, 2MSL timers.",
    },
    Workload {
        name: "lossy_wan_sack",
        kind: Kind::Iperf,
        sim_ms: 5000,
        workers: 1,
        star_leaves: Some(2),
        why: "Bulk transfer off the fast path: 2% loss, Cubic, SACK. Retransmission, out-of-order reassembly, SACK scoreboard, RTO timers. A fast-path-only optimisation predicts no change here.",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The knobs a workload sets beyond its topology — shared by the
/// [`ScenarioSpec`] a sample times and the `NetSim`-builder rebuild the
/// traced pass uses to split build from run.
#[derive(Debug, Clone)]
pub struct Params {
    pub impairments: Impairments,
    pub cc: Option<CcAlgo>,
    pub sack: Option<bool>,
    /// `Some` switches the star from iperf flows to the HTTP serving plane.
    pub http: Option<(HttpServerConfig, FleetConfig)>,
}

impl Workload {
    pub fn params(&self) -> Params {
        let plain = Params {
            impairments: Impairments::default(),
            cc: None,
            sack: None,
            http: None,
        };
        let fleet = |fleet: FleetConfig| Params {
            http: Some((HttpServerConfig::default(), fleet)),
            ..plain.clone()
        };
        match self.name {
            "httpd_keepalive" => fleet(FleetConfig {
                rate_per_sec: 4000,
                keep_alive_per_mille: 900,
                requests_per_conn: 8,
                ..FleetConfig::default()
            }),
            "httpd_churn" => fleet(FleetConfig {
                rate_per_sec: 16000,
                keep_alive_per_mille: 0,
                think_ns: 0,
                ..FleetConfig::default()
            }),
            "lossy_wan_sack" => Params {
                impairments: Impairments::lossy(20),
                cc: Some(CcAlgo::Cubic),
                sack: Some(true),
                ..plain
            },
            _ => plain,
        }
    }

    /// The scenario at `1/scale` of its simulated length (`scale` 1 is the
    /// benchmark; 10 is `--smoke`).
    pub fn spec(&self, seed: u64, scale: u64) -> ScenarioSpec {
        let p = self.params();
        let mut spec = match self.star_leaves {
            None => ScenarioSpec::paper(ScenarioKind::Scenario2Contended, TrafficMode::Server),
            Some(leaves) => ScenarioSpec::star(leaves).workers(self.workers),
        }
        .impairments(p.impairments)
        .duration(self.sim_duration(scale))
        .seed(seed);
        if let Some(cc) = p.cc {
            spec = spec.congestion(cc);
        }
        if let Some(sack) = p.sack {
            spec = spec.sack(sack);
        }
        if let Some((server, fleet)) = p.http {
            spec = spec.http(server, fleet);
        }
        spec
    }

    /// For a sharded workload, the row that runs the same scenario on one
    /// engine — the reference its digest and simulated results must equal.
    pub fn single_engine_twin(&self) -> Option<&'static Workload> {
        (self.workers > 1)
            .then(|| {
                WORKLOADS.iter().find(|t| {
                    t.workers == 1
                        && t.star_leaves == self.star_leaves
                        && t.kind == self.kind
                        && t.sim_ms == self.sim_ms
                })
            })
            .flatten()
    }

    /// The simulated traffic window at `1/scale`.
    pub fn sim_duration(&self, scale: u64) -> SimDuration {
        SimDuration::from_millis(self.sim_ms / scale.max(1))
    }
}

/// One timed run of one workload, as the child prints it and the parent
/// reads it back.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub workload: String,
    pub seed: u64,
    pub scale: u64,
    /// Wall time of the one `spec.run()` call.
    pub wall_ns: u64,
    /// Process CPU time (all threads) over the same call.
    pub cpu_ns: u64,
    /// Entry of the child's `main` → entry of the timed call.
    pub setup_ns: u64,
    pub peak_rss_mib: f64,
    /// Threads alive when the timed call returned.
    pub threads: u64,
    /// Simulated nanoseconds the run was asked to cover.
    pub horizon_ns: u64,
    /// The delivery-trace digest.
    pub digest: u64,
    /// Everything deterministic, by final metric name (`sim_*`, `ops_*`,
    /// `core.*`, `updk.*`, `fstack.*`, `httpd.*`, `iperf.*` counters).
    pub counters: BTreeMap<String, f64>,
}

impl Sample {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::str(&self.workload)),
            ("seed", Value::str(self.seed.to_string())),
            ("scale", Value::Num(self.scale as f64)),
            ("wall_ns", Value::Num(self.wall_ns as f64)),
            ("cpu_ns", Value::Num(self.cpu_ns as f64)),
            ("setup_ns", Value::Num(self.setup_ns as f64)),
            ("peak_rss_mib", Value::Num(self.peak_rss_mib)),
            ("threads", Value::Num(self.threads as f64)),
            ("horizon_ns", Value::Num(self.horizon_ns as f64)),
            ("digest", Value::str(format!("{:016x}", self.digest))),
            (
                "counters",
                Value::obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v))),
                ),
            ),
        ])
    }

    /// Reads back what [`Sample::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &Value) -> Result<Sample, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("sample field {k} missing"))
        };
        let text = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("sample field {k} missing"))
        };
        let counters = v
            .get("counters")
            .and_then(Value::as_obj)
            .ok_or("sample field counters missing")?
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("counter {k} is not a number"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Sample {
            workload: text("workload")?.to_owned(),
            seed: text("seed")?.parse().map_err(|_| "seed is not a u64")?,
            scale: num("scale")? as u64,
            wall_ns: num("wall_ns")? as u64,
            cpu_ns: num("cpu_ns")? as u64,
            setup_ns: num("setup_ns")? as u64,
            peak_rss_mib: num("peak_rss_mib")?,
            threads: num("threads")? as u64,
            horizon_ns: num("horizon_ns")? as u64,
            digest: u64::from_str_radix(text("digest")?, 16).map_err(|_| "digest is not hex")?,
            counters,
        })
    }

    /// The fields that differ between samples of one workload, for results
    /// files that carry the shared counters once.
    pub fn host_fields_json(&self) -> Value {
        Value::obj([
            ("wall_ns", Value::Num(self.wall_ns as f64)),
            ("cpu_ns", Value::Num(self.cpu_ns as f64)),
            ("setup_ns", Value::Num(self.setup_ns as f64)),
            ("peak_rss_mib", Value::Num(self.peak_rss_mib)),
            ("threads", Value::Num(self.threads as f64)),
            ("digest", Value::str(format!("{:016x}", self.digest))),
        ])
    }

    /// A counter by name (0 when the workload does not produce it).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn sim_secs(&self) -> f64 {
        self.horizon_ns as f64 / 1e9
    }

    /// Host nanoseconds per simulated second.
    pub fn host_ns_per_sim_sec(&self) -> f64 {
        self.wall_ns as f64 / self.sim_secs()
    }

    /// Process CPU nanoseconds per simulated second.
    pub fn host_cpu_ns_per_sim_sec(&self) -> f64 {
        self.cpu_ns as f64 / self.sim_secs()
    }
}

/// Flattens a finished run into the deterministic counters of a
/// [`Sample`], keyed by final metric name.
pub fn counters_of(w: &Workload, out: &SimOutcome) -> BTreeMap<String, f64> {
    let mut c = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        c.insert(k.to_owned(), v);
    };
    let horizon_s = out.horizon.as_nanos() as f64 / 1e9;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // --- simulated-time results and operation counts -------------------
    let flows: Vec<f64> = out.servers.iter().map(|r| r.mbit_per_sec()).collect();
    let fleet = FleetReport::aggregate(w.name, &out.http_fleets);
    let served_bytes: u64 = out.http_servers.iter().map(|s| s.bytes_out).sum();
    let (attempted, failed) = match w.kind {
        Kind::Iperf => {
            // A flow that delivered nothing (or never produced a report)
            // failed.
            let dead = out.servers.iter().filter(|r| r.bytes == 0).count();
            let missing = out.clients.len().saturating_sub(out.servers.len());
            (out.clients.len() as u64, (dead + missing) as u64)
        }
        Kind::Httpd => {
            // A 503 is already in `non200`; counting `http503` too would
            // count it twice.
            let failed = fleet.non200
                + fleet.refused
                + fleet.resets
                + fleet.eof_early
                + fleet.addr_exhausted
                + fleet.shed
                + fleet.timeouts
                + fleet.retry_giveups;
            (fleet.requests_ok + failed, failed)
        }
    };
    put(
        "sim_goodput_mbit_per_sec",
        match w.kind {
            Kind::Iperf => flows.iter().sum(),
            // Response bytes the server's `ff_write` accepted: the useful
            // bytes an HTTP workload delivers.
            Kind::Httpd => served_bytes as f64 * 8.0 / horizon_s / 1e6,
        },
    );
    put("sim_fairness_jain", fairness_index(&flows));
    put(
        "sim_requests_per_sec",
        fleet.requests_per_sec(SimDuration::from_nanos(out.horizon.as_nanos())),
    );
    put("sim_req_p50_us", fleet.p50_us());
    put("sim_req_p999_us", fleet.p999_us());
    put("ops_attempted", attempted as f64);
    put("ops_failed", failed as f64);
    put("failed_ops_share", ratio(failed as f64, attempted as f64));
    // Conservation witness the output check reads: every parsed response
    // is either a 200 or a non-200.
    put("httpd.latency_samples", fleet.latencies_ns.len() as f64);
    put("httpd.requests_ok", fleet.requests_ok as f64);
    put("httpd.non200", fleet.non200 as f64);

    // --- core ----------------------------------------------------------
    let ev = out.counters;
    put("core.events", out.events as f64);
    put(
        "core.events_per_frame",
        ratio(out.events as f64, out.trace.frames as f64),
    );
    put(
        "core.idle_poll_share",
        ratio(ev.idle_polls as f64, ev.loop_polls as f64),
    );
    put("core.loop_polls", ev.loop_polls as f64);
    put("core.deliveries", ev.deliveries as f64);
    put("core.switch_hops", ev.switch_hops as f64);
    put("core.parks", ev.parks as f64);
    put("core.timer_wakes", ev.timer_wakes as f64);
    put("core.stale_wakes", ev.stale_wakes as f64);
    put("core.trace_frames", out.trace.frames as f64);
    put("core.trace_bytes", out.trace.bytes as f64);
    put("core.digest_hi", (out.trace.digest >> 32) as f64);
    put("core.digest_lo", (out.trace.digest & 0xFFFF_FFFF) as f64);
    put("core.workers_used", out.workers as f64);
    put("core.shard_rounds", out.rounds.rounds as f64);
    // `empty_rounds` is summed over shards while `rounds` is lockstep, so
    // the share divides by rounds × shards.
    put(
        "core.shard_empty_round_share",
        ratio(
            out.rounds.empty_rounds as f64,
            out.rounds.rounds as f64 * out.workers as f64,
        ),
    );
    put("core.xshard_frames", out.rounds.xshard_frames as f64);
    put("core.rehome_bytes", out.rounds.rehome_bytes as f64);

    // --- updk ----------------------------------------------------------
    let sw = |f: fn(&updk::switch::SwitchStats) -> u64| {
        out.switch_stats.iter().map(f).sum::<u64>() as f64
    };
    put("updk.switch_forwarded", sw(|s| s.forwarded));
    put("updk.switch_flooded", sw(|s| s.flooded));
    put("updk.switch_dropped", sw(|s| s.dropped));
    put("updk.wire_delivered", out.impairment_stats.delivered as f64);
    put("updk.wire_lost", out.impairment_stats.lost as f64);
    put(
        "updk.rx_imissed",
        out.port_stats
            .iter()
            .map(|(_, p)| p.hw.imissed)
            .sum::<u64>() as f64,
    );
    put(
        "updk.mbuf_alloc_failures",
        out.port_stats
            .iter()
            .map(|(_, p)| p.alloc_failures)
            .sum::<u64>() as f64,
    );

    // --- fstack --------------------------------------------------------
    let st = |f: fn(&fstack::StackStats) -> u64| {
        out.stack_stats.iter().map(|(_, s)| f(s)).sum::<u64>() as f64
    };
    put("fstack.frames_in", st(|s| s.frames_in));
    put("fstack.frames_out", st(|s| s.frames_out));
    put("fstack.drops", st(|s| s.drops));
    put("fstack.parse_drops", st(fstack::StackStats::parse_drops));
    put("fstack.rsts_out", st(|s| s.rsts_out));
    put("fstack.listen_drops", st(|s| s.listen_drops));
    put("fstack.conn_timeouts", st(|s| s.conn_timeouts));
    let (acq, contended, _) = out.mutex_stats.unwrap_or_default();
    put("fstack.s2_mutex_acquisitions", acq as f64);
    put(
        "fstack.s2_mutex_contention_share",
        ratio(contended as f64, acq as f64),
    );

    // --- apps ----------------------------------------------------------
    put(
        "httpd.accepted",
        out.http_servers.iter().map(|s| s.accepted).sum::<u64>() as f64,
    );
    put(
        "httpd.requests",
        out.http_servers.iter().map(|s| s.requests).sum::<u64>() as f64,
    );
    // The server's own count of 200s, for the output check that holds it
    // against the clients'.
    put(
        "httpd.server_ok",
        out.http_servers.iter().map(|s| s.ok).sum::<u64>() as f64,
    );
    put("httpd.conns_started", fleet.conns_started as f64);
    put("httpd.shed", (fleet.shed + fleet.addr_exhausted) as f64);
    put("iperf.flows", out.clients.len() as f64);
    put(
        "iperf.min_flow_mbit_per_sec",
        if flows.is_empty() {
            0.0
        } else {
            crate::stats::min(&flows)
        },
    );
    put(
        "iperf.payload_bytes",
        out.servers.iter().map(|r| r.bytes).sum::<u64>() as f64,
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_well_formed() {
        for w in &WORKLOADS {
            assert!(crate::metrics::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(find(w.name).is_some());
            // Every spec builds (the match above knows every table row).
            let _ = w.spec(7, 10);
        }
        assert!(find("nope").is_none());
        assert_eq!(
            find("star128_fanin_w2_mux")
                .unwrap()
                .single_engine_twin()
                .map(|w| w.name),
            Some("star128_fanin")
        );
        assert!(find("star128_fanin")
            .unwrap()
            .single_engine_twin()
            .is_none());
        assert!(
            WORKLOADS
                .iter()
                .all(|w| w.workers == 1 || w.single_engine_twin().is_some()),
            "every sharded row has a reference"
        );
        let mut names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len(), "names are unique");
    }

    #[test]
    fn sample_round_trips_through_json() {
        let s = Sample {
            workload: "httpd_churn".into(),
            seed: u64::MAX,
            scale: 10,
            wall_ns: 1_234_567_891,
            cpu_ns: 1_200_000_003,
            setup_ns: 1_501_220,
            peak_rss_mib: 68.371_093_75,
            threads: 1,
            horizon_ns: 1_030_000_000,
            digest: 0xd116_2183_d066_7e7a,
            counters: [
                ("core.events".to_owned(), 1_827_726.0),
                ("sim_req_p50_us".to_owned(), 14.02),
            ]
            .into_iter()
            .collect(),
        };
        let line = s.to_json().to_line();
        let back = Sample::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, s);
        assert!((s.host_ns_per_sim_sec() - 1_234_567_891.0 / 1.03).abs() < 1e-3);
        assert_eq!(s.counter("absent"), 0.0);
    }

    /// A tiny star exercises `counters_of` end to end: the names the
    /// ledger reads are all there and conservation holds.
    #[test]
    fn counters_cover_a_small_run() {
        let w = find("httpd_churn").unwrap();
        let out = ScenarioSpec::star(2)
            .duration(SimDuration::from_millis(20))
            .seed(3)
            .http(
                HttpServerConfig::default(),
                FleetConfig {
                    rate_per_sec: 2000,
                    keep_alive_per_mille: 0,
                    think_ns: 0,
                    ..FleetConfig::default()
                },
            )
            .run()
            .unwrap();
        let c = counters_of(w, &out);
        assert!(c["core.events"] > 0.0 && c["sim_goodput_mbit_per_sec"] > 0.0);
        assert_eq!(
            c["httpd.latency_samples"],
            c["httpd.requests_ok"] + c["httpd.non200"]
        );
        assert_eq!(c["ops_failed"], 0.0);
        assert!(c["ops_attempted"] >= 1.0);
    }
}
