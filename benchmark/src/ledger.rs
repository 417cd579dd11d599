//! The traced pass: everything behind the per-layer metrics.
//!
//! Four sources, kept apart from the timed pass whose numbers are taken
//! with tracing off:
//!
//! 1. the deterministic counters of one sample of the workload;
//! 2. the layer pump ([`crate::pump`]) — self time per call into a layer,
//!    run once with spans and once without;
//! 3. the layer probes ([`crate::probes`]);
//! 4. for star workloads, the same scenario rebuilt through the public
//!    `NetSim` builder, which splits topology build from simulation.
//!
//! [`reconcile`] then prices the sample's counters with (2) and (3) and
//! reports what is left of the measured wall time as
//! `core.unattributed_share`. Span prices are untraced prices: net of the
//! span's own timer calls and scaled so that all of a shape's self times
//! add up to its untraced run ([`ShapePair::detrace`]).

use crate::json::Value;
use crate::pump::{self, Shape, ShapeRun};
use crate::trace::Name;
use crate::workloads::{Kind, Sample, Workload};
use capnet::netsim::{NetSim, NodeConfig};
use capnet::topology::build_star;
use capnet_httpd::{FleetConfig, HTTPD_PORT};
use simkern::{CostModel, SimDuration};
use std::collections::BTreeMap;
use std::time::Instant;

/// First iperf service port on a star — `ScenarioSpec`'s private
/// `STAR_PORT`; the digest comparison in [`rebuild_star`] is what keeps
/// this copy honest.
const STAR_PORT: u16 = 5301;
/// Slack `ScenarioSpec` adds to the traffic window for handshakes and
/// FIN drains.
const RUN_SLACK: SimDuration = SimDuration::from_millis(30);

/// Build and run wall time of a star workload, split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildRun {
    pub build_ns: u64,
    pub run_ns: u64,
    pub digest: u64,
}

impl BuildRun {
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("build_ns", Value::Num(self.build_ns as f64)),
            ("run_ns", Value::Num(self.run_ns as f64)),
            ("digest", Value::str(format!("{:016x}", self.digest))),
        ])
    }

    /// Reads back what [`BuildRun::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    pub fn from_json(v: &Value) -> Result<BuildRun, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("rebuild field {k} missing"))
        };
        let digest = v
            .get("digest")
            .and_then(Value::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("rebuild field digest missing")?;
        Ok(BuildRun {
            build_ns: num("build_ns")? as u64,
            run_ns: num("run_ns")? as u64,
            digest,
        })
    }
}

/// Rebuilds a star workload call by call through `NetSim`'s public
/// builder, in `ScenarioSpec::run_star`'s order, timing topology + app
/// installation apart from `NetSim::run`.
///
/// # Errors
///
/// Configuration or datapath failures, as text.
pub fn rebuild_star(w: &Workload, seed: u64, scale: u64) -> Result<BuildRun, String> {
    let leaves = w.star_leaves.ok_or("not a star workload")?;
    let p = w.params();
    let duration = w.sim_duration(scale);
    let err = |e: capnet::CapnetError| e.to_string();

    let t0 = Instant::now();
    let mut sim = NetSim::new(CostModel::morello());
    sim.set_seed(seed);
    sim.set_impairments(p.impairments);
    sim.set_workers(w.workers);
    sim.set_adaptive_workers(true);
    // Samples run with CAPNET_SHARD_THREADS=0; this is the same choice
    // made through the builder.
    sim.set_worker_threads(Some(false));
    let star = build_star(&mut sim, leaves).map_err(err)?;
    let node_cfg = NodeConfig {
        cc: p.cc,
        sack: p.sack,
    };
    sim.configure_node(star.hub, node_cfg);
    for &leaf in &star.leaves {
        sim.configure_node(leaf, node_cfg);
    }
    match &p.http {
        None => {
            for (i, &leaf) in star.leaves.iter().enumerate() {
                let port = STAR_PORT + i as u16;
                sim.add_server(star.hub, format!("hub-rx{i}"), port)
                    .map_err(err)?;
                sim.add_client(
                    leaf,
                    format!("leaf-tx{i}"),
                    (star.hub_ip, port),
                    duration,
                    SimDuration::ZERO,
                )
                .map_err(err)?;
            }
        }
        Some((server, fleet)) => {
            sim.add_http_server(star.hub, "hub-httpd", HTTPD_PORT, server.clone())
                .map_err(err)?;
            for (i, &leaf) in star.leaves.iter().enumerate() {
                let cfg = FleetConfig {
                    target: (star.hub_ip, HTTPD_PORT),
                    open_for: duration,
                    ..fleet.clone()
                };
                sim.add_http_fleet(leaf, format!("leaf-fleet{i}"), cfg)
                    .map_err(err)?;
            }
        }
    }
    let build_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let out = sim.run(duration + RUN_SLACK).map_err(err)?;
    Ok(BuildRun {
        build_ns,
        run_ns: t1.elapsed().as_nanos() as u64,
        digest: out.trace.digest,
    })
}

/// One pump shape, run with spans and without.
#[derive(Debug, Clone)]
pub struct ShapePair {
    pub traced: ShapeRun,
    pub untraced: ShapeRun,
}

impl ShapePair {
    fn run(shape: Shape, seed: u64, scale: u64) -> Result<ShapePair, String> {
        // Untraced first: the traced run then meets the same warm
        // allocator and frame pool.
        let untraced = pump::run(shape, seed, scale, false)?;
        let traced = pump::run(shape, seed, scale, true)?;
        if traced.spans_dropped > 0 {
            return Err(format!(
                "{}: {} spans did not fit the buffer",
                shape.label(),
                traced.spans_dropped
            ));
        }
        if (traced.frames, traced.ops) != (untraced.frames, untraced.ops) {
            return Err(format!(
                "{}: tracing changed the run ({} frames / {} ops traced, {} / {} untraced)",
                shape.label(),
                traced.frames,
                traced.ops,
                untraced.frames,
                untraced.ops
            ));
        }
        Ok(ShapePair { traced, untraced })
    }

    /// Share of the traced run's wall time that tracing added.
    fn overhead_share(&self) -> f64 {
        let (t, u) = (self.traced.wall_ns as f64, self.untraced.wall_ns as f64);
        ((t - u) / t).max(0.0)
    }

    /// What a traced self time, net of its span's timer calls, is
    /// multiplied by to become untraced time. With every span's whole cost
    /// taken off, the traced loop still runs longer than the untraced one
    /// (a cold span buffer, evicted lines); charging that to every name in
    /// proportion makes the self times of all names add up to the untraced
    /// wall time, so a price taken here does not bill tracing to a layer.
    fn detrace(&self, cost: SpanCost) -> f64 {
        let net = self.traced.wall_ns as f64 - cost.full_ns * self.traced.spans as f64;
        (self.untraced.wall_ns as f64 / net).clamp(0.0, 1.0)
    }

    /// Untraced self time of `name`: what [`detrace`](Self::detrace) makes
    /// of the traced self time less the timer cost inside its spans.
    fn self_ns(&self, name: Name, cost: SpanCost) -> f64 {
        let t = self.traced.total(name);
        (t.self_ns as f64 - cost.inner_ns * t.calls as f64).max(0.0) * self.detrace(cost)
    }

    fn per_frame(&self, name: Name, cost: SpanCost) -> f64 {
        self.self_ns(name, cost) / self.traced.frames.max(1) as f64
    }

    fn per_call(&self, name: Name, cost: SpanCost) -> f64 {
        self.self_ns(name, cost) / self.traced.total(name).calls.max(1) as f64
    }
}

/// All five shapes.
#[derive(Debug, Clone)]
pub struct Pumps {
    pub bulk: ShapePair,
    pub lossy: ShapePair,
    pub keepalive_n8: ShapePair,
    pub keepalive_n512: ShapePair,
    pub churn: ShapePair,
}

impl Pumps {
    /// Runs every shape at `1/scale`.
    ///
    /// # Errors
    ///
    /// The first shape whose run or output check failed.
    pub fn run(seed: u64, scale: u64) -> Result<Pumps, String> {
        Ok(Pumps {
            bulk: ShapePair::run(Shape::Bulk, seed, scale)?,
            lossy: ShapePair::run(Shape::Lossy, seed, scale)?,
            keepalive_n8: ShapePair::run(Shape::KeepAlive(8), seed, scale)?,
            keepalive_n512: ShapePair::run(Shape::KeepAlive(512), seed, scale)?,
            churn: ShapePair::run(Shape::Churn, seed, scale)?,
        })
    }

    fn all(&self) -> [&ShapePair; 5] {
        [
            &self.bulk,
            &self.lossy,
            &self.keepalive_n8,
            &self.keepalive_n512,
            &self.churn,
        ]
    }

    /// The shape whose traffic looks like `w`'s.
    pub fn mirror(&self, w: &Workload) -> &ShapePair {
        match (w.name, w.kind) {
            ("lossy_wan_sack", _) => &self.lossy,
            ("httpd_churn", _) => &self.churn,
            (_, Kind::Httpd) => &self.keepalive_n512,
            (_, Kind::Iperf) => &self.bulk,
        }
    }

    /// Per-shape self time per span name, for `results.json`.
    pub fn to_json(&self, cost: SpanCost) -> Value {
        Value::Arr(
            self.all()
                .iter()
                .map(|pair| {
                    let r = &pair.traced;
                    Value::obj([
                        ("shape", Value::str(r.shape.label())),
                        ("traced_wall_ns", Value::Num(r.wall_ns as f64)),
                        ("untraced_wall_ns", Value::Num(pair.untraced.wall_ns as f64)),
                        ("trace_overhead_share", Value::Num(pair.overhead_share())),
                        ("untraced_price_factor", Value::Num(pair.detrace(cost))),
                        ("sim_ns", Value::Num(r.sim_ns as f64)),
                        ("frames", Value::Num(r.frames as f64)),
                        ("frames_lost", Value::Num(r.lost as f64)),
                        ("ops", Value::Num(r.ops as f64)),
                        ("spans", Value::Num(r.spans as f64)),
                        ("spans_head", r.span_head.clone()),
                        (
                            "self_time",
                            Value::Arr(
                                Name::ALL
                                    .iter()
                                    .map(|&n| {
                                        let t = r.total(n);
                                        Value::obj([
                                            ("name", Value::str(n.label())),
                                            ("calls", Value::Num(t.calls as f64)),
                                            ("self_ns", Value::Num(t.self_ns as f64)),
                                            ("total_ns", Value::Num(t.total_ns as f64)),
                                            (
                                                "share_of_wall",
                                                Value::Num(
                                                    t.self_ns as f64 / r.wall_ns.max(1) as f64,
                                                ),
                                            ),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// What one empty span costs, from the fastest of five batches.
#[derive(Debug, Clone, Copy)]
pub struct SpanCost {
    /// The part *inside* the span (between its start and end stamps) —
    /// taken off every per-call figure so that a 20 ns call does not read
    /// as 45.
    pub inner_ns: f64,
    /// Enter + exit as the caller pays them (`pump.span_overhead_ns`).
    pub full_ns: f64,
}

impl SpanCost {
    pub fn measure() -> SpanCost {
        let n = 100_000;
        (0..5)
            .map(|_| {
                let mut tr = crate::trace::Tracer::new(true, n);
                let t0 = Instant::now();
                for i in 0..n {
                    let s = tr.enter(Name::Turn, i as u32);
                    tr.exit(s);
                }
                let full_ns = t0.elapsed().as_nanos() as f64 / n as f64;
                let t = tr.totals()[Name::Turn as usize];
                SpanCost {
                    inner_ns: t.total_ns as f64 / t.calls as f64,
                    full_ns,
                }
            })
            .min_by(|a, b| a.full_ns.total_cmp(&b.full_ns))
            .expect("five batches")
    }
}

/// The pump-derived per-layer metrics of workload `w`: datapath spans from
/// the shape that mirrors it, size-specific ones from their own shapes.
pub fn pump_metrics(w: &Workload, pumps: &Pumps, cost: SpanCost) -> BTreeMap<&'static str, f64> {
    let m = pumps.mirror(w);
    let mut out = BTreeMap::new();
    out.insert("updk.rx_burst_ns", m.per_frame(Name::RxBurst, cost));
    out.insert("fstack.input_buf_ns", m.per_frame(Name::InputBuf, cost));
    out.insert("updk.free_mbuf_ns", m.per_frame(Name::FreeMbuf, cost));
    out.insert("fstack.poll_tx_ns", m.per_frame(Name::PollTx, cost));
    out.insert("updk.tx_burst_ns", m.per_frame(Name::TxBurst, cost));
    out.insert("updk.deliver_ns", m.per_frame(Name::Deliver, cost));
    out.insert("fstack.ff_write_ns", m.per_call(Name::FfWrite, cost));
    out.insert("fstack.ff_read_ns", m.per_call(Name::FfRead, cost));
    let churn = &pumps.churn;
    out.insert(
        "fstack.connect_close_ns",
        (churn.self_ns(Name::Connect, cost) + churn.self_ns(Name::Close, cost))
            / churn.traced.ops.max(1) as f64,
    );
    let (n8, n512) = (&pumps.keepalive_n8, &pumps.keepalive_n512);
    out.insert(
        "fstack.epoll_wait_ns_n8",
        n8.traced.epoll_wait_ns.unwrap_or(0.0),
    );
    out.insert(
        "fstack.epoll_wait_ns_n512",
        n512.traced.epoll_wait_ns.unwrap_or(0.0),
    );
    out.insert(
        "httpd.server_step_ns_n8",
        n8.per_call(Name::ServerStep, cost),
    );
    out.insert(
        "httpd.server_step_ns_n512",
        n512.per_call(Name::ServerStep, cost),
    );
    out.insert("pump.span_overhead_ns", cost.full_ns);
    out.insert("pump.trace_overhead_share", m.overhead_share());
    // Whole-loop cost per unit with tracing off: what the datapath costs
    // with no node loop, engine or digest around it.
    let per = |pair: &ShapePair, unit: u64| pair.untraced.wall_ns as f64 / unit.max(1) as f64;
    out.insert(
        "pump.bulk_ns_per_frame",
        per(&pumps.bulk, pumps.bulk.untraced.frames),
    );
    out.insert(
        "pump.lossy_ns_per_frame",
        per(&pumps.lossy, pumps.lossy.untraced.frames),
    );
    out.insert(
        "pump.keepalive_ns_per_request",
        per(&pumps.keepalive_n512, pumps.keepalive_n512.untraced.ops),
    );
    out.insert(
        "pump.churn_ns_per_conn",
        per(&pumps.churn, pumps.churn.untraced.ops),
    );
    out
}

/// One row of the reconciliation: a layer, the count it was charged for
/// and the price per unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Charge {
    pub layer: &'static str,
    pub count: f64,
    pub ns_per_unit: f64,
}

impl Charge {
    pub fn ns(&self) -> f64 {
        self.count * self.ns_per_unit
    }
}

/// Prices the sample's counters with pump and probe costs. What the
/// charges do not cover of the sample's wall time is the node-loop cost no
/// outside measurement reaches. `switch_ns` is one switch ingress at the
/// workload's own station count.
pub fn reconcile(
    w: &Workload,
    sample: &Sample,
    layer: &BTreeMap<&'static str, f64>,
    pumps: &Pumps,
    cost: SpanCost,
    switch_ns: f64,
) -> (Vec<Charge>, f64) {
    let c = |name: &str| sample.counter(name);
    let l = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let m = pumps.mirror(w);
    // Application work per operation, from the mirror shape: payload
    // bytes for bulk, requests (or connections) for httpd.
    let app_self = [
        Name::FfWrite,
        Name::FfRead,
        Name::ServerStep,
        Name::Connect,
        Name::Close,
    ]
    .iter()
    .map(|&n| m.self_ns(n, cost))
    .sum::<f64>();
    let app_count = match w.kind {
        Kind::Iperf => c("iperf.payload_bytes"),
        Kind::Httpd => c("httpd.requests"),
    };
    let charges = vec![
        Charge {
            layer: "simkern (event calendar)",
            count: c("core.events"),
            ns_per_unit: l("simkern.wheel_ns_per_event"),
        },
        Charge {
            layer: "updk (NIC deliver)",
            count: c("core.deliveries"),
            ns_per_unit: l("updk.deliver_ns"),
        },
        Charge {
            layer: "updk (switch ingress)",
            count: c("core.switch_hops"),
            ns_per_unit: switch_ns,
        },
        Charge {
            layer: "updk (rx burst + mbuf free)",
            count: c("fstack.frames_in"),
            ns_per_unit: l("updk.rx_burst_ns") + l("updk.free_mbuf_ns"),
        },
        Charge {
            layer: "fstack (input)",
            count: c("fstack.frames_in"),
            ns_per_unit: l("fstack.input_buf_ns"),
        },
        Charge {
            layer: "fstack (poll_tx)",
            count: c("fstack.frames_out"),
            ns_per_unit: l("fstack.poll_tx_ns"),
        },
        Charge {
            layer: "updk (tx stage + burst)",
            count: c("fstack.frames_out"),
            ns_per_unit: l("updk.tx_burst_ns"),
        },
        Charge {
            layer: "app + ff_* calls",
            count: app_count,
            ns_per_unit: app_self / m.traced.ops.max(1) as f64,
        },
        Charge {
            layer: "core (trace digest)",
            count: c("core.trace_bytes"),
            ns_per_unit: l("core.digest_ns_per_byte"),
        },
    ];
    let attributed: f64 = charges.iter().map(Charge::ns).sum();
    let wall = sample.wall_ns as f64;
    (charges, (wall - attributed) / wall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    #[test]
    fn rebuild_matches_the_scenario_spec_run() {
        for name in ["httpd_churn", "lossy_wan_sack", "star128_fanin_w2_mux"] {
            let w = find(name).unwrap();
            let spec = w.spec(11, 20).run().unwrap();
            let rebuilt = rebuild_star(w, 11, 20).unwrap();
            assert_eq!(rebuilt.digest, spec.trace.digest, "{name}");
            assert!(rebuilt.build_ns > 0 && rebuilt.run_ns > 0);
        }
        assert!(rebuild_star(find("paper_s2c_bulk").unwrap(), 1, 20).is_err());
        let br = BuildRun {
            build_ns: 31_738_249,
            run_ns: 684_660_597,
            digest: 0x4e59_a030_73bf_2467,
        };
        let line = br.to_json().to_line();
        assert_eq!(
            BuildRun::from_json(&crate::json::parse(&line).unwrap()),
            Ok(br)
        );
    }

    #[test]
    fn reconciliation_adds_up() {
        let w = find("httpd_keepalive").unwrap();
        let pumps = Pumps::run(5, 200).unwrap();
        let cost = SpanCost::measure();
        assert!(cost.inner_ns > 0.0 && cost.full_ns > cost.inner_ns);
        let mut layer = pump_metrics(w, &pumps, cost);
        layer.extend(crate::probes::run(1000));
        let sample = Sample {
            workload: w.name.into(),
            seed: 5,
            scale: 10,
            wall_ns: 1_000_000_000,
            cpu_ns: 0,
            setup_ns: 0,
            peak_rss_mib: 0.0,
            threads: 1,
            horizon_ns: 1,
            digest: 0,
            counters: [
                ("core.events", 1000.0),
                ("fstack.frames_in", 100.0),
                ("httpd.requests", 10.0),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
        };
        let (charges, unattributed) = reconcile(w, &sample, &layer, &pumps, cost, 100.0);
        let attributed: f64 = charges.iter().map(Charge::ns).sum();
        assert!(attributed > 0.0);
        assert!((unattributed - (1e9 - attributed) / 1e9).abs() < 1e-12);
        // Untraced prices are traced ones scaled down, never up.
        for pair in pumps.all() {
            let f = pair.detrace(cost);
            assert!(f > 0.0 && f <= 1.0, "{f}");
            assert!(pair.self_ns(Name::InputBuf, cost) > 0.0);
        }
        // Mirrors: keep-alive reads the N=512 shape, not the bulk one.
        assert_eq!(pumps.mirror(w).traced.shape, Shape::KeepAlive(512));
    }
}
