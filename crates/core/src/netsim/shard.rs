//! The sharded driver: planning a shard split, running each shard's
//! engine in conservative lookahead windows (multiplexed on the calling
//! thread), and handing frames across shard boundaries.

use super::fabric::TraceDigest;
use super::node::Node;
use super::outcome::{collect_outcome, RoundCounters, SimOutcome};
use super::{Ep, NetEvent, NetSim};
use crate::parallel::{LookaheadMatrix, Profitability};
use crate::topology::{partition_shards, ShardGraph, ShardPlan};
use cheri::TaggedMemory;
use simkern::engine::{Engine, OrderKey};
use simkern::time::SimTime;
use updk::ethdev::EthDev;
use updk::kmod::PciAddress;
use updk::nic::NicModel;
use updk::switch::LinkFabric;
use updk::wire::{Frame, MIN_FRAME, WIRE_OVERHEAD};

/// One cross-shard event in flight between lookahead windows: a frame
/// delivery or switch hop whose destination lives in another shard. The
/// [`OrderKey`] built by the sending engine makes the injected event sort
/// exactly where the single-engine run would have dispatched it.
struct XEvent {
    at: SimTime,
    key: OrderKey,
    /// Where the frame arrives: a switch port ([`NetEvent::SwitchHop`])
    /// or a NIC port ([`NetEvent::Deliver`]).
    to: Ep,
    /// Shares the sender's storage: the shards run on one thread over one
    /// buffer pool, so the hand-off is a refcount bump, never a copy.
    frame: Frame,
}

/// One deferred trace-digest fold of a sharded run: the delivery's
/// identity plus the dispatch key it sorted under. Folding the merged,
/// key-sorted log reproduces the byte-exact digest of the single-engine
/// run (which folds inline, in dispatch order).
pub(super) struct DeliveryRecord {
    pub(super) at: SimTime,
    pub(super) key: OrderKey,
    pub(super) dev: u32,
    pub(super) port: u32,
    pub(super) frame: Frame,
}

/// Per-shard execution context, present only while a sharded run drives
/// this `NetSim` as one of its shard worlds.
pub(super) struct ShardCtx {
    /// This shard's id.
    id: u32,
    /// Owning shard per node / per device / per switch (global indices).
    node_shard: Vec<u32>,
    dev_shard: Vec<u32>,
    sw_shard: Vec<u32>,
    /// Cross-shard events generated this window, per destination shard;
    /// exchanged at the end of the round.
    outbox: Vec<Vec<XEvent>>,
    /// Driver tallies for this shard (merged into
    /// [`SimOutcome::rounds`] at the end of the run).
    pub(super) rounds: RoundCounters,
    /// Deferred digest folds, in this shard's execution order (so the
    /// front is always the oldest). The driver drains and folds finalized
    /// entries every round, bounding retained frames to roughly one
    /// window's deliveries.
    pub(super) log: std::collections::VecDeque<DeliveryRecord>,
}

/// A shard's world paired with its engine — the unit the window driver
/// steps (and what [`collect_outcome`] reads results from).
pub(super) struct ShardRun {
    pub(super) sim: NetSim,
    pub(super) engine: Engine<NetSim>,
}

impl NetSim {
    /// The tightest window a 2-shard plan of this topology would run
    /// under — reported by single-engine runs as
    /// [`SimOutcome::lookahead_ns`], so bench output shows the would-be
    /// window width even for runs that never shard (`0` when a 2-way
    /// plan does not exist or cuts no cable).
    pub(super) fn would_be_lookahead(&self) -> u64 {
        let graph = self.shard_graph();
        let plan = partition_shards(&graph, 2);
        if plan.workers < 2 {
            return 0;
        }
        let dev_shard = self.dev_shards(&plan);
        let sw_shard: Vec<u32> = plan.switch_shard.iter().map(|&s| s as u32).collect();
        self.lookahead_matrix(&dev_shard, &sw_shard, plan.workers)
            .min_finite()
            .unwrap_or(0)
    }

    /// The topology/constraint view the shard partitioner plans over.
    fn shard_graph(&self) -> ShardGraph {
        let mut g = ShardGraph {
            nodes: self.nodes.len(),
            switches: self.switches.len(),
            node_weight: self.nodes.iter().map(|n| 1 + n.apps.len() as u64).collect(),
            ..ShardGraph::default()
        };
        for (i, node) in self.nodes.iter().enumerate() {
            match node.cabled {
                Some(Ep::Sw(sw, _)) => g.attachments.push((i, sw)),
                Some(Ep::Dev(d, p)) => {
                    // Direct cable: co-locate the two ends (zero barrier
                    // traffic); record once per pair.
                    if let Some(j) = self.dev_owner[d][p] {
                        if i < j {
                            g.node_links.push((i, j));
                        }
                    }
                }
                None => {}
            }
        }
        for (s, ports) in self.sw_cabled.iter().enumerate() {
            for ep in ports.iter().flatten() {
                if let Ep::Sw(s2, _) = *ep {
                    if s < s2 {
                        g.trunks.push((s, s2));
                    }
                }
            }
        }
        // Nodes sharing a multi-port device must co-shard (they share its
        // rings and PCI bus model); iterate devices in index order so the
        // plan is deterministic.
        for owners in &self.dev_owner {
            let group: Vec<usize> = owners.iter().flatten().copied().collect();
            if group.len() > 1 {
                g.bind_groups.push(group);
            }
        }
        // Scenario hosts (per-call isolation charges, the S2 service
        // mutex) interact through shared state — keep them together.
        let scenario: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.profile.s2_service || n.profile.per_ff_call_ns > 0)
            .map(|(i, _)| i)
            .collect();
        if scenario.len() > 1 {
            g.bind_groups.push(scenario);
        }
        g
    }

    /// Owning shard per device: a device follows its owning node(s); an
    /// unowned device (a cable endpoint without a stack) follows its peer.
    fn dev_shards(&self, plan: &ShardPlan) -> Vec<u32> {
        let mut dev_shard = vec![u32::MAX; self.devs.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            dev_shard[n.dev] = plan.node_shard[i] as u32;
        }
        for d in 0..self.devs.len() {
            if dev_shard[d] != u32::MAX {
                continue;
            }
            let mut shard = 0;
            for p in 0..self.devs[d].port_count() {
                match self.links.get(&Ep::Dev(d, p)) {
                    Some(Ep::Sw(sw, _)) => {
                        shard = plan.switch_shard[*sw] as u32;
                        break;
                    }
                    Some(Ep::Dev(pd, _)) if dev_shard[*pd] != u32::MAX => {
                        shard = dev_shard[*pd];
                        break;
                    }
                    _ => {}
                }
            }
            dev_shard[d] = shard;
        }
        dev_shard
    }

    /// The conservative lookahead of a shard plan, per **directed shard
    /// pair**: every cut-cable traversal pays at least its link class's
    /// floor ([`CostModel::link_floor_ns`] — minimum-frame serialization,
    /// NIC- or switch-side, plus propagation), so a shard only waits on
    /// the cut paths that can actually reach it rather than on the single
    /// tightest edge anywhere in the topology (what the old scalar
    /// lookahead throttled every window to). The nominal model floor is
    /// clamped by the cable actually in use, in case a model claims more
    /// propagation than the wire delivers.
    fn lookahead_matrix(
        &self,
        dev_shard: &[u32],
        sw_shard: &[u32],
        workers: usize,
    ) -> LookaheadMatrix {
        let min_wire = MIN_FRAME as u64 + WIRE_OVERHEAD;
        let cable = self.wire.latency().as_nanos() + self.costs.wire_cost(min_wire).as_nanos();
        let floor = |from_switch: bool| {
            let extra = if from_switch {
                self.costs.switch_latency_ns
            } else {
                0
            };
            self.costs
                .link_floor_ns(min_wire, from_switch)
                .min(cable + extra)
        };
        let shard_of = |ep: &Ep| match *ep {
            Ep::Dev(d, _) => dev_shard[d] as usize,
            Ep::Sw(s, _) => sw_shard[s] as usize,
        };
        let mut matrix = LookaheadMatrix::new(workers);
        for (a, b) in &self.links {
            // `links` stores both directions, so `a` is the emitting side.
            matrix.note_edge(shard_of(a), shard_of(b), floor(matches!(a, Ep::Sw(..))));
        }
        matrix.close();
        matrix
    }

    /// Splits this simulation into shard worlds per `plan` and runs them
    /// in conservative lookahead windows, merging an outcome that is
    /// byte-identical to the single-engine run's.
    pub(super) fn run_sharded(mut self) -> SimOutcome {
        let graph = self.shard_graph();
        let plan = partition_shards(&graph, self.workers);
        let dev_shard = self.dev_shards(&plan);
        let sw_shard: Vec<u32> = plan.switch_shard.iter().map(|&s| s as u32).collect();
        let matrix = self.lookahead_matrix(&dev_shard, &sw_shard, plan.workers);
        if matrix.min_finite() == Some(0) {
            // Degenerate cost model (zero-latency cut edges): no window
            // width is conservative, so run single-engine.
            return self.run_single(0);
        }
        if self.adaptive_workers {
            let total_weight: u64 = graph.node_weight.iter().sum();
            let fit = Profitability::assess(
                total_weight,
                matrix.min_finite(),
                self.idle_period,
                plan.workers,
            );
            if !fit.profitable {
                // The plan's windows are too narrow for its event density:
                // each rendezvous round would cost more host time than the
                // events it amortizes (the committed BENCH_parallel.json
                // showed 0.88–0.93x on exactly such plans). Collapse to
                // the byte-identical single-engine loop, still reporting
                // the window the plan would have run under.
                let hint = matrix.min_finite().unwrap_or(0);
                return self.run_single(hint);
            }
        }
        let stop = self.stop_at;
        let workers = plan.workers;

        // Build the shard worlds: every vector keeps its global length,
        // filled with untouched placeholders; real state then MOVES into
        // its slot in the owning shard.
        let mut cells: Vec<ShardRun> = (0..workers)
            .map(|sid| ShardRun {
                sim: NetSim {
                    wire: self.wire.clone(),
                    impairments: self.impairments,
                    app_sched: self.app_sched,
                    stop_at: stop,
                    seed: self.seed,
                    port_rng: self.port_rng.clone(),
                    dev_owner: self.dev_owner.clone(),
                    sw_cabled: self.sw_cabled.clone(),
                    faults: self.faults.clone(),
                    shard_ctx: Some(Box::new(ShardCtx {
                        id: sid as u32,
                        node_shard: plan.node_shard.iter().map(|&s| s as u32).collect(),
                        dev_shard: dev_shard.clone(),
                        sw_shard: sw_shard.clone(),
                        outbox: (0..workers).map(|_| Vec::new()).collect(),
                        rounds: RoundCounters::default(),
                        log: std::collections::VecDeque::new(),
                    })),
                    ..NetSim::new(self.costs.clone())
                },
                engine: Engine::new(),
            })
            .collect();
        let s2_owner = self
            .nodes
            .iter()
            .position(|n| n.profile.s2_service)
            .map_or(0, |i| plan.node_shard[i]);
        for ShardRun { sim, .. } in cells.iter_mut() {
            sim.nodes = (0..self.nodes.len()).map(Node::shadow).collect();
            sim.mems = (0..self.mems.len())
                .map(|_| TaggedMemory::new(16))
                .collect();
            sim.devs = (0..self.devs.len())
                .map(|_| EthDev::new(PciAddress::new(0, 0, 0), NicModel::Host, sim.costs.clone()))
                .collect();
            sim.switches = (0..self.switches.len())
                .map(|_| LinkFabric::new(2, 1))
                .collect();
        }
        for (i, node) in self.nodes.drain(..).enumerate() {
            cells[plan.node_shard[i]].sim.nodes[i] = node;
        }
        for (i, mem) in self.mems.drain(..).enumerate() {
            cells[plan.node_shard[i]].sim.mems[i] = mem;
        }
        for (d, dev) in self.devs.drain(..).enumerate() {
            cells[dev_shard[d] as usize].sim.devs[d] = dev;
        }
        for (s, sw) in self.switches.drain(..).enumerate() {
            cells[plan.switch_shard[s]].sim.switches[s] = sw;
        }
        if let Some(m) = self.s2_mutex.take() {
            cells[s2_owner].sim.s2_mutex = Some(m);
        }
        for cell in cells.iter_mut() {
            let ShardRun { sim, engine } = cell;
            sim.schedule_boot(engine);
        }

        let mut trace = TraceDigest::default();
        Self::drive_windows_sequential(&mut cells, stop, &matrix, &mut trace);
        collect_outcome(
            cells,
            &plan.node_shard,
            &plan.switch_shard,
            matrix.min_finite().unwrap_or(0),
            trace,
        )
    }

    /// One-thread window multiplexing: each round runs every shard up to
    /// its safe bound ([`LookaheadMatrix::window_end`]), then exchanges
    /// and injects the cross-shard events generated in it — skipping the
    /// exchange sweep entirely on rounds where no shard produced any.
    /// Deferred digest entries older than every shard's next event are
    /// final, so they fold into `trace` as the run goes — retained frames
    /// stay bounded by a round's deliveries instead of the whole run's —
    /// and the fold before the exit (every shard idle or past `stop`)
    /// leaves the logs empty.
    fn drive_windows_sequential(
        cells: &mut [ShardRun],
        stop: SimTime,
        matrix: &LookaheadMatrix,
        trace: &mut TraceDigest,
    ) {
        let workers = cells.len();
        let mut inject: Vec<Vec<XEvent>> = (0..workers).map(|_| Vec::new()).collect();
        let mut nexts = vec![u64::MAX; workers];
        let mut final_folds: Vec<DeliveryRecord> = Vec::new();
        loop {
            for (cell, next) in cells.iter_mut().zip(nexts.iter_mut()) {
                *next = cell
                    .engine
                    .next_event_at()
                    .map_or(u64::MAX, |t| t.as_nanos());
            }
            let min_next = nexts.iter().copied().min().unwrap_or(u64::MAX);
            // No shard can execute anything before `min_next`, so every
            // logged delivery strictly older than it is final: fold those
            // now, in merged key order, and release their frames.
            if min_next > 0 {
                for cell in cells.iter_mut() {
                    let log = &mut cell.sim.shard_ctx.as_mut().expect("shard ctx").log;
                    while log.front().is_some_and(|r| r.at.as_nanos() < min_next) {
                        final_folds.push(log.pop_front().expect("checked front"));
                    }
                }
                if !final_folds.is_empty() {
                    final_folds.sort_unstable_by_key(|r| (r.at, r.key));
                    for r in final_folds.drain(..) {
                        trace.record(r.at, r.dev as usize, r.port as usize, r.frame.bytes());
                    }
                }
            }
            if min_next == u64::MAX || min_next > stop.as_nanos() {
                break;
            }
            let mut any_out = false;
            for (me, cell) in cells.iter_mut().enumerate() {
                let ctx = cell.sim.shard_ctx.as_mut().expect("shard ctx");
                ctx.rounds.rounds += 1;
                let end = matrix.window_end(&nexts, me);
                if nexts[me] >= end {
                    ctx.rounds.empty_rounds += 1;
                    continue; // nothing due inside this shard's bound
                }
                let ShardRun { sim, engine } = cell;
                if end > stop.as_nanos() {
                    engine.run_until(sim, stop);
                } else {
                    engine.run_window(sim, SimTime::from_nanos(end));
                }
                any_out = any_out
                    || sim
                        .shard_ctx
                        .as_ref()
                        .expect("shard ctx")
                        .outbox
                        .iter()
                        .any(|o| !o.is_empty());
            }
            if !any_out {
                continue;
            }
            for cell in cells.iter_mut() {
                let ctx = cell.sim.shard_ctx.as_mut().expect("shard ctx");
                for (dst, outgoing) in ctx.outbox.iter_mut().enumerate() {
                    if !outgoing.is_empty() {
                        inject[dst].append(outgoing);
                    }
                }
            }
            for (cell, incoming) in cells.iter_mut().zip(inject.iter_mut()) {
                Self::inject_sorted(cell, incoming);
            }
        }
    }

    /// Sorts a window's incoming cross-shard events by `(at, key)` — the
    /// single-engine dispatch order — and schedules them, frames used in
    /// place.
    fn inject_sorted(cell: &mut ShardRun, incoming: &mut Vec<XEvent>) {
        if incoming.is_empty() {
            return;
        }
        incoming.sort_unstable_by_key(|x| (x.at, x.key));
        for x in incoming.drain(..) {
            let ev = NetEvent::arrival(x.to, x.at, x.frame);
            cell.engine.schedule_injected(x.at, x.key, ev);
        }
    }

    /// `true` when node `i` is handled by this world.
    #[inline]
    pub(super) fn local_node(&self, i: usize) -> bool {
        match &self.shard_ctx {
            None => true,
            Some(ctx) => ctx.node_shard[i] == ctx.id,
        }
    }

    /// `true` when device `dev` is handled by this world (always, outside
    /// a sharded run).
    #[inline]
    pub(super) fn local_dev(&self, dev: usize) -> bool {
        match &self.shard_ctx {
            None => true,
            Some(ctx) => ctx.dev_shard[dev] == ctx.id,
        }
    }

    /// `true` when switch `sw` is handled by this world.
    #[inline]
    pub(super) fn local_sw(&self, sw: usize) -> bool {
        match &self.shard_ctx {
            None => true,
            Some(ctx) => ctx.sw_shard[sw] == ctx.id,
        }
    }

    /// Queues a frame's arrival at `to`, which another shard handles, for
    /// the end-of-round exchange: the frame is shared, not copied, and the
    /// order key is drawn from this engine's origin counter, exactly as a
    /// local schedule would have.
    pub(super) fn outbox(
        &mut self,
        engine: &mut Engine<NetSim>,
        origin: u32,
        to: Ep,
        at: SimTime,
        frame: &Frame,
    ) {
        let key = engine.make_key(origin);
        let ctx = self.shard_ctx.as_mut().expect("cross-shard send has a ctx");
        let dst = match to {
            Ep::Dev(dev, _) => ctx.dev_shard[dev],
            Ep::Sw(sw, _) => ctx.sw_shard[sw],
        };
        ctx.rounds.xshard_frames += 1;
        ctx.outbox[dst as usize].push(XEvent {
            at,
            key,
            to,
            frame: frame.clone(),
        });
    }
}
