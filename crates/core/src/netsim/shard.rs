//! The sharded drivers: planning a shard split, running each shard's
//! engine in conservative lookahead windows (on worker threads, or
//! multiplexed on one), and handing frames across shard boundaries.

use super::fabric::TraceDigest;
use super::node::Node;
use super::outcome::{collect_outcome, RoundCounters, SimOutcome};
use super::{Ep, NetEvent, NetSim};
use crate::parallel::{LookaheadMatrix, Profitability};
use crate::topology::{partition_shards, ShardGraph, ShardPlan};
use cheri::TaggedMemory;
use simkern::engine::{Engine, OrderKey};
use simkern::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use updk::ethdev::EthDev;
use updk::kmod::PciAddress;
use updk::nic::NicModel;
use updk::switch::LinkFabric;
use updk::wire::{Frame, MIN_FRAME, WIRE_OVERHEAD};

/// A cross-shard frame payload — never a byte-for-byte rebuild.
///
/// When the shards are multiplexed on a single thread there is only one
/// buffer pool, so the handoff is a plain refcount bump
/// ([`XPayload::Shared`]). Between worker *threads* the frame travels as
/// an immutable Arc-backed pool page ([`XPayload::Page`], built by
/// [`Frame::to_page`]): at most one copy at the sending boundary (zero
/// for a relayed frame that already is a page), and the destination shard
/// uses the page in place instead of re-materializing it into its own
/// pool as the old `Vec<u8>` handoff did.
enum XPayload {
    /// A shared thread-local frame (single-thread multiplexed handoff).
    Shared(Frame),
    /// An immutable Arc-backed page (thread-crossing handoff).
    Page(Frame),
}

impl XPayload {
    fn into_frame(self) -> Frame {
        match self {
            XPayload::Shared(f) | XPayload::Page(f) => f,
        }
    }
}

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
    payload: XPayload,
}

// SAFETY: the only non-`Send` content is [`XPayload::Shared`], which is
// constructed exclusively when every shard is multiplexed on one thread
// ([`ShardCtx::same_thread`]); threaded runs always rehome payloads to
// [`XPayload::Page`] — an immutable `Arc`-backed pool page
// ([`Frame::to_page`]) whose storage is never aliased by any `Rc` — so an
// `XEvent` that actually crosses a thread boundary never holds
// thread-local state.
unsafe impl Send for XEvent {}

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
    /// `true` while the shards are multiplexed on one thread, enabling the
    /// shared-frame handoff ([`XPayload::Shared`]).
    same_thread: bool,
    /// Cross-shard events generated this window, per destination shard;
    /// exchanged at the window barrier.
    outbox: Vec<Vec<XEvent>>,
    /// Driver tallies for this shard (merged into
    /// [`SimOutcome::rounds`] at the end of the run).
    pub(super) rounds: RoundCounters,
    /// Deferred digest folds, in this shard's execution order (so the
    /// front is always the oldest). The sequential driver drains and
    /// folds finalized entries every round — bounding retained frames to
    /// roughly one window's deliveries — while the threaded driver folds
    /// everything at merge time (worker threads cannot share the digest
    /// accumulator mid-run without another serialization point).
    pub(super) log: std::collections::VecDeque<DeliveryRecord>,
}

/// A world paired with its engine — the unit a worker thread owns in a
/// threaded sharded run (and what [`collect_outcome`] reads results from).
pub(super) struct ShardRun {
    pub(super) sim: NetSim,
    pub(super) engine: Engine<NetSim>,
}

// SAFETY: a `ShardRun` is not `Send` by its contents: the `NetSim` holds
// `Rc`-backed frames (NIC rings, stack buffers, switch queues, the
// deferred delivery log), handles into thread-local buffer pools, and the
// node's app objects, which the `App` trait deliberately does not require
// to be `Send`; the engine's calendar holds more of the same frames. The
// move is sound because of how the threaded driver uses the type: a
// shard's world is built on the coordinating thread, moved to exactly one
// worker before its first event executes (`drive_windows_threaded` drains
// the cells into the scope), never aliased while there — every `Rc`
// reference graph is closed within one shard, and the only values that
// cross between workers are `XEvent`s carrying immutable `Arc`-backed
// pages ([`Frame::to_page`]) — and moved back only after the scope has
// joined every worker. At any instant exactly one thread can reach any
// `Rc`, pool handle or app object inside it. Storage a worker allocated
// and the coordinator later frees recycles into the freeing thread's pool.
unsafe impl Send for ShardRun {}

/// Coordination state shared by the worker threads of a threaded sharded
/// run, under the single-rendezvous protocol: each round ends in exactly
/// **one** barrier wait, with every exchange slot double-buffered by round
/// parity (`round & 1`). A worker writes the slot the *next* round will
/// read (mailbox flush, outbox minima, its published next instant) before
/// the barrier, and reads the current round's slot after it; because a
/// worker can never be a full round ahead of a peer (the barrier is
/// lockstep), the two parities never alias.
struct ShardShared {
    barrier: Barrier,
    /// `mailbox[p][src][dst]`: cross-shard events flushed by `src` for
    /// `dst`, to be injected at the start of the round with parity `p`.
    mailbox: [Vec<Vec<Mutex<Vec<XEvent>>>>; 2],
    /// `next_at[p][s]`: shard `s`'s earliest pending instant (`u64::MAX`
    /// = idle) as published for the round with parity `p` — *excluding*
    /// the mailbox events it has not injected yet.
    next_at: [Vec<AtomicU64>; 2],
    /// `out_min[p][src][dst]`: the minimum timestamp `src` flushed into
    /// `mailbox[p][src][dst]` (`u64::MAX` = nothing, and the reader skips
    /// that mailbox lock entirely). Folding these into `next_at` gives
    /// every worker the same *effective* next instants the sequential
    /// driver reads off its engines after injection — which is what lets
    /// windows be derived before anyone has actually injected.
    out_min: [Vec<Vec<AtomicU64>>; 2],
    stop: u64,
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
        // Worker threads when the host has the cores for it, multiplexed
        // on this thread otherwise — identical results by construction
        // (same windows, same sorted injections).
        let threaded = self.worker_threads.unwrap_or_else(|| {
            match std::env::var("CAPNET_SHARD_THREADS").ok().as_deref() {
                Some("0") => false,
                Some("1") => true,
                // Unset or unrecognized: pick by available cores.
                _ => std::thread::available_parallelism().map_or(1, usize::from) > 1,
            }
        });

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
                        same_thread: !threaded,
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
        if threaded {
            Self::drive_windows_threaded(&mut cells, stop, &matrix);
        } else {
            Self::drive_windows_sequential(&mut cells, stop, &matrix, &mut trace);
        }
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
    /// stay bounded by a round's deliveries instead of the whole run's.
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

    /// Threaded window driver: one worker thread per shard, **one**
    /// barrier wait per round (see [`ShardShared`] for the parity
    /// double-buffered exchange protocol that replaced the old
    /// flush-then-vote pair of barriers).
    fn drive_windows_threaded(cells: &mut Vec<ShardRun>, stop: SimTime, matrix: &LookaheadMatrix) {
        let workers = cells.len();
        let slot = || -> Vec<Vec<Mutex<Vec<XEvent>>>> {
            (0..workers)
                .map(|_| (0..workers).map(|_| Mutex::new(Vec::new())).collect())
                .collect()
        };
        let nexts =
            || -> Vec<AtomicU64> { (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect() };
        let mins = || -> Vec<Vec<AtomicU64>> {
            (0..workers)
                .map(|_| (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect())
                .collect()
        };
        let shared = ShardShared {
            barrier: Barrier::new(workers),
            mailbox: [slot(), slot()],
            next_at: [nexts(), nexts()],
            out_min: [mins(), mins()],
            stop: stop.as_nanos(),
        };
        let finished = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (id, cell) in cells.drain(..).enumerate() {
                let shared = &shared;
                handles.push(scope.spawn(move || Self::shard_worker(cell, id, shared, matrix)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect::<Vec<_>>()
        });
        *cells = finished;
    }

    /// The per-thread loop of [`NetSim::drive_windows_threaded`] —
    /// byte-identical to the sequential driver round for round, at one
    /// rendezvous per round.
    ///
    /// Each round with parity `p` *reads* slot `p` (published instants,
    /// mailbox minima, mailboxes) and *writes* slot `p ^ 1` for the next
    /// round, then waits on the single barrier. The lockstep barrier
    /// means no worker can be a full round ahead, so the slot a worker
    /// writes is never the slot a straggler is still reading. The
    /// *effective* next instant of a peer folds its published engine
    /// minimum with the minima of mailboxes it has yet to inject
    /// ([`ShardShared::out_min`]) — exactly the post-injection instants
    /// the sequential driver reads off its engines — so every worker
    /// derives identical windows from identical data with no coordinator.
    fn shard_worker(
        mut cell: ShardRun,
        id: usize,
        shared: &ShardShared,
        matrix: &LookaheadMatrix,
    ) -> ShardRun {
        let workers = shared.next_at[0].len();
        // Publish the boot-schedule instants into round 0's slot; one
        // initial rendezvous makes them visible to every worker.
        let next = cell
            .engine
            .next_event_at()
            .map_or(u64::MAX, |t| t.as_nanos());
        shared.next_at[0][id].store(next, Ordering::SeqCst);
        shared.barrier.wait();
        let mut round: u64 = 0;
        let mut incoming = Vec::new();
        loop {
            let p = (round & 1) as usize;
            // Effective next instants: published engine minima folded
            // with the not-yet-injected mailbox minima. Identical on
            // every worker, so the break decision needs no barrier.
            let mut nexts = vec![u64::MAX; workers];
            for (s, next) in nexts.iter_mut().enumerate() {
                let mut n = shared.next_at[p][s].load(Ordering::SeqCst);
                for src in 0..workers {
                    n = n.min(shared.out_min[p][src][s].load(Ordering::SeqCst));
                }
                *next = n;
            }
            let start = nexts.iter().copied().min().unwrap_or(u64::MAX);
            if start == u64::MAX || start > shared.stop {
                break;
            }
            // Drain this round's mailboxes (the out_min sentinel makes
            // empty ones lock-free to skip) and inject. Readers never
            // write out_min — peers are still reading this whole slot to
            // derive their own windows; the flush phase below overwrites
            // each row unconditionally for the slot's next reuse.
            for src in 0..workers {
                if shared.out_min[p][src][id].load(Ordering::SeqCst) == u64::MAX {
                    continue;
                }
                incoming.append(&mut shared.mailbox[p][src][id].lock().expect("mailbox poisoned"));
            }
            Self::inject_sorted(&mut cell, &mut incoming);
            {
                let ctx = cell.sim.shard_ctx.as_mut().expect("shard ctx");
                ctx.rounds.rounds += 1;
            }
            let end = matrix.window_end(&nexts, id);
            if nexts[id] < end {
                let ShardRun { sim, engine } = &mut cell;
                if end > shared.stop {
                    engine.run_until(sim, SimTime::from_nanos(shared.stop));
                } else {
                    engine.run_window(sim, SimTime::from_nanos(end));
                }
            } else {
                let ctx = cell.sim.shard_ctx.as_mut().expect("shard ctx");
                ctx.rounds.empty_rounds += 1;
            }
            // Write the next round's slot: flush the outbox and publish
            // this worker's full out_min row — unconditionally, MAX for
            // destinations it sent nothing, so the row needs no reader-
            // side reset — then the engine's new minimum, then rendezvous.
            let q = p ^ 1;
            {
                let ctx = cell.sim.shard_ctx.as_mut().expect("shard ctx");
                for (dst, outgoing) in ctx.outbox.iter_mut().enumerate() {
                    let min = outgoing.iter().map(|x| x.at.as_nanos()).min();
                    if let Some(min) = min {
                        shared.mailbox[q][id][dst]
                            .lock()
                            .expect("mailbox poisoned")
                            .append(outgoing);
                        shared.out_min[q][id][dst].store(min, Ordering::SeqCst);
                    } else {
                        shared.out_min[q][id][dst].store(u64::MAX, Ordering::SeqCst);
                    }
                }
            }
            let next = cell
                .engine
                .next_event_at()
                .map_or(u64::MAX, |t| t.as_nanos());
            shared.next_at[q][id].store(next, Ordering::SeqCst);
            shared.barrier.wait();
            round += 1;
        }
        cell
    }

    /// Sorts a window's incoming cross-shard events by `(at, key)` — the
    /// single-engine dispatch order — and schedules them. Payloads are
    /// used in place (a shared frame or an `Arc`-backed page), never
    /// re-materialized.
    fn inject_sorted(cell: &mut ShardRun, incoming: &mut Vec<XEvent>) {
        if incoming.is_empty() {
            return;
        }
        incoming.sort_unstable_by_key(|x| (x.at, x.key));
        for x in incoming.drain(..) {
            let ev = NetEvent::arrival(x.to, x.at, x.payload.into_frame());
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

    /// Rehomes a frame for a cross-shard handoff and tallies the traffic:
    /// a refcount bump when the shards share a thread, an `Arc`-backed
    /// pool page otherwise — copied at most once, and not at all when the
    /// frame (e.g. one being relayed onward) already is a page.
    fn rehome(ctx: &mut ShardCtx, frame: &Frame) -> XPayload {
        ctx.rounds.xshard_frames += 1;
        if ctx.same_thread {
            XPayload::Shared(frame.clone())
        } else {
            if !frame.is_page() {
                ctx.rounds.rehome_bytes += frame.bytes().len() as u64;
            }
            XPayload::Page(frame.to_page())
        }
    }

    /// Queues a frame's arrival at `to`, which another shard handles, for
    /// the window barrier: the payload is rehomed by [`NetSim::rehome`]
    /// and the order key is drawn from this engine's origin counter,
    /// exactly as a local schedule would have.
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
        let payload = Self::rehome(ctx, frame);
        ctx.outbox[dst as usize].push(XEvent {
            at,
            key,
            to,
            payload,
        });
    }
}
