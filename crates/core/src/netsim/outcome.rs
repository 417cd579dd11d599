//! What a run reports: the per-kind event counters, the sharded driver's
//! own tallies, and [`SimOutcome`] with the one function that builds it.

use super::fabric::TraceDigest;
use super::faults::FaultStats;
use super::shard::ShardRun;
#[cfg(doc)]
use super::NetSim;
use crate::app::AppReports;
use capnet_chaos::ChaosReport;
use capnet_httpd::{FleetReport, HttpServerReport};
use iperf::BandwidthReport;
use simkern::engine::CalendarStats;
use simkern::time::{SimDuration, SimTime};
use updk::switch::SwitchStats;
use updk::wire::ImpairmentStats;

/// Per-kind event counters for one run: the *why* behind the event count
/// moving across PRs. Every field lands in the `BENCH_*.json` behaviour
/// ledger as an `ev_*` key (`capnet_bench::BenchReport::record_outcome`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounters {
    /// Main-loop iterations executed (scheduled polls plus honored wakes).
    pub loop_polls: u64,
    /// App slots the iterations examined: a charged host looks at every
    /// installed app on every turn, a gated host only at the runnable and
    /// the clocked ones. `app_visits / loop_polls` is the app turn's exact
    /// work per poll.
    pub app_visits: u64,
    /// Executed iterations that did no work (no RX, no TX, no app
    /// progress). The idle iterations a parked loop slept through are not
    /// executed and not counted. On every host but the two polling
    /// fallbacks (`DESIGN.md`, *Park/wake node loops*) an idle iteration
    /// parks, so this is at most [`EventCounters::parks`] — far below it,
    /// as every host parks on its productive turns and runs an idle one
    /// only when a wake finds nothing to do.
    pub idle_polls: u64,
    /// Frame deliveries into NIC ports.
    pub deliveries: u64,
    /// Switch ingress/forwarding events.
    pub switch_hops: u64,
    /// Dispatched wakes that a deadline caused: the parked node reached
    /// the earliest instant known when it parked — a stack
    /// retransmit/delayed-ACK/TIME_WAIT timer, an app's write-gap/stop
    /// instant, or the DMA-complete instant of a frame already in its RX
    /// ring — with no delivery claiming the wake first.
    pub timer_wakes: u64,
    /// Wake events that dispatched under a superseded epoch and were
    /// dropped. Superseded wakes are cancelled in place, so this is the
    /// witness that cancellation works: always zero.
    pub stale_wakes: u64,
    /// Times an iteration parked the loop instead of rescheduling it: an
    /// idle one, or one that did work and left the stack quiet with no app
    /// runnable.
    pub parks: u64,
    /// Deliveries that scheduled or moved a parked node's wake: the first
    /// frame to reach a parked port, and any later one readable earlier
    /// than the wake then pending. A delivery that finds an earlier wake
    /// standing changes nothing and is not counted.
    pub wakes: u64,
}

impl EventCounters {
    /// Accumulates another tally into this one (shard merge).
    pub(super) fn absorb(&mut self, o: EventCounters) {
        self.loop_polls += o.loop_polls;
        self.app_visits += o.app_visits;
        self.idle_polls += o.idle_polls;
        self.deliveries += o.deliveries;
        self.switch_hops += o.switch_hops;
        self.timer_wakes += o.timer_wakes;
        self.stale_wakes += o.stale_wakes;
        self.parks += o.parks;
        self.wakes += o.wakes;
    }
}

/// Per-run tallies of the sharded driver itself — rendezvous rounds and
/// cross-shard traffic. Deliberately **not** part of
/// [`EventCounters`]: simulation counters are asserted byte-identical
/// across worker counts, while these describe the driver that happened to
/// run (all zero for a plain single-engine run).
///
/// # Units
///
/// The fields do not share a unit. `rounds` counts **rendezvous rounds**:
/// shards advance in lockstep, so it is the maximum over shards, not a
/// sum. `empty_rounds` counts **shard-rounds**: it is summed per shard,
/// so a 4-worker run can report more empty rounds than rounds. The share
/// of wasted window slots is therefore `empty_rounds / (rounds ×
/// workers)`, never `empty_rounds / rounds`. `xshard_frames` is a plain
/// sum over shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundCounters {
    /// Rendezvous rounds driven (max across shards — rounds are lockstep).
    pub rounds: u64,
    /// Shard-rounds in which a shard's window contained no event to
    /// execute (summed over shards).
    pub empty_rounds: u64,
    /// Frames handed across a shard boundary (deliveries + switch hops).
    pub xshard_frames: u64,
    /// Always 0: a cross-shard hand-off shares the frame, it copies nothing.
    /// Kept for its sole reader, `benchmark/src/workloads.rs` — delete with it.
    pub rehome_bytes: u64,
}

impl RoundCounters {
    /// Folds one shard's tallies into the run's (see *Units* above).
    fn absorb(&mut self, o: RoundCounters) {
        self.rounds = self.rounds.max(o.rounds);
        self.empty_rounds += o.empty_rounds;
        self.xshard_frames += o.xshard_frames;
    }
}

/// The results of one simulation run. The five report vectors are
/// node-major; within a node, a kind's reports are in installation order.
#[derive(Debug)]
pub struct SimOutcome {
    /// Server (receiver) reports, in installation order.
    pub servers: Vec<BandwidthReport>,
    /// Client (sender) reports, in installation order.
    pub clients: Vec<BandwidthReport>,
    /// HTTP serving-plane server reports, in installation order.
    pub http_servers: Vec<HttpServerReport>,
    /// HTTP open-loop fleet reports, in installation order.
    pub http_fleets: Vec<FleetReport>,
    /// Fault-injection campaign reports, in installation order.
    pub chaos: Vec<ChaosReport>,
    /// The virtual instant the last event executed. With the
    /// quiescence-aware engine this can be well before [`SimOutcome::horizon`]:
    /// once every node is parked with nothing pending, the remaining virtual
    /// time passes without a single event.
    pub ended_at: SimTime,
    /// The virtual instant the run was asked to simulate to ([`NetSim::run`]'s
    /// `duration`). The whole `[0, horizon]` span *is* simulated — an empty
    /// calendar tail is the engine being fast, not the run being short — so
    /// host-speed metrics (`host_ns_per_sim_sec`) divide by this, keeping
    /// them comparable with pre-parking baselines whose polling filled the
    /// tail with idle events.
    pub horizon: SimTime,
    /// Discrete events the engine executed.
    pub events: u64,
    /// Per-kind event counters: why `events` is what it is (loop polls vs
    /// deliveries vs switch hops vs wakes).
    pub counters: EventCounters,
    /// `(node name, port hardware stats)`.
    pub port_stats: Vec<(String, updk::ethdev::PortStats)>,
    /// `(node name, protocol stack counters)`.
    pub stack_stats: Vec<(String, fstack::StackStats)>,
    /// Per-fabric forwarding counters, in [`NetSim::add_switch`] order.
    pub switch_stats: Vec<SwitchStats>,
    /// `(acquisitions, contentions, total wait)` of the S2 mutex, if any:
    /// what the modelled service loop did over `[0, horizon)`, one
    /// acquisition per poll tick. The ticks a parked loop slept through
    /// are included — folded in when the park ends — so the figures do not
    /// depend on how many iterations the simulator executed.
    pub mutex_stats: Option<(u64, u64, SimDuration)>,
    /// What the (possibly impaired) cables did over the run.
    pub impairment_stats: ImpairmentStats,
    /// What the scheduled fault plan did over the run (all zero for a
    /// fault-free run — an empty plan schedules no events at all).
    pub fault_stats: FaultStats,
    /// The run's delivery-trace digest (the determinism witness) —
    /// byte-identical at any [`SimOutcome::workers`] count.
    pub trace: TraceDigest,
    /// Shards the run actually used (1 = the classic single-engine loop).
    pub workers: usize,
    /// The tightest conservative lookahead of the run's shard plan, in
    /// nanoseconds ([`crate::parallel::LookaheadMatrix::min_finite`]; per-pair
    /// windows are at least this wide). Single-engine runs report the
    /// window a 2-shard plan *would* run under (0 when no such plan cuts
    /// a cable), so the would-be width shows up in bench output too.
    pub lookahead_ns: u64,
    /// Sharded-driver tallies (rendezvous rounds, cross-shard frames).
    /// All zero for single-engine runs; unlike
    /// [`SimOutcome::counters`], these describe the driver rather than
    /// the simulation, so they legitimately vary across worker counts.
    pub rounds: RoundCounters,
    /// What the event calendars did, summed over the run's engines
    /// (`max_slot` is the largest of them): schedules by band, and the
    /// exact work of keeping dispatch order. Like [`SimOutcome::rounds`]
    /// this describes the engines that ran, so a sharded run's differs.
    pub calendar: CalendarStats,
}

/// Assembles the [`SimOutcome`] of a finished run from its worlds — the
/// single world of a plain run, or every shard of a sharded one
/// (`node_shard`/`switch_shard` say which world owns each node and
/// fabric). Counters and stats sum and reports collect node-major in
/// global installation order; `trace` arrives complete (a sharded run's
/// driver has folded its whole deferred delivery log by the time it stops).
pub(super) fn collect_outcome(
    mut cells: Vec<ShardRun>,
    node_shard: &[usize],
    switch_shard: &[usize],
    lookahead_ns: u64,
    trace: TraceDigest,
) -> SimOutcome {
    let end = cells
        .iter()
        .map(|c| c.engine.now())
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut counters = EventCounters::default();
    let mut rounds = RoundCounters::default();
    let mut impairment_stats = ImpairmentStats::default();
    let mut fault_stats = FaultStats::default();
    let mut calendar = CalendarStats::default();
    for cell in cells.iter_mut() {
        // Without `..`: a new counter does not compile until it is merged.
        let CalendarStats {
            near,
            coarse,
            overflow,
            compares,
            moved,
            cascaded,
            reaped,
            max_slot,
        } = cell.engine.calendar_stats();
        calendar.near += near;
        calendar.coarse += coarse;
        calendar.overflow += overflow;
        calendar.compares += compares;
        calendar.moved += moved;
        calendar.cascaded += cascaded;
        calendar.reaped += reaped;
        calendar.max_slot = calendar.max_slot.max(max_slot);
        counters.absorb(cell.sim.counters);
        impairment_stats.absorb(cell.sim.impairment_stats);
        fault_stats.absorb(cell.sim.fault_stats);
        if let Some(ctx) = cell.sim.shard_ctx.as_mut() {
            rounds.absorb(ctx.rounds);
            debug_assert!(ctx.log.is_empty(), "the driver folds every delivery");
        }
    }

    let mut reports = AppReports::default();
    let mut port_stats = Vec::new();
    let mut stack_stats = Vec::new();
    for (i, &owner) in node_shard.iter().enumerate() {
        let sim = &mut cells[owner].sim;
        // A loop still parked at the horizon polled, in the model, every
        // tick before it (the polling loop stops at the first tick at or
        // after `stop_at`).
        sim.fold_skipped(i, sim.stop_at);
        let node = &mut sim.nodes[i];
        for app in node.apps.iter_mut().filter_map(|slot| slot.app.take()) {
            app.report(end, &mut reports);
        }
        port_stats.push((node.name.clone(), sim.devs[node.dev].stats(node.port)));
        stack_stats.push((node.name.clone(), node.stack.stats()));
    }
    SimOutcome {
        servers: reports.servers,
        clients: reports.clients,
        http_servers: reports.http_servers,
        http_fleets: reports.http_fleets,
        chaos: reports.chaos,
        ended_at: end,
        horizon: cells[0].sim.stop_at,
        events: cells.iter().map(|c| c.engine.executed()).sum(),
        counters,
        port_stats,
        stack_stats,
        switch_stats: switch_shard
            .iter()
            .enumerate()
            .map(|(s, &owner)| cells[owner].sim.switches[s].stats())
            .collect(),
        mutex_stats: cells.iter().find_map(|c| {
            c.sim
                .s2_mutex
                .as_ref()
                .map(|m| (m.acquisitions(), m.contentions(), m.total_wait()))
        }),
        impairment_stats,
        fault_stats,
        trace,
        workers: cells.len(),
        lookahead_ns,
        rounds,
        calendar,
    }
}
