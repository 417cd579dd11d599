//! The end-to-end network simulation driver.
//!
//! Wires [`updk::EthDev`] devices, [`fstack::FStack`] instances and
//! applications into a discrete-event run on a [`simkern::Engine`]. One
//! `NetSim` is one Table II measurement: the device under test (the
//! dual-port 82576 behind its PCI bus), the remote measurement hosts, the
//! cables between them, and the per-scenario isolation charges
//! (trampolines, cross-cVM wrappers, the Scenario 2 service mutex).
//!
//! This module holds the vocabulary (ids, [`NetEvent`], the [`NetSim`]
//! world itself), the builder API and [`NetSim::run`]; the behaviour
//! lives in one submodule per concern:
//!
//! * `node` — a host's poll loop: RX, the app steps, TX, park and wake;
//! * `fabric` — switch ingress, final-hop delivery and the [`TraceDigest`];
//! * `faults` — the [`Fault`] schedule: resolution, execution, crash/restart;
//! * `shard` — the sharded drivers: planning, windows, cross-shard hand-off;
//! * `outcome` — [`SimOutcome`] and its one collector.

mod fabric;
mod faults;
mod node;
mod outcome;
#[cfg(test)]
mod polled_reference;
mod shard;

pub use fabric::TraceDigest;
pub use faults::{Fault, FaultStats};
pub use node::AppSched;
pub use outcome::{EventCounters, RoundCounters, SimOutcome};

use crate::app::{AppKind, AppSpec};
use crate::CapnetError;
use capnet_chaos::ChaosConfig;
use capnet_httpd::{FleetConfig, HttpServerConfig};
use cheri::{Capability, TaggedMemory};
use faults::ResolvedFault;
use fstack::loop_::ServiceMutex;
use fstack::{CcAlgo, FStack, StackConfig};
use node::Node;
use shard::{ShardCtx, ShardRun};
use simkern::cost::CostModel;
use simkern::engine::{Engine, World};
use simkern::rng::SimRng;
use simkern::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use updk::ethdev::EthDev;
use updk::kmod::{BindingRegistry, PciAddress};
use updk::nic::NicModel;
use updk::switch::{LinkFabric, SwitchTx};
use updk::wire::{Frame, ImpairmentStats, Impairments, Wire};

/// Handle to a node in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Handle to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevId(pub(crate) usize);

/// Handle to a switching fabric added with [`NetSim::add_switch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchId(usize);

/// One cable endpoint: a NIC port or a switch port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ep {
    Dev(usize, usize),
    Sw(usize, usize),
}

impl std::fmt::Display for Ep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ep::Dev(d, p) => write!(f, "device {d} port {p}"),
            Ep::Sw(s, p) => write!(f, "switch {s} port {p}"),
        }
    }
}

/// The typed event vocabulary of the simulation — every event the engine
/// dispatches is one of these small inline values, stored by value in
/// the calendar.
#[derive(Debug)]
pub enum NetEvent {
    /// One main-loop iteration of a node's poll loop. An iteration left
    /// pending by a loop that has crashed since — even if the host is
    /// already back up — is recognized by `epoch` and dies undispatched.
    LoopIter {
        /// Node index.
        node: usize,
        /// The node's generation when the iteration was scheduled.
        epoch: u64,
    },
    /// A parked node's scheduled wake tick (at a poll-lattice instant),
    /// filed under the order key the polling loop's iteration at that tick
    /// would have carried, so it runs where that iteration would among the
    /// events of its instant. A wake is cancelled in place when a delivery
    /// moves it or the node crashes; `epoch` is the witness that none
    /// dispatches stale.
    Wake {
        /// Node index.
        node: usize,
        /// The node's generation when the wake was scheduled.
        epoch: u64,
    },
    /// A frame arriving at a NIC port at instant `at` (folded into the
    /// trace digest, then DMA'd toward the RX ring).
    Deliver {
        /// Destination device index.
        dev: usize,
        /// Destination port on that device.
        port: usize,
        /// Nominal arrival instant (the digest timestamps with this).
        at: SimTime,
        /// The frame (a shared buffer; cloning is a refcount bump).
        frame: Frame,
    },
    /// A frame arriving at a switch ingress port: run the fabric's
    /// forwarding decision and propagate the surviving egress copies.
    SwitchHop {
        /// Switch index.
        sw: usize,
        /// Ingress port on that switch.
        port: usize,
        /// Arrival instant at the ingress port.
        at: SimTime,
        /// The frame.
        frame: Frame,
    },
    /// A scheduled infrastructure fault firing: entry `idx` of the
    /// resolved fault plan. Scheduled on **every** shard at boot (the
    /// plan is replicated, so keys and instants match at any worker
    /// count); each shard applies the slice of the fault it owns, plus
    /// the shared link-state view every transmitter needs.
    Fault {
        /// Index into the resolved fault plan.
        idx: usize,
    },
}

impl NetEvent {
    /// The event of `frame` arriving at cable endpoint `to` at `at`.
    fn arrival(to: Ep, at: SimTime, frame: Frame) -> NetEvent {
        match to {
            Ep::Dev(dev, port) => NetEvent::Deliver {
                dev,
                port,
                at,
                frame,
            },
            Ep::Sw(sw, port) => NetEvent::SwitchHop {
                sw,
                port,
                at,
                frame,
            },
        }
    }
}

/// Per-node isolation charges for the active scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct IsolationProfile {
    /// Extra nanoseconds charged per application `ff_*` call (0 for
    /// Baseline and Scenario 1 — their `ff_*` calls stay inside one
    /// protection domain; Scenario 2 charges the wrapper cross-call).
    pub per_ff_call_ns: u64,
    /// This node's main loop serializes on the Scenario 2 service mutex.
    pub s2_service: bool,
}

/// Declarative per-node protocol configuration for
/// [`NetSim::configure_node`]: `None` fields keep the stack's current
/// setting, so one struct update can adjust a single knob or several at
/// once — the one way to set per-node TCP policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeConfig {
    /// TCP congestion-control algorithm for connections opened or
    /// accepted from now on.
    pub cc: Option<CcAlgo>,
    /// SACK negotiation for connections opened or accepted from now on
    /// (both ends must enable it to be active on a connection).
    pub sack: Option<bool>,
}

/// The assembled simulation world (driven by [`Engine`] events).
pub struct NetSim {
    costs: CostModel,
    devs: Vec<EthDev>,
    mems: Vec<TaggedMemory>,
    mem_bump: Vec<u64>,
    nodes: Vec<Node>,
    links: HashMap<Ep, Ep>,
    switches: Vec<LinkFabric>,
    trace: TraceDigest,
    wire: Wire,
    impairments: Impairments,
    impairment_stats: ImpairmentStats,
    app_sched: AppSched,
    s2_mutex: Option<ServiceMutex>,
    stop_at: SimTime,
    /// Master seed; per-destination-port impairment streams derive from it
    /// at `run()` start (see [`NetSim::port_rng`]).
    seed: u64,
    /// Per-`(dev, port)` impairment RNG streams, derived from the master
    /// seed at `run()` start. Every delivery toward a given NIC port draws
    /// from that port's own stream; since all deliveries to a port come
    /// from its single cabled peer, the draw order is a pure function of
    /// that peer's (deterministic) execution — which is what keeps lossy
    /// runs byte-identical at any worker count.
    port_rng: Vec<Vec<SimRng>>,
    kmod: BindingRegistry,
    next_pci: u8,
    counters: EventCounters,
    /// `(dev, port)` → owning node index, resolved at `run()` start so a
    /// delivery can wake the parked loop that polls that port.
    dev_owner: Vec<Vec<Option<usize>>>,
    /// Switch egress cables (`sw_cabled[sw][port]`), resolved at `run()`
    /// start for the forwarding hot path.
    sw_cabled: Vec<Vec<Option<Ep>>>,
    /// An ideal host's idle poll period (from the cost model). Only the
    /// shard planner reads it, as the event-rate estimate of its
    /// profitability model; a parked node's lattice step is its own
    /// (`Node::period`).
    idle_period: u64,
    /// Requested worker (shard) count for [`NetSim::run`]; 1 = the classic
    /// single-engine loop.
    workers: usize,
    /// `true` (the default): [`NetSim::run`] consults the
    /// [`Profitability`] model and transparently collapses an
    /// unprofitable shard plan to the single-engine loop. `false` forces
    /// the requested worker count (tests use this to actually exercise
    /// the sharded driver on small topologies).
    adaptive_workers: bool,
    /// Present while this instance is one shard of a sharded run.
    shard_ctx: Option<Box<ShardCtx>>,
    /// The scheduled fault plan as built ([`NetSim::add_fault`] order).
    fault_plan: Vec<(SimTime, Fault)>,
    /// The plan resolved against the cabling at `run()` start, replicated
    /// verbatim into every shard so fault event keys match everywhere.
    faults: Vec<(SimTime, ResolvedFault)>,
    /// Cable endpoints currently administratively down: a TX hop whose
    /// local endpoint is in this set blackholes the frame.
    link_down: std::collections::HashSet<Ep>,
    /// What the fault plan did (each fault tallied on its owner shard).
    fault_stats: FaultStats,
    /// A switch hop's egress copies, empty between hops.
    switch_tx: Vec<SwitchTx>,
}

impl std::fmt::Debug for NetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetSim")
            .field("nodes", &self.nodes.len())
            .field("devs", &self.devs.len())
            .finish()
    }
}

/// Default per-node memory arena.
const NODE_MEM: u64 = 4 << 20;
/// Packet pool region per port.
const POOL_BYTES: u64 = 1 << 20;
/// App buffer size (per ff_read/ff_write call).
const APP_BUF: u64 = 16 * 1024;

impl NetSim {
    /// Creates an empty simulation with the given cost model.
    pub fn new(costs: CostModel) -> Self {
        let idle_period = costs.mainloop_idle_ns.max(1);
        NetSim {
            costs,
            devs: Vec::new(),
            mems: Vec::new(),
            mem_bump: Vec::new(),
            nodes: Vec::new(),
            links: HashMap::new(),
            switches: Vec::new(),
            trace: TraceDigest::default(),
            wire: Wire::new(SimDuration::from_nanos(1_000)),
            impairments: Impairments::default(),
            impairment_stats: ImpairmentStats::default(),
            app_sched: AppSched::default(),
            s2_mutex: None,
            stop_at: SimTime::MAX,
            seed: 0xCAB1E,
            port_rng: Vec::new(),
            kmod: BindingRegistry::new(),
            next_pci: 3,
            counters: EventCounters::default(),
            dev_owner: Vec::new(),
            sw_cabled: Vec::new(),
            idle_period,
            workers: 1,
            adaptive_workers: true,
            shard_ctx: None,
            fault_plan: Vec::new(),
            faults: Vec::new(),
            link_down: std::collections::HashSet::new(),
            switch_tx: Vec::new(),
            fault_stats: FaultStats::default(),
        }
    }

    /// Sets the worker (shard) count for [`NetSim::run`].
    ///
    /// At `n > 1` the topology is partitioned into up to `n` shards, each
    /// driven by its own engine in conservative lookahead windows, with
    /// cross-shard frames exchanged at the end of each round. Wire behavior
    /// is **byte-identical at any worker count** — same trace digest, same
    /// reports, same counters; `n = 1` (the default) is exactly the classic
    /// single-engine loop. The shards are multiplexed on the calling
    /// thread: a "worker" is a shard with its own, shallower event
    /// calendar, not an OS thread (DESIGN.md, *Why there is no threaded
    /// driver*).
    pub fn set_workers(&mut self, n: usize) {
        self.workers = n.max(1);
    }

    /// Enables/disables adaptive worker selection (default: enabled).
    ///
    /// When enabled, a sharded run first asks the [`crate::parallel::Profitability`] model
    /// whether the plan's estimated events per rendezvous round cover the
    /// host cost of driving a round; if not, the run transparently
    /// collapses to the single-engine loop ([`SimOutcome::workers`]
    /// reports `1`). Results are byte-identical either way — this knob
    /// only decides which identical-result execution path runs, and
    /// exists so tests and benchmarks can force small topologies through
    /// the sharded driver.
    pub fn set_adaptive_workers(&mut self, adaptive: bool) {
        self.adaptive_workers = adaptive;
    }

    /// Inert: shards are always multiplexed on the calling thread. Kept for
    /// its sole caller, `benchmark/src/ledger.rs` — delete with it.
    pub fn set_worker_threads(&mut self, _: Option<bool>) {}

    /// Adds a NIC of `model` (kernel-detached and ready to configure).
    pub fn add_dev(&mut self, model: NicModel) -> Result<DevId, CapnetError> {
        let addr = PciAddress::new(0, self.next_pci, 0);
        self.next_pci += 1;
        self.kmod
            .discover(addr, "Intel 82576 Gigabit Network Connection");
        self.kmod.bind_userspace(addr)?;
        self.devs.push(EthDev::new(addr, model, self.costs.clone()));
        Ok(DevId(self.devs.len() - 1))
    }

    /// Cables `(a, port_a)` to `(b, port_b)` (full duplex).
    ///
    /// # Errors
    ///
    /// [`CapnetError::Config`] if a port index is out of range for its
    /// device, if both endpoints are the same port, or if either port is
    /// already cabled (to a device or a switch) — a port holds one cable.
    pub fn link(
        &mut self,
        a: DevId,
        port_a: usize,
        b: DevId,
        port_b: usize,
    ) -> Result<(), CapnetError> {
        let ea = self.dev_ep(a, port_a)?;
        let eb = self.dev_ep(b, port_b)?;
        self.connect(ea, eb)
    }

    /// Adds an N-port [`LinkFabric`] learning switch with the default
    /// egress queue depth ([`LinkFabric::DEFAULT_QUEUE`]).
    ///
    /// # Errors
    ///
    /// [`CapnetError::Config`] if `ports < 2`.
    pub fn add_switch(&mut self, ports: usize) -> Result<SwitchId, CapnetError> {
        self.add_switch_with_queue(ports, LinkFabric::DEFAULT_QUEUE)
    }

    /// [`NetSim::add_switch`] with an explicit per-port egress queue depth
    /// (frames); shallow queues drop earlier under convergence, deep queues
    /// trade drops for latency.
    ///
    /// # Errors
    ///
    /// [`CapnetError::Config`] if `ports < 2` or `queue == 0`.
    pub fn add_switch_with_queue(
        &mut self,
        ports: usize,
        queue: usize,
    ) -> Result<SwitchId, CapnetError> {
        if ports < 2 {
            return Err(CapnetError::Config(format!(
                "a switch needs at least 2 ports, got {ports}"
            )));
        }
        if queue == 0 {
            return Err(CapnetError::Config(
                "switch egress queue depth must be nonzero".into(),
            ));
        }
        self.switches.push(LinkFabric::new(ports, queue));
        Ok(SwitchId(self.switches.len() - 1))
    }

    /// Cables NIC port `(dev, dev_port)` into switch port `(sw, sw_port)`.
    ///
    /// # Errors
    ///
    /// [`CapnetError::Config`] on out-of-range ports or already-cabled
    /// endpoints.
    pub fn attach(
        &mut self,
        dev: DevId,
        dev_port: usize,
        sw: SwitchId,
        sw_port: usize,
    ) -> Result<(), CapnetError> {
        let ed = self.dev_ep(dev, dev_port)?;
        let es = self.sw_ep(sw, sw_port)?;
        self.connect(ed, es)
    }

    /// Trunks two switches together: `(a, port_a)` to `(b, port_b)`. The
    /// resulting graph must stay loop-free (tree topologies: star, chain,
    /// dumbbell) — there is no spanning-tree protocol, so a cycle floods
    /// forever.
    ///
    /// # Errors
    ///
    /// [`CapnetError::Config`] on out-of-range ports, a self-trunk, or
    /// already-cabled endpoints.
    pub fn link_switches(
        &mut self,
        a: SwitchId,
        port_a: usize,
        b: SwitchId,
        port_b: usize,
    ) -> Result<(), CapnetError> {
        let ea = self.sw_ep(a, port_a)?;
        let eb = self.sw_ep(b, port_b)?;
        self.connect(ea, eb)
    }

    fn dev_ep(&self, dev: DevId, port: usize) -> Result<Ep, CapnetError> {
        let ports = self
            .devs
            .get(dev.0)
            .ok_or_else(|| CapnetError::Config(format!("no such device {}", dev.0)))?
            .port_count();
        if port >= ports {
            return Err(CapnetError::Config(format!(
                "device {} has {ports} port(s), no port {port}",
                dev.0
            )));
        }
        Ok(Ep::Dev(dev.0, port))
    }

    fn sw_ep(&self, sw: SwitchId, port: usize) -> Result<Ep, CapnetError> {
        let ports = self
            .switches
            .get(sw.0)
            .ok_or_else(|| CapnetError::Config(format!("no such switch {}", sw.0)))?
            .port_count();
        if port >= ports {
            return Err(CapnetError::Config(format!(
                "switch {} has {ports} port(s), no port {port}",
                sw.0
            )));
        }
        Ok(Ep::Sw(sw.0, port))
    }

    fn connect(&mut self, a: Ep, b: Ep) -> Result<(), CapnetError> {
        if a == b {
            return Err(CapnetError::Config(format!("cannot cable {a} to itself")));
        }
        for ep in [a, b] {
            if let Some(peer) = self.links.get(&ep) {
                return Err(CapnetError::Config(format!(
                    "{ep} is already cabled to {peer}"
                )));
            }
        }
        self.links.insert(a, b);
        self.links.insert(b, a);
        Ok(())
    }

    /// Degrades frame delivery with `imp` (loss, corruption, duplication,
    /// reordering, jitter). The default is the ideal cabling of the paper's
    /// testbed. Impairments are applied **once per end-to-end path**, on
    /// the final hop into the destination NIC — on a pairwise link that is
    /// the cable itself; on a switched path the switch hops stay clean and
    /// the last switch-to-NIC cable degrades (loss does *not* compound
    /// with hop count). Decisions are drawn from the simulation's
    /// deterministic RNG, so runs stay reproducible.
    pub fn set_impairments(&mut self, imp: Impairments) {
        self.impairments = imp;
    }

    /// Selects how contending app cVMs are scheduled (see [`AppSched`]).
    pub fn set_app_sched(&mut self, sched: AppSched) {
        self.app_sched = sched;
    }

    /// Reseeds the simulation's deterministic RNG (which drives impairment
    /// draws). Two simulations built identically and seeded identically
    /// produce identical outcomes; without a call the fixed default seed
    /// applies, so unseeded runs are already reproducible.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The per-destination-port impairment stream: the master seed mixed
    /// with the port's identity, so each cable's draws are independent of
    /// every other cable's — and of how the simulation is sharded.
    fn derive_port_rng(seed: u64, dev: usize, port: usize) -> SimRng {
        let mix = seed
            ^ (dev as u64 + 1).wrapping_mul(0x0000_0100_0000_01B3)
            ^ (port as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(mix)
    }

    /// Creates a node: its own memory arena, a stack on `(dev, port)` with
    /// address `ip`, and the given isolation profile.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        dev: DevId,
        port: usize,
        ip: Ipv4Addr,
        profile: IsolationProfile,
    ) -> Result<NodeId, CapnetError> {
        let name = name.into();
        let mem_idx = self.mems.len();
        let mut mem = TaggedMemory::new(NODE_MEM);
        // Carve the packet pool ("correct permission flags") and configure.
        let region = mem
            .root_cap()
            .try_restrict(4096, POOL_BYTES)?
            .try_restrict_perms(cheri::Perms::data())?;
        self.devs[dev.0].configure_port(port, &mut mem, region, 512)?;
        let mac = self.devs[dev.0].mac(port);
        let stack = FStack::new(StackConfig::new(name.clone(), mac, ip));
        self.mems.push(mem);
        self.mem_bump.push(4096 + POOL_BYTES);
        if profile.s2_service && self.s2_mutex.is_none() {
            self.s2_mutex = Some(ServiceMutex::new(&self.costs));
        }
        self.nodes
            .push(Node::new(name, dev.0, port, mem_idx, stack, profile));
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Replaces `node`'s isolation profile. Profiles are only read when
    /// the run starts (loop gating, per-call charges), so any point
    /// between [`Self::add_node`] and [`Self::run`] works — scenario
    /// builders use this to re-cost prebuilt topologies.
    pub fn set_node_profile(&mut self, node: NodeId, profile: IsolationProfile) {
        if profile.s2_service && self.s2_mutex.is_none() {
            self.s2_mutex = Some(ServiceMutex::new(&self.costs));
        }
        self.nodes[node.0].profile = profile;
    }

    /// Applies a [`NodeConfig`] to `node`'s stack: each `Some` field is
    /// set, each `None` leaves the current value. Call between
    /// [`Self::add_node`] and app installation — clients connect the
    /// moment they are installed, so a later change won't touch them.
    pub fn configure_node(&mut self, node: NodeId, cfg: NodeConfig) {
        let stack = &mut self.nodes[node.0].stack;
        if let Some(cc) = cfg.cc {
            stack.set_cc(cc);
        }
        if let Some(sack) = cfg.sack {
            stack.set_sack(sack);
        }
    }

    fn carve_app_buf(&mut self, node: NodeId, fill: Option<u8>) -> Result<Capability, CapnetError> {
        let mem_idx = self.nodes[node.0].mem;
        let base = self.mem_bump[mem_idx].next_multiple_of(16);
        self.mem_bump[mem_idx] = base + APP_BUF;
        let cap = self.mems[mem_idx]
            .root_cap()
            .try_restrict(base, APP_BUF)?
            .try_restrict_perms(cheri::Perms::data())?;
        if let Some(b) = fill {
            self.mems[mem_idx].fill(&cap, base, APP_BUF, b)?;
        }
        Ok(cap)
    }

    /// Builds the app `spec` describes on `node`'s stack and files it in
    /// the node's step order.
    fn install(&mut self, node: NodeId, spec: AppSpec) -> Result<(), CapnetError> {
        self.nodes[node.0].install(spec)
    }

    /// The RNG stream of the next `kind` app on `node`: the scenario seed
    /// mixed with the node index, the app's ordinal within its kind and a
    /// per-kind `tag` that keeps the streams off each other and off the
    /// port-RNG streams.
    fn app_seed(&self, node: NodeId, kind: AppKind, tag: u64) -> u64 {
        let slot = self.nodes[node.0].kind_count(kind);
        self.seed
            ^ (node.0 as u64 + 1).wrapping_mul(0x0000_0100_0000_01B3)
            ^ (slot as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ tag
    }

    /// Installs an iperf server (receiver) on `node` listening at `port`.
    pub fn add_server(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        port: u16,
    ) -> Result<(), CapnetError> {
        let label = label.into();
        let buf = self.carve_app_buf(node, None)?;
        self.install(node, AppSpec::Server { label, port, buf })
    }

    /// Installs an iperf client (sender) on `node`, targeting
    /// `remote:port`, sending for `duration` once connected.
    pub fn add_client(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        remote: (Ipv4Addr, u16),
        duration: SimDuration,
        write_gap: SimDuration,
    ) -> Result<(), CapnetError> {
        let label = label.into();
        let buf = self.carve_app_buf(node, Some(0xA5))?;
        self.install(
            node,
            AppSpec::Client {
                label,
                remote,
                duration,
                write_gap,
                buf,
            },
        )
    }

    /// Installs an HTTP static server (the serving plane) on `node`,
    /// listening at `port` with the given server policy.
    pub fn add_http_server(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        port: u16,
        cfg: HttpServerConfig,
    ) -> Result<(), CapnetError> {
        let label = label.into();
        let buf = self.carve_app_buf(node, None)?;
        self.install(
            node,
            AppSpec::Http {
                label,
                port,
                cfg,
                buf,
            },
        )
    }

    /// Installs an open-loop HTTP client fleet on `node`. Its RNG stream
    /// derives from the scenario seed, the node index and the fleet's
    /// slot, so parallel fleets draw independently and a run is a pure
    /// function of [`Self::set_seed`].
    pub fn add_http_fleet(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        cfg: FleetConfig,
    ) -> Result<(), CapnetError> {
        let label = label.into();
        let buf = self.carve_app_buf(node, Some(0x5A))?;
        let seed = self.app_seed(node, AppKind::Fleet, 0x4854_5450); // "HTTP"
        self.install(
            node,
            AppSpec::Fleet {
                label,
                cfg,
                seed,
                buf,
            },
        )
    }

    /// Installs a fault-injection campaign on `node`. The campaign's RNG
    /// streams derive from the scenario seed, the node index and the
    /// campaign slot (same scheme as [`Self::add_http_fleet`]), so a run
    /// is a pure function of [`Self::set_seed`]. Wire chaos transmits
    /// through the node's own stack; the capability walker and bit-flip
    /// injector own private arenas and never touch workload memory.
    pub fn add_chaos(
        &mut self,
        node: NodeId,
        label: impl Into<String>,
        cfg: ChaosConfig,
    ) -> Result<(), CapnetError> {
        let label = label.into();
        let seed = self.app_seed(node, AppKind::Chaos, 0x4348_414F); // "CHAO"
        self.install(node, AppSpec::Chaos { label, cfg, seed })
    }

    /// Starts every device.
    fn start_devices(&mut self) -> Result<(), CapnetError> {
        for dev in &mut self.devs {
            dev.start(&self.kmod)?;
        }
        Ok(())
    }

    /// Runs the simulation for `duration` of virtual time and returns the
    /// application reports, in node/app installation order.
    ///
    /// # Errors
    ///
    /// Configuration errors (unstarted devices, bad links); datapath
    /// capability faults abort the run as errors.
    pub fn run(mut self, duration: SimDuration) -> Result<SimOutcome, CapnetError> {
        self.start_devices()?;
        self.stop_at = SimTime::ZERO + duration;
        self.resolve_caches();
        self.resolve_faults()?;
        Ok(if self.workers > 1 {
            self.run_sharded()
        } else {
            let hint = self.would_be_lookahead();
            self.run_single(hint)
        })
    }

    /// Resolves the topology once: each node's cabled endpoint, each
    /// switch port's cable, which node owns each NIC port (so deliveries
    /// can wake parked loops), the per-port impairment RNG streams, which
    /// loops may park, and the dirty-fd app routing. The event hot path
    /// never touches the `links` HashMap again.
    fn resolve_caches(&mut self) {
        self.dev_owner = self
            .devs
            .iter()
            .map(|d| vec![None; d.port_count()])
            .collect();
        // The S2 service loops that cannot park (see `Node::polls`).
        let s2_nodes = self.nodes.iter().filter(|n| n.profile.s2_service);
        let s2_polls = self.app_sched.turn_dependent() || s2_nodes.count() > 1;
        for i in 0..self.nodes.len() {
            let (d, p) = (self.nodes[i].dev, self.nodes[i].port);
            self.nodes[i].cabled = self.links.get(&Ep::Dev(d, p)).copied();
            self.dev_owner[d][p] = Some(i);
            self.nodes[i].polls = self.nodes[i].profile.s2_service && s2_polls;
            self.nodes[i].resolve_routing();
        }
        self.sw_cabled = self
            .switches
            .iter()
            .enumerate()
            .map(|(s, sw)| {
                (0..sw.port_count())
                    .map(|p| self.links.get(&Ep::Sw(s, p)).copied())
                    .collect()
            })
            .collect();
        let seed = self.seed;
        self.port_rng = self
            .devs
            .iter()
            .enumerate()
            .map(|(d, dev)| {
                (0..dev.port_count())
                    .map(|p| Self::derive_port_rng(seed, d, p))
                    .collect()
            })
            .collect();
    }

    /// Schedules every node's staggered first loop iteration (the hosts
    /// boot independently, so iterations do not run in lockstep). A shard
    /// schedules only the nodes it owns; the init origin and global node
    /// indices keep the keys consistent with the single-engine run.
    fn schedule_boot(&self, engine: &mut Engine<NetSim>) {
        let init_origin = self.init_origin();
        for i in 0..self.nodes.len() {
            if !self.local_node(i) {
                continue;
            }
            let at = SimTime::from_nanos(97 * (i as u64 + 1));
            let epoch = self.nodes[i].epoch;
            engine.schedule_from(init_origin, at, NetEvent::LoopIter { node: i, epoch });
        }
        // The fault plan is scheduled on EVERY shard, in plan order from
        // a dedicated origin: identical keys and instants everywhere, so
        // each shard observes the same fault lattice the single-engine
        // run does and applies the locally-owned slice of each fault.
        let fault_origin = self.fault_origin();
        for (idx, &(at, _)) in self.faults.iter().enumerate() {
            engine.schedule_from(fault_origin, at, NetEvent::Fault { idx });
        }
    }

    /// The classic single-engine run (`workers == 1`): one calendar, one
    /// loop — the path the pinned trace digests prove unchanged.
    /// `lookahead_hint` is purely informational: the window width a shard
    /// plan of this topology would run (or would have run) under.
    fn run_single(mut self, lookahead_hint: u64) -> SimOutcome {
        let mut engine: Engine<NetSim> = Engine::new();
        self.schedule_boot(&mut engine);
        let stop = self.stop_at;
        engine.run_until(&mut self, stop);
        let trace = self.trace;
        let (nodes, switches) = (self.nodes.len(), self.switches.len());
        outcome::collect_outcome(
            vec![ShardRun { sim: self, engine }],
            &vec![0; nodes],
            &vec![0; switches],
            lookahead_hint,
            trace,
        )
    }

    /// Stable [`simkern::engine::OrderKey`] origin of node `i`'s handlers.
    ///
    /// The origin space is global and identical at any worker count —
    /// nodes first, then switches, then the pre-run initializer — so the
    /// keys built by a sharded run match the single-engine run's exactly.
    fn node_origin(i: usize) -> u32 {
        i as u32
    }

    /// Stable order-key origin of switch `sw`'s forwarding handler.
    fn switch_origin(&self, sw: usize) -> u32 {
        (self.nodes.len() + sw) as u32
    }

    /// Order-key origin of the pre-run initializer (the staggered start-up
    /// loop-iteration schedules).
    fn init_origin(&self) -> u32 {
        (self.nodes.len() + self.switches.len()) as u32
    }

    /// Order-key origin of the fault plan (one origin after the
    /// initializer; its counter advances identically on every shard
    /// because the whole plan is scheduled everywhere, in plan order).
    fn fault_origin(&self) -> u32 {
        (self.nodes.len() + self.switches.len() + 1) as u32
    }
}

impl World for NetSim {
    type Event = NetEvent;

    fn handle(&mut self, ev: NetEvent, engine: &mut Engine<NetSim>) {
        match ev {
            NetEvent::LoopIter { node, epoch } => {
                if self.nodes[node].epoch == epoch {
                    self.loop_iter(node, engine);
                }
            }
            NetEvent::Wake { node, epoch } => self.wake_iter(node, epoch, engine),
            NetEvent::Deliver {
                dev,
                port,
                at,
                frame,
            } => {
                self.counters.deliveries += 1;
                self.record_and_deliver(dev, port, at, frame, engine);
            }
            NetEvent::SwitchHop {
                sw,
                port,
                at,
                frame,
            } => {
                self.counters.switch_hops += 1;
                self.switch_ingress(sw, port, at, frame, engine);
            }
            NetEvent::Fault { idx } => self.apply_fault(idx, engine),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use updk::nic::NicModel;

    #[test]
    fn round_robin_allows_everyone_always() {
        let s = AppSched::RoundRobin;
        for turn in 0..100 {
            for idx in 0..4 {
                assert!(s.allows(idx, turn));
            }
        }
    }

    #[test]
    fn barging_never_gates_the_first_cvm() {
        let s = AppSched::paper_barging();
        for turn in 0..10_000 {
            assert!(s.allows(0, turn));
        }
    }

    #[test]
    fn barging_grant_fraction_matches_parameters() {
        let AppSched::Barging { grant, period } = AppSched::paper_barging() else {
            panic!("paper_barging is Barging");
        };
        let s = AppSched::paper_barging();
        let allowed = (0..u64::from(period)).filter(|&t| s.allows(1, t)).count();
        assert_eq!(allowed as u32, grant);
        // And the denial is one contiguous convoy, not interleaved.
        let first_denied = (0..u64::from(period)).find(|&t| !s.allows(1, t)).unwrap();
        assert!((first_denied..u64::from(period)).all(|t| !s.allows(1, t)));
    }

    #[test]
    fn weighted_windows_partition_every_turn() {
        let s = AppSched::Weighted {
            weight_first: 2,
            weight_rest: 1,
        };
        let mut first = 0u64;
        let mut rest = 0u64;
        for turn in 0..3_000 {
            let a0 = s.allows(0, turn);
            let a1 = s.allows(1, turn);
            assert!(a0 ^ a1, "exactly one side owns each turn");
            if a0 {
                first += 1;
            } else {
                rest += 1;
            }
        }
        // One full period (3 × 500 turns): 2:1 exactly.
        assert_eq!(first, 2_000);
        assert_eq!(rest, 1_000);
    }

    #[test]
    fn weighted_tolerates_zero_weights_defensively() {
        let s = AppSched::Weighted {
            weight_first: 0,
            weight_rest: 0,
        };
        // max(1) clamping: no panic, both sides get turns over a period.
        let first = (0..1_000u64).filter(|&t| s.allows(0, t)).count();
        assert!(first > 0 && first < 1_000);
    }

    /// A port holds one cable: re-linking a connected port must fail
    /// loudly instead of silently overwriting the topology.
    #[test]
    fn linking_a_connected_port_is_an_error() {
        let mut sim = NetSim::new(CostModel::morello());
        let a = sim.add_dev(NicModel::Host).unwrap();
        let b = sim.add_dev(NicModel::Host).unwrap();
        let c = sim.add_dev(NicModel::Host).unwrap();
        sim.link(a, 0, b, 0).unwrap();
        let err = sim.link(a, 0, c, 0).unwrap_err();
        assert!(
            matches!(&err, CapnetError::Config(m) if m.contains("already cabled")),
            "got {err}"
        );
        // The same port cannot be attached to a switch either.
        let sw = sim.add_switch(2).unwrap();
        assert!(sim.attach(a, 0, sw, 0).is_err());
        // A fresh port attaches fine; its switch port is then taken too.
        sim.attach(c, 0, sw, 0).unwrap();
        let d = sim.add_dev(NicModel::Host).unwrap();
        assert!(sim.attach(d, 0, sw, 0).is_err());
        sim.attach(d, 0, sw, 1).unwrap();
    }

    #[test]
    fn link_validates_port_ranges_and_self_links() {
        let mut sim = NetSim::new(CostModel::morello());
        let a = sim.add_dev(NicModel::Host).unwrap();
        let b = sim.add_dev(NicModel::Host).unwrap();
        assert!(sim.link(a, 1, b, 0).is_err(), "Host NIC has one port");
        assert!(sim.link(a, 0, a, 0).is_err(), "self-link rejected");
        assert!(sim.add_switch(1).is_err(), "one-port switch rejected");
        assert!(sim.add_switch_with_queue(2, 0).is_err(), "zero queue");
        let sw = sim.add_switch(2).unwrap();
        assert!(sim.attach(a, 0, sw, 7).is_err(), "switch port range");
        let sw2 = sim.add_switch(2).unwrap();
        assert!(sim.link_switches(sw, 0, sw, 0).is_err(), "self-trunk");
        sim.link_switches(sw, 0, sw2, 0).unwrap();
        assert!(sim.link_switches(sw, 0, sw2, 1).is_err(), "trunk port busy");
    }

    /// A single 1 Gbit/s flow between two ideal hosts must reach the
    /// 941 Mbit/s TCP goodput ceiling — the physics check underneath all of
    /// Table II.
    #[test]
    fn single_flow_hits_941() {
        let costs = CostModel::morello();
        let mut sim = NetSim::new(costs);
        let a = sim.add_dev(NicModel::Host).unwrap();
        let b = sim.add_dev(NicModel::Host).unwrap();
        sim.link(a, 0, b, 0).unwrap();
        let srv = sim
            .add_node(
                "srv",
                a,
                0,
                Ipv4Addr::new(10, 0, 0, 1),
                IsolationProfile::default(),
            )
            .unwrap();
        let cli = sim
            .add_node(
                "cli",
                b,
                0,
                Ipv4Addr::new(10, 0, 0, 2),
                IsolationProfile::default(),
            )
            .unwrap();
        sim.add_server(srv, "srv", 5201).unwrap();
        sim.add_client(
            cli,
            "cli",
            (Ipv4Addr::new(10, 0, 0, 1), 5201),
            SimDuration::from_millis(180),
            SimDuration::ZERO,
        )
        .unwrap();
        let out = sim.run(SimDuration::from_millis(200)).unwrap();
        let bw = out.servers[0].mbit_per_sec();
        assert!(
            (bw - 941.0).abs() < 15.0,
            "single flow should reach ≈941 Mbit/s, got {bw:.0}"
        );
    }
}
