//! The paper's system designs (§III) as runnable simulation topologies.
//!
//! Each design is one [`Layout`], read through [`ScenarioKind::layout`]:
//! which of the app, F-Stack, DPDK and the NIC-register proxy share a
//! protection domain, and how many of the 82576's ports it drives. The
//! table holds the paper's Baseline (two-process and single-process),
//! Scenario 1 (the whole stack per cVM, one per port) and Scenario 2 (apps
//! split from one F-Stack/DPDK service, uncontended and contended), and
//! its two future-work splits as extensions: Scenario 3 (DPDK split from
//! F-Stack) and Scenario 4 (every component in its own cVM). The per-call
//! crossings and their cost, the flows per port and the Figs. 4–6 rig are
//! derived from the partition.
//!
//! Traffic always runs against ideal measurement hosts cabled to the DUT's
//! 82576 ports, mirroring the paper's server (receiver) and client (sender)
//! iperf runs.

use crate::netsim::{
    AppSched, Fault, IsolationProfile, NetSim, NodeConfig, NodeId, SimOutcome, SwitchId,
};
use crate::CapnetError;
use capnet_chaos::ChaosConfig;
use capnet_httpd::{FleetConfig, HttpServerConfig, HTTPD_PORT};
use fstack::CcAlgo;
use simkern::cost::CostModel;
use simkern::time::{SimDuration, SimTime};
use std::fmt;
use std::net::Ipv4Addr;
use updk::nic::NicModel;
use updk::wire::Impairments;

/// Which §III design to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Two MMU-isolated processes, each owning one port (no CHERI).
    BaselineTwoProcess,
    /// One process, one port (no CHERI).
    BaselineSingleProcess,
    /// Full stack replicated per cVM (two cVMs, two ports).
    Scenario1,
    /// App cVM + F-Stack/DPDK service cVM, one app (uncontended).
    Scenario2Uncontended,
    /// Two app cVMs contending on the service mutex.
    Scenario2Contended,
    /// Extension (paper future work (i)): app + F-Stack cVM + DPDK cVM.
    Scenario3,
    /// Extension (paper future work (ii), "separation of the entire
    /// stack"): app, F-Stack, DPDK and the NIC-register proxy each in
    /// their own cVM.
    Scenario4,
}

/// One software component of the DUT's network path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// The iperf application.
    App,
    /// The second iperf application, contending for the same service.
    App2,
    /// The F-Stack TCP/IP library.
    FStack,
    /// The DPDK poll-mode driver.
    Dpdk,
    /// The proxy that owns the NIC's registers.
    NicProxy,
}

use Component::{App, App2, Dpdk, FStack, NicProxy};

/// A §III design as data: the partition of [`Component`]s into protection
/// domains, and what the testbed needs to run it. Everything else about a
/// scenario is derived from these fields.
#[derive(Debug, Clone, Copy)]
pub struct Layout {
    /// The Table II label.
    pub label: &'static str,
    /// The 82576 ports in use; the layout is replicated on each.
    pub ports: usize,
    /// `true` when the domains are cVMs, `false` when MMU processes.
    pub cheri: bool,
    /// The DUT apps' report labels: port by port, app by app within one.
    pub dut_labels: &'static [&'static str],
    /// The protection domains, in the order their cVMs are created.
    pub domains: &'static [&'static [Component]],
}

impl Layout {
    /// The index of the domain holding `component`, if the layout has it.
    pub fn domain_of(&self, component: Component) -> Option<usize> {
        self.domains.iter().position(|d| d.contains(&component))
    }

    /// Compartment crossings per `ff_*` call: the domain changes along the
    /// call's path, app → F-Stack → DPDK → NIC proxy.
    pub fn crossings(&self) -> u64 {
        let path = [App, FStack, Dpdk, NicProxy].map(|c| self.domain_of(c));
        path.windows(2).filter(|w| w[0] != w[1]).count() as u64
    }

    /// The apps on each port, one iperf flow each.
    pub fn apps(&self) -> usize {
        self.domains
            .iter()
            .flat_map(|d| d.iter())
            .filter(|c| matches!(c, App | App2))
            .count()
    }

    /// The DUT hosts' charge: one `xcall_ns` per crossing, plus the
    /// service mutex's fast path whenever the app calls into a service.
    /// The deeper splits add crossings but no further mutexes: their
    /// compartment-to-compartment packet hand-offs ride single-producer/
    /// single-consumer rings (as DPDK's do), which need no lock.
    pub fn profile(&self, costs: &CostModel) -> IsolationProfile {
        let crossings = self.crossings();
        let s2_service = crossings > 0;
        let mutex_ns = if s2_service { costs.mutex_fast_ns } else { 0 };
        IsolationProfile {
            per_ff_call_ns: crossings * costs.xcall_ns + mutex_ns,
            s2_service,
        }
    }
}

/// The whole stack in one domain.
const MONOLITH: &[&[Component]] = &[&[App, FStack, Dpdk, NicProxy]];

const BASELINE_TWO_PROCESS: Layout = Layout {
    label: "Baseline (two processes)",
    ports: 2,
    cheri: false,
    dut_labels: &["cVM1", "cVM2"],
    domains: MONOLITH,
};
const BASELINE_SINGLE_PROCESS: Layout = Layout {
    label: "Baseline (single process)",
    ports: 1,
    cheri: false,
    dut_labels: &["Baseline"],
    domains: MONOLITH,
};
const SCENARIO_1: Layout = Layout {
    label: "Scenario 1",
    ports: 2,
    cheri: true,
    dut_labels: &["cVM1", "cVM2"],
    domains: MONOLITH,
};
const SCENARIO_2_UNCONTENDED: Layout = Layout {
    label: "Scenario 2 (uncontended)",
    ports: 1,
    cheri: true,
    dut_labels: &["cVM2"],
    domains: &[&[App], &[FStack, Dpdk, NicProxy]],
};
const SCENARIO_2_CONTENDED: Layout = Layout {
    label: "Scenario 2 (contended)",
    ports: 1,
    cheri: true,
    dut_labels: &["cVM2", "cVM3"],
    domains: &[&[App], &[FStack, Dpdk, NicProxy], &[App2]],
};
const SCENARIO_3: Layout = Layout {
    label: "Scenario 3 (extension)",
    ports: 1,
    cheri: true,
    dut_labels: &["cVM1"],
    domains: &[&[App], &[FStack], &[Dpdk, NicProxy]],
};
const SCENARIO_4: Layout = Layout {
    label: "Scenario 4 (extension: full split)",
    ports: 1,
    cheri: true,
    dut_labels: &["cVM1"],
    domains: &[&[App], &[FStack], &[Dpdk], &[NicProxy]],
};

impl ScenarioKind {
    /// All scenarios in Table II order (the extensions last).
    pub fn all() -> [ScenarioKind; 7] {
        [
            ScenarioKind::BaselineTwoProcess,
            ScenarioKind::Scenario1,
            ScenarioKind::BaselineSingleProcess,
            ScenarioKind::Scenario2Uncontended,
            ScenarioKind::Scenario2Contended,
            ScenarioKind::Scenario3,
            ScenarioKind::Scenario4,
        ]
    }

    /// The design's compartment layout.
    pub fn layout(self) -> &'static Layout {
        match self {
            ScenarioKind::BaselineTwoProcess => &BASELINE_TWO_PROCESS,
            ScenarioKind::BaselineSingleProcess => &BASELINE_SINGLE_PROCESS,
            ScenarioKind::Scenario1 => &SCENARIO_1,
            ScenarioKind::Scenario2Uncontended => &SCENARIO_2_UNCONTENDED,
            ScenarioKind::Scenario2Contended => &SCENARIO_2_CONTENDED,
            ScenarioKind::Scenario3 => &SCENARIO_3,
            ScenarioKind::Scenario4 => &SCENARIO_4,
        }
    }
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.layout().label)
    }
}

/// Which side of the iperf pair the DUT plays (Table II columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficMode {
    /// The DUT receives (iperf server mode).
    Server,
    /// The DUT sends (iperf client mode).
    Client,
}

impl fmt::Display for TrafficMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrafficMode::Server => "Server",
            TrafficMode::Client => "Client",
        })
    }
}

const DUT_IP: [Ipv4Addr; 2] = [Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 1, 1)];
const PEER_IP: [Ipv4Addr; 2] = [Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 0, 1, 2)];

/// The shape of the network a [`ScenarioSpec`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Topology {
    /// The paper's two-hosts-on-a-cable testbed, in one of its §III
    /// compartmentalization designs.
    Paper(ScenarioKind, TrafficMode),
    /// N leaves and a hub host on one learning switch.
    Star(usize),
    /// N client/server pairs on two switches joined by a trunk.
    Dumbbell(usize),
}

/// The traffic a [`ScenarioSpec`] drives over its topology.
#[derive(Debug, Clone)]
enum Workload {
    /// Bulk TCP transfer (the paper's measurement).
    Iperf,
    /// The HTTP serving plane: a static server at the receiving end of
    /// each flow path, an open-loop client fleet at the sending end.
    Httpd {
        server: HttpServerConfig,
        fleet: FleetConfig,
    },
}

/// What a scheduled fault does to its target.
///
/// Paired with a [`FaultTarget`] and a virtual-time offset in a
/// [`FaultPlan`] entry. The `*Down`/`*Fail`/`Crash` ops have matching
/// `*Up`/`*Recover`/`Restart` inverses; a plan that never heals a fault
/// simply leaves the domain dark for the rest of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Blackhole the target host's access link (both directions).
    LinkDown,
    /// Heal a previous [`FaultOp::LinkDown`] on the same host.
    LinkUp,
    /// Fail the target switch: every ingress frame is dropped.
    SwitchFail,
    /// Recover the target switch; its MAC table restarts cold.
    SwitchRecover,
    /// Power-cycle the target host down: stack and apps are destroyed,
    /// in-flight frames to it die on the wire.
    NodeCrash,
    /// Boot the crashed host back up: a factory-fresh stack plus every
    /// app the scenario originally installed (listeners re-established,
    /// fleets restarted with their original seeds).
    NodeRestart,
}

/// Who a scheduled fault hits, in topology-relative terms.
///
/// Resolved to concrete node/switch ids when [`ScenarioSpec::run`] builds
/// the topology, so one plan is portable across sizes of the same shape.
/// `Hub`/`Leaf` only exist on the star; `Client`/`Server` only on the
/// dumbbell; `Switch(0)` is the star's single fabric or the dumbbell's
/// left switch (`Switch(1)` its right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTarget {
    /// The star's hub host.
    Hub,
    /// Star leaf `i`.
    Leaf(usize),
    /// Dumbbell client `i` (left side).
    Client(usize),
    /// Dumbbell server `i` (right side).
    Server(usize),
    /// Switch `i` in topology construction order.
    Switch(usize),
}

/// A deterministic fault schedule: virtual-time-stamped link, switch and
/// node faults executed as first-class simulation events.
///
/// Offsets are relative to boot ([`SimTime::ZERO`]). The plan is part of
/// the scenario's input tuple: the same spec (plan included) produces a
/// byte-identical [`SimOutcome::trace`] at any [`ScenarioSpec::workers`]
/// count, and an **empty plan schedules nothing** — a fault-free run's
/// digest is provably unchanged by this subsystem existing.
///
/// ```no_run
/// # use capnet::scenario::{FaultPlan, FaultTarget, ScenarioSpec};
/// # use simkern::time::SimDuration;
/// let ms = SimDuration::from_millis;
/// let out = ScenarioSpec::star(4)
///     .faults(
///         FaultPlan::new()
///             .link_down(ms(20), FaultTarget::Hub)
///             .link_up(ms(35), FaultTarget::Hub)
///             .node_crash(ms(50), FaultTarget::Leaf(2))
///             .node_restart(ms(70), FaultTarget::Leaf(2)),
///     )
///     .run();
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<(SimDuration, FaultOp, FaultTarget)>,
}

impl FaultPlan {
    /// An empty plan (schedules nothing; digest-free).
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Schedules `op` against `target` at boot-relative offset `at`.
    #[must_use]
    pub fn event(mut self, at: SimDuration, op: FaultOp, target: FaultTarget) -> Self {
        self.events.push((at, op, target));
        self
    }

    /// Blackholes `target`'s access link at `at`.
    #[must_use]
    pub fn link_down(self, at: SimDuration, target: FaultTarget) -> Self {
        self.event(at, FaultOp::LinkDown, target)
    }

    /// Heals `target`'s access link at `at`.
    #[must_use]
    pub fn link_up(self, at: SimDuration, target: FaultTarget) -> Self {
        self.event(at, FaultOp::LinkUp, target)
    }

    /// Fails switch `target` at `at`.
    #[must_use]
    pub fn switch_fail(self, at: SimDuration, target: FaultTarget) -> Self {
        self.event(at, FaultOp::SwitchFail, target)
    }

    /// Recovers switch `target` at `at` (MAC table cold).
    #[must_use]
    pub fn switch_recover(self, at: SimDuration, target: FaultTarget) -> Self {
        self.event(at, FaultOp::SwitchRecover, target)
    }

    /// Crashes host `target` at `at`.
    #[must_use]
    pub fn node_crash(self, at: SimDuration, target: FaultTarget) -> Self {
        self.event(at, FaultOp::NodeCrash, target)
    }

    /// Restarts host `target` at `at` with its original apps.
    #[must_use]
    pub fn node_restart(self, at: SimDuration, target: FaultTarget) -> Self {
        self.event(at, FaultOp::NodeRestart, target)
    }
}

/// A [`FaultTarget`] resolved against a built topology.
#[derive(Debug, Clone, Copy)]
enum ResolvedTarget {
    Node(NodeId),
    Switch(SwitchId),
}

/// Combines an op with its resolved target, rejecting host ops aimed at
/// switches and switch ops aimed at hosts.
fn fault_event(
    op: FaultOp,
    target: FaultTarget,
    resolved: ResolvedTarget,
) -> Result<Fault, CapnetError> {
    match (op, resolved) {
        (FaultOp::LinkDown, ResolvedTarget::Node(node)) => Ok(Fault::LinkDown { node }),
        (FaultOp::LinkUp, ResolvedTarget::Node(node)) => Ok(Fault::LinkUp { node }),
        (FaultOp::NodeCrash, ResolvedTarget::Node(node)) => Ok(Fault::NodeCrash { node }),
        (FaultOp::NodeRestart, ResolvedTarget::Node(node)) => Ok(Fault::NodeRestart { node }),
        (FaultOp::SwitchFail, ResolvedTarget::Switch(sw)) => Ok(Fault::SwitchFail { sw }),
        (FaultOp::SwitchRecover, ResolvedTarget::Switch(sw)) => Ok(Fault::SwitchRecover { sw }),
        (FaultOp::SwitchFail | FaultOp::SwitchRecover, ResolvedTarget::Node(_)) => Err(
            CapnetError::Config(format!("{op:?} needs a switch target, got {target:?}")),
        ),
        (_, ResolvedTarget::Switch(_)) => Err(CapnetError::Config(format!(
            "{op:?} needs a host target, got {target:?}"
        ))),
    }
}

/// A declarative scenario: **one builder, one [`ScenarioSpec::run`]** —
/// the single front door to every topology and workload in the crate.
///
/// Pick a topology with one of the constructors ([`ScenarioSpec::paper`],
/// [`ScenarioSpec::star`], [`ScenarioSpec::dumbbell`]), chain the knobs
/// you care about, and call [`ScenarioSpec::run`]; a spec names only what
/// it changes from the defaults. The outcome is a pure function of the
/// spec: the returned [`SimOutcome::trace`] digest is byte-identical at
/// any [`ScenarioSpec::workers`] count.
///
/// ```no_run
/// # use capnet::scenario::ScenarioSpec;
/// # use simkern::cost::CostModel;
/// # use simkern::time::SimDuration;
/// # use fstack::CcAlgo;
/// let out = ScenarioSpec::star(4)
///     .duration(SimDuration::from_millis(80))
///     .costs(CostModel::morello())
///     .seed(7)
///     .workers(2)
///     .congestion(CcAlgo::Cubic)
///     .sack(true)
///     .run();
/// ```
///
/// The HTTP serving plane swaps the workload, not the topology:
///
/// ```no_run
/// # use capnet::scenario::ScenarioSpec;
/// # use capnet_httpd::{FleetConfig, HttpServerConfig};
/// let out = ScenarioSpec::star(4)
///     .http(
///         HttpServerConfig::default(),
///         FleetConfig {
///             rate_per_sec: 3000,
///             keep_alive_per_mille: 300,
///             ..FleetConfig::default()
///         },
///     )
///     .run();
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    topology: Topology,
    workload: Workload,
    duration: SimDuration,
    costs: CostModel,
    seed: Option<u64>,
    impairments: Impairments,
    workers: usize,
    adaptive_workers: bool,
    cc: Option<CcAlgo>,
    sack: Option<bool>,
    pair_cc: Vec<CcAlgo>,
    sched: AppSched,
    chaos: Option<ChaosConfig>,
    isolation_ns: u64,
    faults: FaultPlan,
}

impl ScenarioSpec {
    fn new(topology: Topology) -> Self {
        ScenarioSpec {
            topology,
            workload: Workload::Iperf,
            duration: SimDuration::from_millis(100),
            costs: CostModel::morello(),
            seed: None,
            impairments: Impairments::default(),
            workers: 1,
            adaptive_workers: true,
            cc: None,
            sack: None,
            pair_cc: Vec::new(),
            sched: AppSched::RoundRobin,
            chaos: None,
            isolation_ns: 0,
            faults: FaultPlan::new(),
        }
    }

    /// The paper's two-hosts-on-a-cable testbed running design `kind`
    /// with the DUT on the `mode` side of the transfer.
    pub fn paper(kind: ScenarioKind, mode: TrafficMode) -> Self {
        Self::new(Topology::Paper(kind, mode))
    }

    /// An N-leaf star: `leaves` hosts and a hub on one learning switch,
    /// every flow sharing the hub-facing egress port.
    pub fn star(leaves: usize) -> Self {
        Self::new(Topology::Star(leaves))
    }

    /// A dumbbell: `pairs` client/server pairs on two switches joined by
    /// one shared trunk.
    pub fn dumbbell(pairs: usize) -> Self {
        Self::new(Topology::Dumbbell(pairs))
    }

    /// The measured traffic window (default 100 ms). The simulation runs
    /// 30 ms longer for handshakes before and FIN/TIME_WAIT drains after.
    #[must_use]
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// The calibrated host cost model (default [`CostModel::morello`]).
    #[must_use]
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Seeds every deterministic random stream (impairment draws, fleet
    /// arrivals). Unset, the simulation keeps [`NetSim`]'s default seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Degrades every cable with loss/corruption/duplication/reordering/
    /// jitter (default: ideal cables).
    #[must_use]
    pub fn impairments(mut self, impairments: Impairments) -> Self {
        self.impairments = impairments;
        self
    }

    /// Shards the run over `workers` engines (default 1). The outcome is
    /// byte-identical at any count; only wall time changes.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables/disables adaptive worker selection (default: enabled — an
    /// unprofitable shard plan transparently collapses to the
    /// single-engine loop; see [`NetSim::set_adaptive_workers`]). Tests
    /// and benchmarks pass `false` to force small topologies through the
    /// sharded drivers.
    #[must_use]
    pub fn adaptive_workers(mut self, adaptive: bool) -> Self {
        self.adaptive_workers = adaptive;
        self
    }

    /// TCP congestion control for **every** host (default: the stack's
    /// Reno). On the dumbbell, [`ScenarioSpec::pair_cc`] overrides this
    /// per sender.
    #[must_use]
    pub fn congestion(mut self, cc: CcAlgo) -> Self {
        self.cc = Some(cc);
        self
    }

    /// SACK negotiation at every host (default: the stack's off). Both
    /// ends must offer it for a connection to use it.
    #[must_use]
    pub fn sack(mut self, sack: bool) -> Self {
        self.sack = Some(sack);
        self
    }

    /// Dumbbell only: pair `i`'s sender runs `algos[i % algos.len()]`
    /// (an empty slice keeps [`ScenarioSpec::congestion`]'s choice).
    #[must_use]
    pub fn pair_cc(mut self, algos: &[CcAlgo]) -> Self {
        self.pair_cc = algos.to_vec();
        self
    }

    /// Paper topology only: the app-cVM scheduling policy of the
    /// Scenario 2 service mutex (default round-robin;
    /// [`AppSched::paper_barging`] reproduces Table II's contended split).
    #[must_use]
    pub fn app_sched(mut self, sched: AppSched) -> Self {
        self.sched = sched;
        self
    }

    /// Switches the workload from bulk iperf transfer to the HTTP
    /// serving plane: a static server behind each flow path's receiving
    /// host, an open-loop client fleet on each sending host. The fleet's
    /// `target` and `open_for` fields are overwritten by the spec (the
    /// hub/server address and [`ScenarioSpec::duration`] respectively).
    #[must_use]
    pub fn http(mut self, server: HttpServerConfig, fleet: FleetConfig) -> Self {
        self.workload = Workload::Httpd { server, fleet };
        self
    }

    /// Star/dumbbell only: installs a fault-injection campaign beside the
    /// workload — on the first leaf (star) or the first client (dumbbell).
    /// Its wire adversary, if enabled, is retargeted at the workload's
    /// server address; the capability walker and bit-flip injector run in
    /// their own arenas. The campaign RNG derives from
    /// [`ScenarioSpec::seed`], so runs stay byte-identical at any
    /// [`ScenarioSpec::workers`] count.
    #[must_use]
    pub fn chaos(mut self, cfg: ChaosConfig) -> Self {
        self.chaos = Some(cfg);
        self
    }

    /// Star/dumbbell only: installs a deterministic fault schedule — link
    /// blackholes, switch failures, host crash/restart cycles — executed
    /// as first-class simulation events at the plan's virtual-time
    /// offsets. Targets are resolved against the built topology (a
    /// [`FaultTarget::Hub`] plan on a dumbbell is a configuration error).
    /// An empty plan (the default) schedules nothing and leaves the run's
    /// digest untouched.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Star/dumbbell only: charges every host `ns` nanoseconds per
    /// application `ff_*` call — the cross-compartment trampoline cost of
    /// full isolation (default 0: intra-domain calls). The isolation
    /// bench sweeps this knob to price capability enforcement under load.
    #[must_use]
    pub fn isolation_cost(mut self, ns: u64) -> Self {
        self.isolation_ns = ns;
        self
    }

    /// Builds the topology and runs it to completion.
    ///
    /// # Errors
    ///
    /// Configuration errors (an HTTP workload on the paper's testbed,
    /// bad topology parameters) and datapath capability faults.
    pub fn run(self) -> Result<SimOutcome, CapnetError> {
        match self.topology {
            Topology::Paper(kind, mode) => self.run_paper(kind, mode),
            Topology::Star(leaves) => self.run_star(leaves),
            Topology::Dumbbell(pairs) => self.run_dumbbell(pairs),
        }
    }

    /// An empty simulation carrying the spec's run-wide knobs.
    fn new_sim(&self) -> NetSim {
        let mut sim = NetSim::new(self.costs.clone());
        if let Some(seed) = self.seed {
            sim.set_seed(seed);
        }
        sim.set_impairments(self.impairments);
        sim.set_app_sched(self.sched);
        sim.set_workers(self.workers);
        sim.set_adaptive_workers(self.adaptive_workers);
        sim
    }

    /// Charges every host in `hosts` the spec's per-`ff_*`-call isolation
    /// cost (nothing at the default 0).
    fn charge_isolation<'a>(&self, sim: &mut NetSim, hosts: impl Iterator<Item = &'a NodeId>) {
        if self.isolation_ns > 0 {
            let profile = IsolationProfile {
                per_ff_call_ns: self.isolation_ns,
                s2_service: false,
            };
            for &host in hosts {
                sim.set_node_profile(host, profile);
            }
        }
    }

    /// The per-host protocol configuration this spec asks for.
    fn node_config(&self) -> NodeConfig {
        NodeConfig {
            cc: self.cc,
            sack: self.sack,
        }
    }

    /// A fleet configuration retargeted at `(ip, HTTPD_PORT)` with its
    /// open window pinned to the spec's duration.
    fn fleet_for(&self, fleet: &FleetConfig, ip: Ipv4Addr) -> FleetConfig {
        FleetConfig {
            target: (ip, HTTPD_PORT),
            open_for: self.duration,
            ..fleet.clone()
        }
    }

    /// Resolves the fault plan through `resolve` (topology-relative
    /// target → concrete host/switch) and schedules every event.
    fn schedule_faults(
        &self,
        sim: &mut NetSim,
        resolve: impl Fn(FaultTarget) -> Result<ResolvedTarget, CapnetError>,
    ) -> Result<(), CapnetError> {
        for &(at, op, target) in &self.faults.events {
            let fault = fault_event(op, target, resolve(target)?)?;
            sim.add_fault(SimTime::ZERO + at, fault);
        }
        Ok(())
    }

    /// The chaos campaign retargeted at `ip`: the wire adversary (when
    /// enabled) fuzzes the workload's server address, and the TCP forger
    /// impersonates the real client at `peer` against `ip`'s listener;
    /// the other injector families carry no network target.
    fn chaos_for(&self, cfg: &ChaosConfig, ip: Ipv4Addr, peer: Ipv4Addr) -> ChaosConfig {
        let mut cfg = cfg.clone();
        if let Some(wire) = &mut cfg.wire {
            wire.target_ip = ip;
        }
        if let Some(forge) = &mut cfg.forge {
            forge.victim_ip = ip;
            forge.victim_port = HTTPD_PORT;
            forge.client_ip = peer;
        }
        cfg
    }

    /// The paper testbed (§III). Construction order (devices, nodes, apps)
    /// is digest-visible: the pinned Table II digests depend on it.
    fn run_paper(self, kind: ScenarioKind, mode: TrafficMode) -> Result<SimOutcome, CapnetError> {
        if matches!(self.workload, Workload::Httpd { .. }) {
            return Err(CapnetError::Config(
                "the HTTP serving plane runs on star/dumbbell topologies; \
                 the paper testbed measures bulk transfer"
                    .into(),
            ));
        }
        if !self.faults.is_empty() {
            return Err(CapnetError::Config(
                "fault plans run on star/dumbbell topologies; the paper \
                 testbed has no topology-relative fault targets"
                    .into(),
            ));
        }
        let mut sim = self.new_sim();
        let dut_dev = sim.add_dev(NicModel::Dual82576)?;
        let traffic = self.duration;
        // Leave room for handshakes before and FIN drains after the timed
        // part.
        let run_for = self.duration + SimDuration::from_millis(30);

        let layout = kind.layout();
        let profile = layout.profile(&self.costs);
        let flows = layout.apps();

        for port in 0..layout.ports {
            let peer_dev = sim.add_dev(NicModel::Host)?;
            sim.link(dut_dev, port, peer_dev, 0)?;
            let dut = sim.add_node(
                format!("cVM{}", port + 1),
                dut_dev,
                port,
                DUT_IP[port],
                profile,
            )?;
            let peer = sim.add_node(
                format!("host{}", port + 1),
                peer_dev,
                0,
                PEER_IP[port],
                IsolationProfile::default(),
            )?;
            sim.configure_node(dut, self.node_config());
            sim.configure_node(peer, self.node_config());
            for flow in 0..flows {
                let svc_port = 5201 + flow as u16;
                let dut_label = layout.dut_labels[port * flows + flow];
                match mode {
                    TrafficMode::Server => {
                        sim.add_server(dut, dut_label, svc_port)?;
                        sim.add_client(
                            peer,
                            format!("host{}-tx{}", port + 1, flow),
                            (DUT_IP[port], svc_port),
                            traffic,
                            SimDuration::ZERO,
                        )?;
                    }
                    TrafficMode::Client => {
                        sim.add_server(peer, format!("host{}-rx{}", port + 1, flow), svc_port)?;
                        sim.add_client(
                            dut,
                            dut_label,
                            (PEER_IP[port], svc_port),
                            traffic,
                            SimDuration::ZERO,
                        )?;
                    }
                }
            }
        }
        sim.run(run_for)
    }

    /// The N-leaf star (construction order is digest-visible).
    fn run_star(self, leaves: usize) -> Result<SimOutcome, CapnetError> {
        let mut sim = self.new_sim();
        let star = crate::topology::build_star(&mut sim, leaves)?;
        sim.configure_node(star.hub, self.node_config());
        for &leaf in &star.leaves {
            sim.configure_node(leaf, self.node_config());
        }
        match &self.workload {
            Workload::Iperf => {
                for (i, &leaf) in star.leaves.iter().enumerate() {
                    let port = STAR_PORT + i as u16;
                    sim.add_server(star.hub, format!("hub-rx{i}"), port)?;
                    sim.add_client(
                        leaf,
                        format!("leaf-tx{i}"),
                        (star.hub_ip, port),
                        self.duration,
                        SimDuration::ZERO,
                    )?;
                }
            }
            Workload::Httpd { server, fleet } => {
                // One serving plane, many users: a single hub server,
                // every leaf an independent open-loop fleet against it.
                sim.add_http_server(star.hub, "hub-httpd", HTTPD_PORT, server.clone())?;
                for (i, &leaf) in star.leaves.iter().enumerate() {
                    let cfg = self.fleet_for(fleet, star.hub_ip);
                    sim.add_http_fleet(leaf, format!("leaf-fleet{i}"), cfg)?;
                }
            }
        }
        if let Some(chaos) = &self.chaos {
            let peer = *star.leaf_ips.last().expect("star has at least one leaf");
            let cfg = self.chaos_for(chaos, star.hub_ip, peer);
            sim.add_chaos(star.leaves[0], "star-chaos", cfg)?;
        }
        self.schedule_faults(&mut sim, |target| match target {
            FaultTarget::Hub => Ok(ResolvedTarget::Node(star.hub)),
            FaultTarget::Leaf(i) => {
                star.leaves
                    .get(i)
                    .copied()
                    .map(ResolvedTarget::Node)
                    .ok_or(CapnetError::Config(format!(
                        "star has {leaves} leaves, no Leaf({i})"
                    )))
            }
            FaultTarget::Switch(0) => Ok(ResolvedTarget::Switch(star.switch)),
            FaultTarget::Switch(i) => Err(CapnetError::Config(format!(
                "star has one switch, no Switch({i})"
            ))),
            FaultTarget::Client(_) | FaultTarget::Server(_) => Err(CapnetError::Config(format!(
                "{target:?} is a dumbbell target; the star addresses Hub/Leaf(i)"
            ))),
        })?;
        self.charge_isolation(&mut sim, star.leaves.iter().chain([&star.hub]));
        // Room for ARP + handshakes before and FIN drains after the timed
        // part.
        sim.run(self.duration + SimDuration::from_millis(30))
    }

    /// The dumbbell (construction order is digest-visible).
    fn run_dumbbell(self, pairs: usize) -> Result<SimOutcome, CapnetError> {
        let mut sim = self.new_sim();
        let bell = crate::topology::build_dumbbell(&mut sim, pairs)?;
        for i in 0..pairs {
            sim.configure_node(bell.servers[i], self.node_config());
            let mut sender = self.node_config();
            if !self.pair_cc.is_empty() {
                sender.cc = Some(self.pair_cc[i % self.pair_cc.len()]);
            }
            sim.configure_node(bell.clients[i], sender);
            match &self.workload {
                Workload::Iperf => {
                    let port = DUMBBELL_PORT + i as u16;
                    sim.add_server(bell.servers[i], format!("srv-rx{i}"), port)?;
                    sim.add_client(
                        bell.clients[i],
                        format!("cli-tx{i}"),
                        (bell.server_ips[i], port),
                        self.duration,
                        SimDuration::ZERO,
                    )?;
                }
                Workload::Httpd { server, fleet } => {
                    // Per-pair serving planes: each right-side host serves
                    // its left-side fleet across the shared trunk.
                    sim.add_http_server(
                        bell.servers[i],
                        format!("srv-httpd{i}"),
                        HTTPD_PORT,
                        server.clone(),
                    )?;
                    let cfg = self.fleet_for(fleet, bell.server_ips[i]);
                    sim.add_http_fleet(bell.clients[i], format!("cli-fleet{i}"), cfg)?;
                }
            }
        }
        if let Some(chaos) = &self.chaos {
            let peer = *bell
                .client_ips
                .last()
                .expect("dumbbell has at least one client");
            let cfg = self.chaos_for(chaos, bell.server_ips[0], peer);
            sim.add_chaos(bell.clients[0], "bell-chaos", cfg)?;
        }
        self.schedule_faults(&mut sim, |target| match target {
            FaultTarget::Client(i) => bell
                .clients
                .get(i)
                .copied()
                .map(ResolvedTarget::Node)
                .ok_or(CapnetError::Config(format!(
                    "dumbbell has {pairs} pairs, no Client({i})"
                ))),
            FaultTarget::Server(i) => bell
                .servers
                .get(i)
                .copied()
                .map(ResolvedTarget::Node)
                .ok_or(CapnetError::Config(format!(
                    "dumbbell has {pairs} pairs, no Server({i})"
                ))),
            FaultTarget::Switch(0) => Ok(ResolvedTarget::Switch(bell.left)),
            FaultTarget::Switch(1) => Ok(ResolvedTarget::Switch(bell.right)),
            FaultTarget::Switch(i) => Err(CapnetError::Config(format!(
                "dumbbell has two switches, no Switch({i})"
            ))),
            FaultTarget::Hub | FaultTarget::Leaf(_) => Err(CapnetError::Config(format!(
                "{target:?} is a star target; the dumbbell addresses Client(i)/Server(i)"
            ))),
        })?;
        self.charge_isolation(&mut sim, bell.servers.iter().chain(&bell.clients));
        sim.run(self.duration + SimDuration::from_millis(30))
    }
}

/// Port base for the star scenario's per-leaf flows.
const STAR_PORT: u16 = 5301;
/// Port base for the dumbbell scenario's per-pair flows.
const DUMBBELL_PORT: u16 = 5401;

/// Jain's fairness index over per-flow throughputs: `1.0` is a perfectly
/// even split, `1/n` is total starvation of all but one flow. Empty input
/// returns `0.0`.
pub fn fairness_index(mbits: &[f64]) -> f64 {
    if mbits.is_empty() {
        return 0.0;
    }
    let sum: f64 = mbits.iter().sum();
    let sq_sum: f64 = mbits.iter().map(|m| m * m).sum();
    if sq_sum == 0.0 {
        return 0.0;
    }
    sum * sum / (mbits.len() as f64 * sq_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scenario property the runs read is derived from the
    /// layout's partition; this is the table it must come to, in
    /// [`ScenarioKind::all`] order.
    #[test]
    fn layouts_derive_crossings_ports_service_and_labels() {
        use ScenarioKind::*;
        let costs = CostModel::morello();
        // (kind, crossings, ports, s2_service, DUT labels)
        let table: [(ScenarioKind, u64, usize, bool, &[&str]); 7] = [
            (BaselineTwoProcess, 0, 2, false, &["cVM1", "cVM2"]),
            (Scenario1, 0, 2, false, &["cVM1", "cVM2"]),
            (BaselineSingleProcess, 0, 1, false, &["Baseline"]),
            (Scenario2Uncontended, 1, 1, true, &["cVM2"]),
            (Scenario2Contended, 1, 1, true, &["cVM2", "cVM3"]),
            (Scenario3, 2, 1, true, &["cVM1"]),
            (Scenario4, 3, 1, true, &["cVM1"]),
        ];
        assert_eq!(ScenarioKind::all(), table.map(|row| row.0));
        for (kind, crossings, ports, s2_service, labels) in table {
            let layout = kind.layout();
            assert_eq!(layout.crossings(), crossings, "{kind}");
            assert_eq!(layout.ports, ports, "{kind}");
            assert_eq!(layout.dut_labels, labels, "{kind}");
            assert_eq!(layout.dut_labels.len(), ports * layout.apps(), "{kind}");
            let profile = layout.profile(&costs);
            let mutex_ns = if s2_service { costs.mutex_fast_ns } else { 0 };
            let per_call = crossings * costs.xcall_ns + mutex_ns;
            assert_eq!(profile.per_ff_call_ns, per_call, "{kind}");
            assert_eq!(profile.s2_service, s2_service, "{kind}");
        }
        assert_eq!(Scenario1.to_string(), "Scenario 1");
        assert_eq!(TrafficMode::Server.to_string(), "Server");
    }

    /// Scenario 2 uncontended, server side: the single flow must reach the
    /// 941 Mbit/s ceiling despite the service-cVM charges — the paper's
    /// headline "maximum bandwidth possible with our hardware".
    #[test]
    fn s2_uncontended_server_hits_941() {
        let out = ScenarioSpec::paper(ScenarioKind::Scenario2Uncontended, TrafficMode::Server)
            .duration(SimDuration::from_millis(150))
            .run()
            .unwrap();
        let bw = out.servers[0].mbit_per_sec();
        assert!((bw - 941.0).abs() < 20.0, "got {bw:.0} Mbit/s");
    }

    #[test]
    fn fairness_index_behaves() {
        assert_eq!(fairness_index(&[]), 0.0);
        assert_eq!(fairness_index(&[0.0, 0.0]), 0.0);
        assert!((fairness_index(&[500.0, 500.0]) - 1.0).abs() < 1e-12);
        // One of two flows starved: index is 1/2.
        assert!((fairness_index(&[900.0, 0.0]) - 0.5).abs() < 1e-12);
    }

    /// Two leaves sharing the star's hub uplink split the 941 Mbit/s
    /// goodput ceiling; the switch's single egress port is the bottleneck.
    #[test]
    fn star_two_clients_share_the_uplink() {
        let out = ScenarioSpec::star(2)
            .duration(SimDuration::from_millis(120))
            .seed(0xA11CE)
            .run()
            .unwrap();
        assert_eq!(out.servers.len(), 2);
        let total: f64 = out.servers.iter().map(|r| r.mbit_per_sec()).sum();
        assert!(
            (total - 941.0).abs() < 45.0,
            "aggregate {total:.0} Mbit/s through the shared uplink"
        );
        assert_eq!(out.switch_stats.len(), 1);
        assert!(out.switch_stats[0].forwarded > 0);
        assert!(out.trace.frames > 0);
    }

    /// The serving plane end to end: a 2-leaf star with modest open-loop
    /// fleets must complete requests, and the paper testbed must refuse
    /// the HTTP workload.
    #[test]
    fn httpd_star_serves_requests() {
        let out = ScenarioSpec::star(2)
            .duration(SimDuration::from_millis(60))
            .seed(0xBEEF)
            .http(
                HttpServerConfig::default(),
                FleetConfig {
                    rate_per_sec: 2_000,
                    ..FleetConfig::default()
                },
            )
            .run()
            .unwrap();
        assert_eq!(out.http_servers.len(), 1);
        assert_eq!(out.http_fleets.len(), 2);
        let ok: u64 = out.http_fleets.iter().map(|f| f.requests_ok).sum();
        let served: u64 = out.http_servers.iter().map(|s| s.ok).sum();
        assert!(ok > 0, "fleets completed no requests");
        assert_eq!(ok, served, "server 200s must match fleet 200s");

        let err = ScenarioSpec::paper(ScenarioKind::Scenario1, TrafficMode::Server)
            .http(HttpServerConfig::default(), FleetConfig::default())
            .run();
        assert!(matches!(err, Err(CapnetError::Config(_))));
    }

    /// Fault plans resolve against the topology they name: star targets
    /// on a dumbbell (and vice versa), out-of-range indices, op/target
    /// kind mismatches and any plan on the paper testbed are
    /// configuration errors.
    #[test]
    fn fault_plan_validation() {
        let ms = SimDuration::from_millis;
        let cases: [(ScenarioSpec, FaultPlan); 5] = [
            (
                ScenarioSpec::dumbbell(2),
                FaultPlan::new().link_down(ms(5), FaultTarget::Hub),
            ),
            (
                ScenarioSpec::star(2),
                FaultPlan::new().node_crash(ms(5), FaultTarget::Leaf(2)),
            ),
            (
                ScenarioSpec::star(2),
                FaultPlan::new().switch_fail(ms(5), FaultTarget::Switch(1)),
            ),
            (
                ScenarioSpec::star(2),
                FaultPlan::new().switch_fail(ms(5), FaultTarget::Hub),
            ),
            (
                ScenarioSpec::paper(ScenarioKind::Scenario1, TrafficMode::Server),
                FaultPlan::new().link_down(ms(5), FaultTarget::Hub),
            ),
        ];
        for (spec, plan) in cases {
            let err = spec.duration(ms(10)).faults(plan.clone()).run();
            assert!(
                matches!(err, Err(CapnetError::Config(_))),
                "plan {plan:?} should be rejected"
            );
        }
    }

    /// End-to-end fault execution: flap the hub uplink and crash/restart
    /// a leaf mid-run. The run completes, every fault is counted once,
    /// and the blackholed window plus the dead leaf cost traffic.
    #[test]
    fn star_survives_link_flap_and_leaf_crash() {
        let ms = SimDuration::from_millis;
        let out = ScenarioSpec::star(3)
            .duration(ms(60))
            .seed(0xFA17)
            .http(
                HttpServerConfig::default(),
                FleetConfig {
                    rate_per_sec: 2_000,
                    ..FleetConfig::default()
                },
            )
            .faults(
                FaultPlan::new()
                    .link_down(ms(20), FaultTarget::Hub)
                    .link_up(ms(30), FaultTarget::Hub)
                    .node_crash(ms(15), FaultTarget::Leaf(2))
                    .node_restart(ms(40), FaultTarget::Leaf(2)),
            )
            .run()
            .unwrap();
        assert_eq!(out.fault_stats.link_down_events, 1);
        assert_eq!(out.fault_stats.link_up_events, 1);
        assert_eq!(out.fault_stats.node_crashes, 1);
        assert_eq!(out.fault_stats.node_restarts, 1);
        assert!(
            out.impairment_stats.blackholed > 0,
            "the downed uplink must blackhole frames"
        );
        let ok: u64 = out.http_fleets.iter().map(|f| f.requests_ok).sum();
        assert!(ok > 0, "surviving fleets must keep completing requests");
    }

    /// Scenario 1 server side: both ports receiving share the PCI bus,
    /// ≈658 Mbit/s each (Table II).
    #[test]
    fn s1_server_is_pci_limited() {
        let out = ScenarioSpec::paper(ScenarioKind::Scenario1, TrafficMode::Server)
            .duration(SimDuration::from_millis(150))
            .run()
            .unwrap();
        assert_eq!(out.servers.len(), 2);
        for r in &out.servers {
            let bw = r.mbit_per_sec();
            assert!((bw - 658.0).abs() < 30.0, "{}: {bw:.0} Mbit/s", r.label);
        }
    }
}
