//! The one application abstraction a [`crate::netsim::NetSim`] node hosts.
//!
//! The paper's subject is the boundary between applications, the TCP/IP
//! library and the driver; in the simulation that boundary is the node's
//! poll loop, and [`App`] is its application side: everything the loop
//! needs from a workload — a step, a clock, a report — and nothing about
//! which workload it is. Which fds are whose is not asked of the app: the
//! stack records the caller it hands each one to ([`FStack::owner_of`]).
//! The five workload families (iperf receiver/sender, HTTP server/fleet,
//! chaos campaign) implement it by delegating to their own inherent
//! methods.
//!
//! # Step order
//!
//! A node steps its apps **kind-major**: every [`AppKind::Server`], then
//! every `Client`, `Http`, `Fleet` and `Chaos`, in installation order
//! *within* a kind. The order decides whose segments reach the TX ring
//! first, so it is part of the pinned trace digests; installing `client,
//! server` on one node steps `server, client`.

use crate::CapnetError;
use capnet_chaos::{ChaosApp, ChaosConfig, ChaosReport};
use capnet_httpd::{
    FleetApp, FleetConfig, FleetReport, HttpServerApp, HttpServerConfig, HttpServerReport,
};
use cheri::{Capability, TaggedMemory};
use fstack::FStack;
use iperf::{BandwidthReport, ClientApp, ServerApp};
use simkern::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// What a node's poll loop asks of an application.
pub(crate) trait App {
    /// One poll-mode step at `now`: `(ff_* calls issued, app state moved)`.
    /// A step that fails with an unexpected errno counts for nothing — the
    /// loop neither charges its calls nor treats the turn as progress.
    fn step(&mut self, stack: &mut FStack, mem: &mut TaggedMemory, now: SimTime) -> (u64, bool);

    /// The next instant the app acts on its own clock; `None` when
    /// everything left is input-driven (the default). Exact: at or before
    /// `now` precisely when a step at `now` would act without a new stack
    /// event — with the stack's dirty-fd set, the app turn's complete "can
    /// a step progress?" test — and otherwise the instant that must wake a
    /// parked node.
    fn next_deadline(&self, _now: SimTime) -> Option<SimTime> {
        None
    }

    /// The `ff_*` calls a step makes when no fd the app owns has changed
    /// and its [`App::next_deadline`] is not due — a step that finds
    /// nothing to do, in the app's state as it stands. Exact, like the
    /// deadline: a charged host charges `per_ff_call_ns` for every call
    /// declared here on each turn that does not step the app — a skipped
    /// app on a turn it runs, every app on the turns a park skips. The
    /// polled reference steps those apps and checks each step against it.
    fn idle_calls(&self) -> u64;

    /// `true` when the app keeps a clock of its own — exactly when it
    /// overrides [`App::next_deadline`]. A property of the type, not of the
    /// moment: a host lists its clocked apps once and asks only those
    /// (every turn and every park), so an override behind a `false` here
    /// would never be heard.
    fn has_clock(&self) -> bool {
        false
    }

    /// `true` when the Scenario 2 service mutex's app-cVM policy
    /// ([`crate::netsim::AppSched`]) decides whether this app steps on a
    /// turn. Only the iperf sender: the convoy forms on the write path,
    /// while reads of already-sorted RX data are short — which is why the
    /// paper's server rows stay even (470/470) on the same testbed whose
    /// client rows split 531/410.
    fn sched_gated(&self) -> bool {
        false
    }

    /// Consumes the app into its run summary at `end`.
    fn report(self: Box<Self>, end: SimTime, out: &mut AppReports);
}

/// The per-kind report vectors of a run, each node-major and
/// install-ordered (the app part of [`crate::netsim::SimOutcome`]).
#[derive(Debug, Default)]
pub(crate) struct AppReports {
    pub(crate) servers: Vec<BandwidthReport>,
    pub(crate) clients: Vec<BandwidthReport>,
    pub(crate) http_servers: Vec<HttpServerReport>,
    pub(crate) http_fleets: Vec<FleetReport>,
    pub(crate) chaos: Vec<ChaosReport>,
}

impl App for ServerApp {
    fn step(&mut self, stack: &mut FStack, mem: &mut TaggedMemory, now: SimTime) -> (u64, bool) {
        ServerApp::step(self, stack, mem, now)
            .map_or((0, false), |o| (u64::from(o.ff_calls), o.progressed))
    }

    fn idle_calls(&self) -> u64 {
        ServerApp::idle_calls(self)
    }

    fn report(self: Box<Self>, end: SimTime, out: &mut AppReports) {
        out.servers.push(ServerApp::report(*self, end));
    }
}

impl App for ClientApp {
    fn step(&mut self, stack: &mut FStack, mem: &mut TaggedMemory, now: SimTime) -> (u64, bool) {
        ClientApp::step(self, stack, mem, now)
            .map_or((0, false), |o| (u64::from(o.ff_calls), o.progressed))
    }

    fn idle_calls(&self) -> u64 {
        ClientApp::idle_calls(self)
    }

    fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        ClientApp::next_deadline(self, now)
    }

    fn has_clock(&self) -> bool {
        true
    }

    fn sched_gated(&self) -> bool {
        true
    }

    fn report(self: Box<Self>, end: SimTime, out: &mut AppReports) {
        out.clients.push(ClientApp::report(*self, end));
    }
}

impl App for HttpServerApp {
    fn step(&mut self, stack: &mut FStack, mem: &mut TaggedMemory, now: SimTime) -> (u64, bool) {
        HttpServerApp::step(self, stack, mem, now)
            .map_or((0, false), |o| (u64::from(o.ff_calls), o.progressed))
    }

    fn idle_calls(&self) -> u64 {
        HttpServerApp::idle_calls(self)
    }

    /// Lets the idle reaper fire on a host with no stack events
    /// pending (`None` whenever the knob is off).
    fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        HttpServerApp::next_deadline(self, now)
    }

    fn has_clock(&self) -> bool {
        true
    }

    fn report(self: Box<Self>, end: SimTime, out: &mut AppReports) {
        out.http_servers.push(HttpServerApp::report(*self, end));
    }
}

impl App for FleetApp {
    fn step(&mut self, stack: &mut FStack, mem: &mut TaggedMemory, now: SimTime) -> (u64, bool) {
        FleetApp::step(self, stack, mem, now)
            .map_or((0, false), |o| (u64::from(o.ff_calls), o.progressed))
    }

    fn idle_calls(&self) -> u64 {
        FleetApp::idle_calls(self)
    }

    fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        FleetApp::next_deadline(self, now)
    }

    fn has_clock(&self) -> bool {
        true
    }

    fn report(self: Box<Self>, end: SimTime, out: &mut AppReports) {
        out.http_fleets.push(FleetApp::report(*self, end));
    }
}

/// Campaigns ignore `mem` (the walker and bit-flip injector own private
/// arenas) and their step is infallible — injected frames cannot raise an
/// errno. They open no sockets: rounds fire off the campaign clock alone.
impl App for ChaosApp {
    fn step(&mut self, stack: &mut FStack, _mem: &mut TaggedMemory, now: SimTime) -> (u64, bool) {
        let o = ChaosApp::step(self, stack, now);
        (u64::from(o.ff_calls), o.progressed)
    }

    fn idle_calls(&self) -> u64 {
        ChaosApp::idle_calls(self)
    }

    fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        ChaosApp::next_deadline(self, now)
    }

    fn has_clock(&self) -> bool {
        true
    }

    fn report(self: Box<Self>, _end: SimTime, out: &mut AppReports) {
        out.chaos.push(ChaosApp::report(&self));
    }
}

/// The install-time blueprint of one application: what the `add_*`
/// installers record, and the **only** thing an app is ever built from —
/// at installation and again at every
/// [`crate::netsim::Fault::NodeRestart`] (same labels, configs, seeds and
/// persistent memory-arena buffers).
pub(crate) enum AppSpec {
    Server {
        label: String,
        port: u16,
        buf: Capability,
    },
    Client {
        label: String,
        remote: (Ipv4Addr, u16),
        duration: SimDuration,
        write_gap: SimDuration,
        buf: Capability,
    },
    Http {
        label: String,
        port: u16,
        cfg: HttpServerConfig,
        buf: Capability,
    },
    Fleet {
        label: String,
        cfg: FleetConfig,
        seed: u64,
        buf: Capability,
    },
    Chaos {
        label: String,
        cfg: ChaosConfig,
        seed: u64,
    },
}

/// The five workload families, **in step order**: the derived `Ord` is the
/// kind-major order of the module docs. The serving plane ranks after the
/// iperf apps and campaigns last, so adding either to a scenario never
/// perturbs the step order — and digest — of the apps it joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum AppKind {
    Server,
    Client,
    Http,
    Fleet,
    Chaos,
}

impl AppSpec {
    pub(crate) fn kind(&self) -> AppKind {
        match self {
            AppSpec::Server { .. } => AppKind::Server,
            AppSpec::Client { .. } => AppKind::Client,
            AppSpec::Http { .. } => AppKind::Http,
            AppSpec::Fleet { .. } => AppKind::Fleet,
            AppSpec::Chaos { .. } => AppKind::Chaos,
        }
    }

    /// Builds the app on `stack` at `now`: listeners bind, clients connect,
    /// fleets schedule their first arrival one gap after `now`.
    ///
    /// # Errors
    ///
    /// Socket-setup failures of the app's constructor.
    pub(crate) fn start(
        &self,
        stack: &mut FStack,
        now: SimTime,
    ) -> Result<Box<dyn App>, CapnetError> {
        Ok(match self {
            AppSpec::Server { label, port, buf } => {
                Box::new(ServerApp::start(stack, label.clone(), *port, *buf)?)
            }
            AppSpec::Client {
                label,
                remote,
                duration,
                write_gap,
                buf,
            } => {
                let mut app =
                    ClientApp::start(stack, label.clone(), *remote, *buf, *duration, now)?;
                app.set_write_gap(*write_gap);
                Box::new(app)
            }
            AppSpec::Http {
                label,
                port,
                cfg,
                buf,
            } => Box::new(HttpServerApp::start(
                stack,
                label.clone(),
                *port,
                *buf,
                cfg.clone(),
            )?),
            AppSpec::Fleet {
                label,
                cfg,
                seed,
                buf,
            } => Box::new(FleetApp::start(
                label.clone(),
                stack,
                *buf,
                cfg.clone(),
                *seed,
                now,
            )),
            AppSpec::Chaos { label, cfg, seed } => {
                let (mac, ip) = (stack.config().mac, stack.config().ip);
                Box::new(ChaosApp::new(label.clone(), cfg.clone(), *seed, mac, ip))
            }
        })
    }
}
