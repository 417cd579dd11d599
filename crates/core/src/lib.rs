//! # capnet — the CHERI compartmentalized network stack (paper core)
//!
//! This crate assembles the substrates — [`cheri`] (capability machine),
//! [`chos`] (CheriBSD-like kernel), [`intravisor`] (CAP-VM compartments),
//! [`updk`] (DPDK-like poll-mode NIC layer), [`fstack`] (TCP/IP + `ff_*`
//! API) and [`iperf`] (bandwidth app) — into the paper's three system
//! designs and regenerates its entire evaluation:
//!
//! * [`scenario`] — Baseline (MMU processes, no CHERI), **Scenario 1**
//!   (full stack replicated per cVM), **Scenario 2** (apps split from the
//!   F-Stack/DPDK service cVM, uncontended and contended), plus the
//!   future-work **Scenario 3** (DPDK split from F-Stack) as an extension.
//! * [`netsim`] — the discrete-event driver that cables simulated 82576
//!   ports to measurement hosts and runs iperf over real TCP.
//! * [`topology`] — switched N-node topology builders (star, chain,
//!   dumbbell) over `updk`'s LinkFabric learning switch, opening the
//!   scenario space beyond the paper's two-hosts-on-a-cable testbed.
//! * [`parallel`] — the pure window/profitability math underneath the
//!   sharded parallel driver (per-pair lookahead matrix, adaptive worker
//!   selection), property-tested in isolation.
//! * [`experiment`] — one module per paper artifact: Table I, Table II,
//!   Fig. 3 (capability violation), Figs. 4–6 (`ff_write` latency).
//! * [`stats`] — the measurement pipeline (1 M iterations, IQR outlier
//!   removal, box plots) the paper describes in §IV.
//!
//! # Example
//!
//! ```
//! use capnet::experiment::fig3;
//!
//! // Reproduce the paper's Fig. 3: a compartmentalized application
//! // dereferencing memory outside its DDC dies with a capability
//! // out-of-bounds exception.
//! let outcome = fig3::run().expect("experiment runs");
//! assert!(outcome.fault.is_out_of_bounds());
//! ```

#![forbid(unsafe_code)]

mod app;
pub mod experiment;
pub mod netsim;
pub mod parallel;
pub mod scenario;
pub mod stats;
pub mod topology;

pub use fstack::CcAlgo;
pub use netsim::{
    EventCounters, Fault, FaultStats, IsolationProfile, NetEvent, NetSim, NodeConfig,
    RoundCounters, SimOutcome, SwitchId, TraceDigest,
};
pub use scenario::{FaultOp, FaultPlan, FaultTarget, ScenarioKind, ScenarioSpec};

use std::fmt;

/// Errors of the scenario/experiment layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum CapnetError {
    /// A capability fault escaped to the harness (configuration bug or an
    /// intentional security probe).
    Cap(cheri::CapFault),
    /// A socket-layer error.
    Errno(chos::Errno),
    /// A driver error.
    Updk(updk::UpdkError),
    /// Harness-level misconfiguration.
    Config(String),
}

impl fmt::Display for CapnetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapnetError::Cap(e) => write!(f, "capability fault: {e}"),
            CapnetError::Errno(e) => write!(f, "socket error: {e}"),
            CapnetError::Updk(e) => write!(f, "driver error: {e}"),
            CapnetError::Config(s) => write!(f, "configuration error: {s}"),
        }
    }
}

impl std::error::Error for CapnetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CapnetError::Cap(e) => Some(e),
            CapnetError::Errno(e) => Some(e),
            CapnetError::Updk(e) => Some(e),
            CapnetError::Config(_) => None,
        }
    }
}

impl From<cheri::CapFault> for CapnetError {
    fn from(e: cheri::CapFault) -> Self {
        CapnetError::Cap(e)
    }
}

impl From<chos::Errno> for CapnetError {
    fn from(e: chos::Errno) -> Self {
        CapnetError::Errno(e)
    }
}

impl From<updk::UpdkError> for CapnetError {
    fn from(e: updk::UpdkError) -> Self {
        CapnetError::Updk(e)
    }
}
