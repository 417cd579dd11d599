//! # iperf — the bandwidth-measurement application (iperf3 analog)
//!
//! The paper ports iperf3 onto the `ff_*` API ("we initially ported iperf3
//! to work with the F-Stack API. Next, we replaced the select function, with
//! the epoll mechanism") and uses it in server (receiver) and client
//! (sender) modes to measure the maximum achievable TCP bandwidth for
//! Table II. This crate rebuilds that application against
//! [`fstack::FStack`]:
//!
//! * [`server::ServerApp`] — listen/accept/read loop over `ff_epoll`;
//! * [`client::ClientApp`] — connect + keep-the-pipe-full write loop;
//! * [`report`] — interval and summary bandwidth accounting, including the
//!   efficiency metric the paper reports (bandwidth ÷ 1 Gbit/s).
//!
//! The apps are poll-mode: the scenario driver calls `step` once per
//! F-Stack main-loop iteration (paper §III.B's "user-defined function").
//! Each step reports how many `ff_*` calls it made so the driver can charge
//! the per-call isolation costs of the active scenario (trampolines in
//! Scenario 1; cross-cVM wrappers plus the service mutex in Scenario 2).

#![forbid(unsafe_code)]

pub mod client;
pub mod report;
pub mod server;

pub use client::ClientApp;
pub use report::{BandwidthReport, IntervalReport};
pub use server::ServerApp;

/// What one application step did (driver-side cost accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// `ff_*` API calls issued during the step (each one crosses the
    /// compartment boundary in Scenarios 1/2).
    pub ff_calls: u32,
    /// Payload bytes moved through `ff_read`/`ff_write` this step.
    pub bytes: u64,
    /// `true` once the app has nothing further to do.
    pub finished: bool,
    /// `true` when the step changed application state (connected, accepted,
    /// moved bytes, closed, …). A step that only probed and got `EAGAIN`
    /// leaves this `false`; the quiescence-aware driver uses it — together
    /// with the stack's timer deadlines and the app's own
    /// [`client::ClientApp::next_deadline`] — to park the node's main loop
    /// instead of re-polling an unchanged world.
    pub progressed: bool,
}

/// The default iperf3 control/data port.
pub const IPERF_PORT: u16 = 5201;
