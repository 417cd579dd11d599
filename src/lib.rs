//! # capnet-repro — umbrella crate
//!
//! Reproduction of *"Enabling Security on the Edge: A CHERI
//! Compartmentalized Network Stack"* (DATE 2025). This crate re-exports the
//! workspace members so the root-level examples and integration tests can
//! exercise the whole system through one dependency; the substance lives in
//! the member crates:
//!
//! * [`cheri`] — software CHERI capability machine,
//! * [`chos`] — CheriBSD-like host OS slice,
//! * [`intravisor`] — CAP-VM compartment manager,
//! * [`updk`] — DPDK-like user-space poll-mode NIC layer,
//! * [`fstack`] — F-Stack-like TCP/IP library with the `ff_*` API,
//! * [`iperf`] — the bandwidth measurement application,
//! * [`capnet_httpd`] — the HTTP serving plane (static server + open-loop
//!   client fleet),
//! * [`capnet`] — scenarios, experiments and statistics.
//!
//! See `README.md` for the quickstart and `DESIGN.md` for the architecture
//! and per-experiment index.

#![forbid(unsafe_code)]

pub use capnet;
pub use capnet_httpd;
pub use cheri;
pub use chos;
pub use fstack;
pub use intravisor;
pub use iperf;
pub use mavsim;
pub use simkern;
pub use updk;
