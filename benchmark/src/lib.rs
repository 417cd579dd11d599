//! The repo benchmark, as a library: the binary in `main.rs` is the command
//! line over these modules, and the integration tests under `tests/` read
//! its output back through [`json`] and [`metrics`].
//!
//! See `README.md` beside this crate for the workload table, the metric
//! glossary and the measurement protocol.

pub mod harness;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod probes;
pub mod pump;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
