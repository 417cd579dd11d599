//! # chos — a CheriBSD-like host OS substrate
//!
//! The paper runs its compartmentalized network stack on **CheriBSD** (a
//! CHERI-aware FreeBSD). The workload only exercises a narrow slice of the
//! kernel — `clock_gettime(CLOCK_MONOTONIC_RAW)` for the measurements,
//! `_umtx_op` for thread synchronization (CheriBSD's futex analog, which the
//! Intravisor must translate musl `futex` calls into), file descriptors, and
//! plain process isolation for the non-CHERI Baseline. This crate implements
//! exactly that slice against the virtual clock of [`simkern`]:
//!
//! * [`errno::Errno`] — BSD error numbers as a typed error.
//! * [`clock`] — the monotonic raw clock with configurable tick quantization
//!   (the reason the paper's fast box plots collapse to p25 = p75).
//! * [`umtx`] — `_umtx_op(UMTX_OP_WAIT/WAKE)` sleep queues.
//! * [`futex`] — the musl-side futex interface that the Intravisor proxies.
//! * [`fdtable`] — POSIX lowest-free-fd descriptor tables.
//! * [`syscall`] — the [`syscall::Kernel`] dispatcher tying it together.
//! * [`process`] — MMU-style address-space isolation for the Baseline
//!   scenario (one [`cheri::TaggedMemory`] per process, so cross-process
//!   access is impossible by construction rather than by capability check).
//!
//! # Example
//!
//! ```
//! use chos::syscall::{Kernel, Syscall};
//! use chos::clock::ClockId;
//! use simkern::{CostModel, SimTime};
//!
//! let mut kernel = Kernel::new(CostModel::morello());
//! let now = SimTime::from_nanos(1_234);
//! let done = kernel.syscall(now, Syscall::ClockGettime(ClockId::MonotonicRaw));
//! // The syscall result is the (quantized) time at which the kernel read
//! // the counter — entry cost included, floored to the 25 ns tick…
//! assert_eq!(done.result.unwrap(), 1_275);
//! // …and completing it consumed virtual time.
//! assert!(done.completed_at > now);
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod errno;
pub mod fdtable;
pub mod futex;
pub mod process;
pub mod syscall;
pub mod umtx;

pub use errno::Errno;
pub use fdtable::{Fd, FdTable};
pub use syscall::{Kernel, Syscall, SyscallOutcome};
