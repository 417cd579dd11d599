//! The musl→Intravisor **trampoline**.
//!
//! Paper §III.B: *"We directly connected musl libc in the Intravisor
//! substituting supervisor call instructions (svc) with dedicated trampoline
//! functions. Specifically, a trampoline passes through the syscall ID and
//! arguments, stores register states. It also loads the correct PCC and DDC,
//! and use them to jump into the cVM/Intravisor using CHERI specific
//! instruction (e.g., blrs for the Arm Morello)."*
//!
//! The measured consequence is Fig. 4: `ff_write` in Scenario 1 is ≈ 125 ns
//! slower than Baseline, attributed to this indirection. [`run`] charges
//! exactly that cost ([`simkern::CostModel::trampoline_ns`]) around the
//! kernel work, and routes the call through the [`crate::proxy`] table.

use crate::cvm::CvmId;
use crate::proxy::{self, ProxyVerdict};
use crate::Intravisor;
use chos::syscall::{Syscall, SyscallOutcome};
use simkern::time::{SimDuration, SimTime};

/// The result of a trampolined syscall: the kernel outcome plus the cost
/// breakdown of the domain crossing (for the figure experiments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrampolineOutcome {
    /// The proxied kernel outcome (timing already includes the trampoline).
    pub outcome: SyscallOutcome,
    /// Nanoseconds attributable to the musl→Intravisor→musl crossing.
    pub crossing_ns: u64,
    /// Whether the proxy had to translate semantics (futex→umtx).
    pub translated: bool,
}

/// Runs syscall `sc` from cVM `id` through the trampoline at instant `now`.
///
/// Cost structure (all virtual): `trampoline_ns` for the full
/// save/`blrs`/restore round trip, then the kernel's own cost from `chos`.
pub fn run(iv: &mut Intravisor, id: CvmId, now: SimTime, sc: Syscall) -> TrampolineOutcome {
    let verdict = proxy::verdict(&sc);
    let (kernel, cvm, costs) = iv.kernel_and_cvm(id);
    cvm.note_syscall();
    let crossing_ns = costs.trampoline_ns;
    let entered = now + SimDuration::from_nanos(crossing_ns);
    let (outcome, translated) = match verdict {
        ProxyVerdict::Forward => (kernel.syscall(entered, sc), false),
        ProxyVerdict::Translate => match sc {
            Syscall::Futex(op) => {
                // The proxy reads the futex word on the cVM's behalf; the
                // scenario layer supplies coherent values, so `current =
                // expected` models the sleeping path and wake paths ignore it.
                let current = match op {
                    chos::futex::FutexOp::Wait { expected, .. } => expected,
                    chos::futex::FutexOp::Wake { .. } => 0,
                };
                (
                    kernel.musl_futex(entered, op, current, u64::from(id.raw())),
                    true,
                )
            }
            _ => (kernel.syscall(entered, sc), false),
        },
        ProxyVerdict::Deny(errno) => (
            SyscallOutcome {
                result: Err(errno),
                completed_at: entered,
                woken: Vec::new(),
                sleeps: false,
            },
            false,
        ),
    };
    TrampolineOutcome {
        outcome,
        crossing_ns,
        translated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CvmConfig;
    use chos::clock::ClockId;
    use chos::futex::FutexOp;
    use simkern::cost::CostModel;

    fn boot_one() -> (Intravisor, CvmId) {
        let mut iv = Intravisor::new(1 << 20, CostModel::morello());
        let id = iv
            .create_cvm(CvmConfig::new("app").mem_size(64 * 1024))
            .unwrap();
        (iv, id)
    }

    #[test]
    fn trampoline_charges_the_paper_delta() {
        let (mut iv, id) = boot_one();
        let now = SimTime::from_micros(10);
        // Native (Baseline) clock_gettime:
        let native = iv
            .kernel_mut()
            .syscall(now, Syscall::ClockGettime(ClockId::MonotonicRaw));
        // Trampolined (Scenario 1) clock_gettime:
        let tramp = iv.trampoline_syscall(id, now, Syscall::ClockGettime(ClockId::MonotonicRaw));
        let native_ns = (native.completed_at - now).as_nanos();
        let tramp_ns = (tramp.outcome.completed_at - now).as_nanos();
        assert_eq!(
            tramp_ns - native_ns,
            CostModel::morello().trampoline_ns,
            "the crossing must cost exactly the calibrated 125 ns"
        );
        assert_eq!(tramp.crossing_ns, 125);
        assert!(!tramp.translated);
        assert_eq!(iv.cvm(id).syscall_count(), 1);
    }

    #[test]
    fn futex_is_translated_to_umtx() {
        let (mut iv, id) = boot_one();
        let out = iv.trampoline_syscall(
            id,
            SimTime::ZERO,
            Syscall::Futex(FutexOp::Wait {
                uaddr: 0x500,
                expected: 1,
            }),
        );
        assert!(out.translated);
        assert!(out.outcome.sleeps);
        // The sleeper is queued in the kernel's umtx table, not a futex one.
        assert_eq!(iv.kernel().umtx().sleepers(0x500), 1);
        let out = iv.trampoline_syscall(
            id,
            SimTime::from_micros(1),
            Syscall::Futex(FutexOp::Wake {
                uaddr: 0x500,
                count: 1,
            }),
        );
        assert!(out.translated);
        assert_eq!(out.outcome.result.as_ref().unwrap(), &1);
    }

    #[test]
    fn cvm_clock_gettime_reads_through_the_trampoline() {
        let (mut iv, id) = boot_one();
        let now = SimTime::from_micros(50);
        let (reading, done) = iv.cvm_clock_gettime(id, now);
        assert!(reading.as_nanos() > 0);
        assert!(done > now + SimDuration::from_nanos(125));
        // The reading reflects time *inside* the call, quantized.
        assert_eq!(reading.as_nanos() % 25, 0);
    }
}
