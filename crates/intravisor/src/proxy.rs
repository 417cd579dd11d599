//! The Intravisor's syscall **proxy table**.
//!
//! cVMs "do not have direct access to the host OS syscalls, but must use
//! instead a trampoline proxy table provided by the Intravisor that
//! correctly handles the capabilities and mediates the access to the OS"
//! (paper §II.B). The table has two jobs:
//!
//! 1. **policy** — default-deny: a cVM gets time, sleep and own-thread
//!    sync, and nothing else (no cVM has business asking for NIC
//!    mappings);
//! 2. **translation** — musl-libc semantics differ from CheriBSD's; the
//!    canonical example the paper gives is `futex` → `_umtx_op`.

use chos::errno::Errno;
use chos::syscall::Syscall;

/// Policy verdict for one proxied syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyVerdict {
    /// Forward to the kernel as-is.
    Forward,
    /// Translate musl semantics to CheriBSD first (futex→umtx).
    Translate,
    /// Refuse: no cVM is allowed this syscall.
    Deny(Errno),
}

/// Decides what to do with syscall `sc`. Every cVM sees the same slice
/// of the OS: time, sleep and own-thread sync.
pub fn verdict(sc: &Syscall) -> ProxyVerdict {
    match sc {
        // Time and sleep are universal.
        Syscall::ClockGettime(_) | Syscall::Nanosleep(_) | Syscall::GetPid => ProxyVerdict::Forward,
        // CheriBSD-native umtx is forwarded.
        Syscall::UmtxWait { .. } | Syscall::UmtxWake { .. } => ProxyVerdict::Forward,
        // musl futex must be translated — the paper's adaptation.
        Syscall::Futex(_) => ProxyVerdict::Translate,
        // `Syscall` is non-exhaustive: anything the proxy does not know
        // is denied, never forwarded — default-deny is the whole point.
        _ => ProxyVerdict::Deny(Errno::ENOSYS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chos::clock::ClockId;
    use chos::futex::FutexOp;

    #[test]
    fn futex_is_translated_not_forwarded() {
        let v = verdict(&Syscall::Futex(FutexOp::Wake {
            uaddr: 0x1,
            count: 1,
        }));
        assert_eq!(v, ProxyVerdict::Translate);
    }

    #[test]
    fn time_and_umtx_are_forwarded() {
        assert_eq!(
            verdict(&Syscall::ClockGettime(ClockId::MonotonicRaw)),
            ProxyVerdict::Forward
        );
        assert_eq!(
            verdict(&Syscall::UmtxWake {
                addr: 0x1,
                count: 1
            }),
            ProxyVerdict::Forward
        );
        assert_eq!(verdict(&Syscall::Nanosleep(10)), ProxyVerdict::Forward);
        assert_eq!(verdict(&Syscall::GetPid), ProxyVerdict::Forward);
    }
}
