//! BSD-style sockets over the TCP/UDP engines.

use crate::tcp::tcb::Tcb;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use updk::framebuf::FrameBuf;

/// Socket type (`SOCK_STREAM` / `SOCK_DGRAM`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockType {
    /// TCP.
    Stream,
    /// UDP.
    Dgram,
}

/// A received UDP datagram queued on a socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DgramEntry {
    /// Sender address.
    pub from: (Ipv4Addr, u16),
    /// Payload — a shared view of the frame it arrived in (RX) or of the
    /// staged application bytes (TX); queueing never copies it.
    pub data: FrameBuf,
}

/// One socket's state.
#[derive(Debug, Clone)]
pub enum Socket {
    /// `socket()` called, nothing else yet (TCP).
    TcpUnbound,
    /// Bound to a local port, not listening/connected.
    TcpBound {
        /// Local (ip, port).
        local: (Ipv4Addr, u16),
    },
    /// Passive listener with its two accept queues: connections still
    /// completing the handshake (`backlog`) and fully established ones
    /// (`ready`). Splitting them makes `accept` and listener readiness
    /// O(1) regardless of handshake ordering — a late SYN can no longer
    /// head-of-line-block an established connection behind it.
    TcpListen {
        /// Local (ip, port).
        local: (Ipv4Addr, u16),
        /// In-progress (SYN_RCVD) connection fds, in SYN-arrival order.
        backlog: VecDeque<chos::fdtable::Fd>,
        /// Established connection fds awaiting `accept`, in
        /// establishment order.
        ready: VecDeque<chos::fdtable::Fd>,
        /// Maximum combined queue length (`backlog` + `ready`).
        max_backlog: usize,
    },
    /// A TCP connection (client or accepted).
    TcpConn(Box<Tcb>),
    /// A UDP socket.
    Udp {
        /// Bound local (ip, port), if bound.
        local: Option<(Ipv4Addr, u16)>,
        /// Received datagrams.
        rx: VecDeque<DgramEntry>,
        /// Datagrams awaiting transmission.
        tx: VecDeque<DgramEntry>,
        /// Asynchronous error (ICMP port unreachable), delivered once on
        /// the next send/receive, POSIX-style.
        pending_err: Option<chos::Errno>,
    },
}

impl Socket {
    /// A fresh socket of `kind`.
    pub fn new(kind: SockType) -> Socket {
        match kind {
            SockType::Stream => Socket::TcpUnbound,
            SockType::Dgram => Socket::Udp {
                local: None,
                rx: VecDeque::new(),
                tx: VecDeque::new(),
                pending_err: None,
            },
        }
    }

    /// The connection TCB, if this is a connected TCP socket.
    pub fn tcb(&self) -> Option<&Tcb> {
        match self {
            Socket::TcpConn(t) => Some(t),
            _ => None,
        }
    }

    /// Mutable TCB access.
    pub fn tcb_mut(&mut self) -> Option<&mut Tcb> {
        match self {
            Socket::TcpConn(t) => Some(t),
            _ => None,
        }
    }

    /// `true` for a TCP connection its application already closed: it
    /// lingers for the protocol (FIN handshake, TIME_WAIT) until reaped,
    /// but its fd is no longer the application's.
    pub fn app_closed(&self) -> bool {
        self.tcb().is_some_and(Tcb::app_closed)
    }

    /// The bound local endpoint, if any.
    pub fn local(&self) -> Option<(Ipv4Addr, u16)> {
        match self {
            Socket::TcpBound { local } | Socket::TcpListen { local, .. } => Some(*local),
            Socket::TcpConn(t) => Some(t.endpoints().0),
            Socket::Udp { local, .. } => *local,
            Socket::TcpUnbound => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_sockets() {
        assert!(matches!(Socket::new(SockType::Stream), Socket::TcpUnbound));
        let u = Socket::new(SockType::Dgram);
        assert!(matches!(u, Socket::Udp { .. }));
        assert!(u.local().is_none());
        assert!(u.tcb().is_none());
    }

    #[test]
    fn local_endpoints_surface() {
        let s = Socket::TcpBound {
            local: (Ipv4Addr::new(10, 0, 0, 1), 80),
        };
        assert_eq!(s.local(), Some((Ipv4Addr::new(10, 0, 0, 1), 80)));
        let l = Socket::TcpListen {
            local: (Ipv4Addr::new(10, 0, 0, 1), 80),
            backlog: VecDeque::new(),
            ready: VecDeque::new(),
            max_backlog: 8,
        };
        assert_eq!(l.local().unwrap().1, 80);
    }
}
