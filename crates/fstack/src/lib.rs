//! # fstack — a user-space TCP/IP library (the F-Stack substrate)
//!
//! The paper ports **F-Stack** — a user-space TCP/IP stack derived from the
//! FreeBSD network stack, running on DPDK in polling mode — to CheriBSD and
//! extends its data structures and API to use capabilities (`ff_write(fd,
//! const void *__capability buf, size_t n)`). This crate rebuilds that layer
//! natively in Rust, with the same shape:
//!
//! * protocol modules [`ether`], [`arp`], [`ip`], [`icmp`], [`udp`],
//!   [`tcp`] — a real stack: ARP resolution, IPv4 with internet checksums,
//!   ICMP echo, UDP datagrams, and TCP with handshake, retransmission,
//!   congestion control, delayed ACKs, MSS+timestamp options and
//!   out-of-order reassembly;
//! * [`socket`] / [`buffer`] — BSD-style sockets over ring buffers;
//! * [`api`] — the `ff_*` surface ([`api::FStack`]): `ff_socket`,
//!   `ff_bind`, `ff_listen`, `ff_connect`, `ff_accept`, `ff_read`,
//!   **`ff_write`** (the paper's measured function, taking a capability-
//!   typed buffer), `ff_close`;
//! * [`epoll`] — the `ff_epoll` event interface the paper switched iperf3
//!   to (from `select`);
//! * [`loop_`] — the poll-mode main loop gluing the stack to a
//!   [`updk::EthDev`] port, plus the Scenario 2 service mutex.
//!
//! Buffers cross the API boundary as [`cheri::Capability`] views and every
//! payload byte moves through [`cheri::TaggedMemory`] checked loads/stores;
//! a buffer overflow in (or through) this stack is architecturally
//! impossible rather than merely absent.

#![forbid(unsafe_code)]

pub mod api;
pub mod arp;
pub mod buffer;
pub mod epoll;
pub mod ether;
pub mod icmp;
pub mod ip;
pub mod loop_;
pub mod socket;
pub mod tcp;
pub mod udp;

pub use api::{FStack, StackConfig, StackStats};
pub use epoll::{EpollEvent, EpollFlags};
pub use tcp::cc::CcAlgo;

/// The TCP maximum segment size this stack advertises and uses:
/// 1500 (MTU) − 20 (IPv4) − 20 (TCP) − 12 (timestamp option) = 1448 —
/// the segment size behind Table II's 941 Mbit/s goodput ceiling.
pub const MSS: usize = 1448;
