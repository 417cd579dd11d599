//! # updk — a user-space poll-mode packet framework (the DPDK substrate)
//!
//! The paper runs DPDK, ported to CHERI Morello in hybrid mode, beneath
//! F-Stack: the NIC is detached from the kernel, its rings and packet
//! buffers live in user-space memory "allocated with the correct permission
//! flags", and the application polls. This crate rebuilds that layer against
//! the simulated hardware:
//!
//! * [`kmod`] — the kernel-detach module: a PCI device must be unbound from
//!   the kernel driver and bound to userspace I/O before use.
//! * [`mempool`] / [`mbuf`] — packet-buffer pools carved out of
//!   [`cheri::TaggedMemory`] with capability-bounded buffers; every payload
//!   byte the stack touches is capability-checked.
//! * [`ring`] — fixed-capacity descriptor rings (the e1000-style RX/TX
//!   queues), with drop accounting.
//! * [`nic`] — the **Intel 82576 dual-port** model: per-port 1 Gbit/s
//!   serializers and a shared PCI bus whose DMA throughput caps dual-port
//!   bandwidth exactly where Table II observed it (≈ 658 Mbit/s per port
//!   receiving, ≈ 757 Mbit/s sending).
//! * [`framebuf`] — pooled, shared frame buffers (the `bytes::Bytes` /
//!   mbuf-headroom idiom): frames are built once with headroom, headers
//!   are prepended in place, and every hop shares one refcounted payload.
//! * [`wire`] — frames and cables: Ethernet framing overhead (preamble,
//!   IFG, FCS), propagation latency, and stochastic link impairments.
//! * [`switch`] — **LinkFabric**, an N-port learning switch (MAC table,
//!   flood-on-unknown/broadcast, bounded per-port egress queues) that turns
//!   pairwise cables into star/chain/dumbbell topologies.
//! * [`qos`] — traffic metering and scheduling (token bucket, RFC 2697
//!   srTCM, deficit round robin): the "DPDK QoS features" the paper defers
//!   to future work.
//! * [`ethdev`] — the DPDK-flavoured device API: configure, start,
//!   `rx_burst_shared`, `tx_burst_shared`, stats.
//!
//! # Example
//!
//! ```
//! use updk::ethdev::EthDev;
//! use updk::kmod::{BindingRegistry, PciAddress};
//! use updk::nic::NicModel;
//! use updk::wire::Frame;
//! use cheri::TaggedMemory;
//! use simkern::{CostModel, SimTime};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mem = TaggedMemory::new(1 << 20);
//! let mut kmod = BindingRegistry::new();
//! let addr = PciAddress::new(0, 3, 0);
//! kmod.discover(addr, "Intel 82576 Gigabit Network Connection");
//! kmod.bind_userspace(addr)?; // detach from the kernel first
//!
//! let root = mem.root_cap();
//! let pool_region = root.try_restrict(0x10000, 0x40000)?;
//! let mut dev = EthDev::new(addr, NicModel::dual_82576(), CostModel::morello());
//! dev.configure_port(0, &mut mem, pool_region, 128)?;
//! dev.start(&kmod)?;
//!
//! // A frame arrives on port 0 and is polled out.
//! dev.deliver(0, SimTime::from_micros(5), Frame::new(vec![0u8; 64]));
//! let rx = dev.rx_burst_shared(0, SimTime::from_micros(100), 32, &mut mem)?;
//! assert_eq!(rx.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod ethdev;
pub mod framebuf;
pub mod kmod;
pub mod mbuf;
pub mod mempool;
pub mod nic;
pub mod qos;
pub mod ring;
pub mod switch;
pub mod wire;

pub use ethdev::{EthDev, PortStats};
pub use framebuf::{FrameBuf, FrameBufMut};
pub use kmod::{BindingRegistry, DeviceBinding, PciAddress};
pub use mbuf::Mbuf;
pub use mempool::Mempool;
pub use nic::{MacAddr, Nic, NicModel};
pub use switch::{LinkFabric, SwitchStats, SwitchTx};
pub use wire::{Frame, ImpairmentStats, Impairments, Wire};

use std::fmt;

/// Errors of the packet framework (distinct from capability faults, which
/// surface as [`cheri::CapFault`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UpdkError {
    /// Device still bound to the kernel driver (run the kmod detach first).
    DeviceBoundToKernel,
    /// Unknown PCI address.
    NoSuchDevice,
    /// Port index out of range for the NIC model.
    NoSuchPort,
    /// The mempool has no free buffers.
    MempoolExhausted,
    /// A descriptor ring rejected entries (full).
    RingFull,
    /// Port not configured (no mempool attached).
    PortNotConfigured,
    /// Device not started.
    NotStarted,
    /// A capability operation failed while touching packet memory.
    Cap(cheri::CapFault),
}

impl fmt::Display for UpdkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdkError::DeviceBoundToKernel => {
                write!(f, "device is bound to the kernel driver; detach it first")
            }
            UpdkError::NoSuchDevice => write!(f, "no such pci device"),
            UpdkError::NoSuchPort => write!(f, "no such port"),
            UpdkError::MempoolExhausted => write!(f, "mempool exhausted"),
            UpdkError::RingFull => write!(f, "descriptor ring full"),
            UpdkError::PortNotConfigured => write!(f, "port not configured"),
            UpdkError::NotStarted => write!(f, "device not started"),
            UpdkError::Cap(e) => write!(f, "capability fault in packet memory: {e}"),
        }
    }
}

impl std::error::Error for UpdkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UpdkError::Cap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cheri::CapFault> for UpdkError {
    fn from(e: cheri::CapFault) -> Self {
        UpdkError::Cap(e)
    }
}
