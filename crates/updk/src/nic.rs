//! The NIC model: Intel 82576 dual-port Gigabit with a shared PCI bus.
//!
//! The paper's testbed NIC is "a PCI card Intel 82576 Gigabit Network
//! Connection with two Ethernet ports" — and its PCI bus is precisely why
//! Table II's dual-port rows cannot reach line rate: "we are not achieving
//! high efficiency due to the hardware limitations imposed by the PCI NIC".
//!
//! The model has three timing stages per frame:
//!
//! * **TX**: DMA read over the shared PCI bus → egress
//!   serializer of the port (1 Gbit/s) → departure;
//! * **RX**: arrival → DMA write over the shared PCI bus → the frame
//!   becomes visible to `rx_burst` at the DMA-completion instant.
//!
//! The bus is modeled as two directions (PCIe is full duplex): an RX-DMA
//! server and a TX-DMA server, each a [`BusyResource`]. Both *ports* share
//! both servers; a host-side NIC (the measurement peer) uses
//! [`NicModel::host`] which has no bus constraint.

use crate::ring::DescRing;
use crate::wire::Frame;
use crate::UpdkError;
use simkern::cost::CostModel;
use simkern::resource::BusyResource;
use simkern::time::SimTime;
use std::fmt;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// A locally administered address derived from a small id.
    pub fn local(id: u8) -> MacAddr {
        MacAddr([0x02, 0x00, 0x00, 0x00, 0x00, id])
    }

    /// A locally administered station address for `port` of the device
    /// identified by `seed` (24 bits of device identity, so large switched
    /// topologies never collide — unlike [`MacAddr::local`], whose single
    /// byte wraps).
    pub fn station(seed: u32, port: u8) -> MacAddr {
        MacAddr([
            0x02,
            0x00,
            (seed >> 16) as u8,
            (seed >> 8) as u8,
            seed as u8,
            port,
        ])
    }

    /// The raw octets.
    pub fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// `true` for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == MacAddr::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// What kind of NIC to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicModel {
    /// The paper's dual-port 82576 behind a shared PCI bus.
    Dual82576,
    /// An ideal single-port host NIC (measurement peer; no PCI ceiling).
    Host,
}

impl NicModel {
    /// Convenience constructor for the device under test.
    pub fn dual_82576() -> NicModel {
        NicModel::Dual82576
    }

    /// Convenience constructor for the peer host.
    pub fn host() -> NicModel {
        NicModel::Host
    }

    /// Number of Ethernet ports.
    pub fn port_count(&self) -> usize {
        match self {
            NicModel::Dual82576 => 2,
            NicModel::Host => 1,
        }
    }

    /// Whether the shared PCI bus constraint applies.
    pub fn has_pci_ceiling(&self) -> bool {
        matches!(self, NicModel::Dual82576)
    }
}

/// Hardware counters of one port (`rte_eth_stats` analog).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwStats {
    /// Frames received.
    pub ipackets: u64,
    /// Frames transmitted.
    pub opackets: u64,
    /// Bytes received (frame bytes, no wire overhead).
    pub ibytes: u64,
    /// Bytes transmitted.
    pub obytes: u64,
    /// RX frames dropped because the ring was full.
    pub imissed: u64,
}

#[derive(Debug)]
struct Port {
    mac: MacAddr,
    link_up: bool,
    egress: BusyResource,
    /// Frames DMA'd to memory, ready for rx_burst at the stored instant.
    rx_ready: DescRing<(SimTime, Frame)>,
    stats: HwStats,
}

/// A NIC instance: ports plus (for the 82576) the shared PCI bus.
#[derive(Debug)]
pub struct Nic {
    model: NicModel,
    ports: Vec<Port>,
    pci_rx: Option<BusyResource>,
    pci_tx: Option<BusyResource>,
}

impl Nic {
    /// Default RX ring depth per port.
    pub const RX_RING: usize = 512;

    /// Instantiates `model` with per-port MACs derived from `mac_seed`
    /// (device identity; every distinct seed yields disjoint MACs).
    pub fn new(model: NicModel, mac_seed: u32) -> Self {
        let ports = (0..model.port_count())
            .map(|i| Port {
                mac: MacAddr::station(mac_seed, i as u8),
                link_up: false,
                egress: BusyResource::new(),
                rx_ready: DescRing::new(Self::RX_RING),
                stats: HwStats::default(),
            })
            .collect();
        let (pci_rx, pci_tx) = if model.has_pci_ceiling() {
            (Some(BusyResource::new()), Some(BusyResource::new()))
        } else {
            (None, None)
        };
        Nic {
            model,
            ports,
            pci_rx,
            pci_tx,
        }
    }

    /// The NIC model.
    pub fn model(&self) -> NicModel {
        self.model
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// MAC address of `port`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid port index.
    pub fn mac(&self, port: usize) -> MacAddr {
        self.ports[port].mac
    }

    /// Brings the link up (done by [`crate::ethdev::EthDev::start`]).
    pub fn set_link(&mut self, port: usize, up: bool) {
        self.ports[port].link_up = up;
    }

    /// Link state of `port`.
    pub fn link_up(&self, port: usize) -> bool {
        self.ports[port].link_up
    }

    /// Hardware counters of `port`.
    pub fn stats(&self, port: usize) -> HwStats {
        self.ports[port].stats
    }

    /// Transmits `frame` from `port` at `now`: PCI DMA read, then egress
    /// serialization. Returns the **departure instant** (when the last bit
    /// leaves the port); the caller propagates it over the wire to the peer.
    ///
    /// # Errors
    ///
    /// [`UpdkError::NotStarted`] when the link is down.
    pub fn tx(
        &mut self,
        port: usize,
        now: SimTime,
        frame: &Frame,
        costs: &CostModel,
    ) -> Result<SimTime, UpdkError> {
        let wire_bytes = frame.wire_bytes();
        if port >= self.ports.len() {
            return Err(UpdkError::NoSuchPort);
        }
        if !self.ports[port].link_up {
            return Err(UpdkError::NotStarted);
        }
        // Stage 1: fetch the frame from memory over the (possibly shared) bus.
        let dma_done = match self.pci_tx.as_mut() {
            Some(bus) => bus.occupy(now, costs.pci_tx_cost(wire_bytes)),
            None => now,
        };
        // Stage 2: serialize onto the wire at line rate.
        let p = &mut self.ports[port];
        let departure = p.egress.occupy(dma_done, costs.wire_cost(wire_bytes));
        p.stats.opackets += 1;
        p.stats.obytes += frame.len() as u64;
        Ok(departure)
    }

    /// Delivers a frame arriving at `port` at instant `arrival`: PCI DMA
    /// write, then the frame is queued for `rx_burst` at the DMA-completion
    /// instant. Ring overflow drops the frame (`imissed`).
    pub fn deliver(&mut self, port: usize, arrival: SimTime, frame: Frame, costs: &CostModel) {
        let wire_bytes = frame.wire_bytes();
        let ready = match self.pci_rx.as_mut() {
            Some(bus) => bus.occupy(arrival, costs.pci_rx_cost(wire_bytes)),
            None => arrival,
        };
        let p = &mut self.ports[port];
        let len = frame.len() as u64;
        match p.rx_ready.enqueue((ready, frame)) {
            Ok(()) => {
                p.stats.ipackets += 1;
                p.stats.ibytes += len;
            }
            Err(_) => {
                p.stats.imissed += 1;
            }
        }
    }

    /// Polls up to `max` frames that are DMA-complete by `now` — the
    /// poll-mode receive the whole design is built around.
    ///
    /// Completion instants are monotone (the DMA engine serves in order),
    /// so one peek at the head decides the whole poll: the ring is never
    /// drained and rebuilt, and an idle poll touches nothing.
    pub fn rx_burst(&mut self, port: usize, now: SimTime, max: usize) -> Vec<Frame> {
        std::iter::from_fn(|| self.rx_next(port, now))
            .take(max)
            .collect()
    }

    /// The next frame of `port`'s RX ring if it is DMA-complete by `now`:
    /// one receive of [`Nic::rx_burst`], for a caller that files each frame
    /// where it wants it.
    pub fn rx_next(&mut self, port: usize, now: SimTime) -> Option<Frame> {
        let ring = &mut self.ports[port].rx_ready;
        match ring.peek() {
            Some((t, _)) if *t <= now => ring.dequeue().map(|(_, f)| f),
            _ => None,
        }
    }

    /// Frames queued but not yet DMA-complete or polled.
    pub fn rx_pending(&self, port: usize) -> usize {
        self.ports[port].rx_ready.len()
    }

    /// The DMA-complete instant of the frame at the head of `port`'s RX
    /// ring: the earliest instant an `rx_burst` returns something, `None`
    /// on an empty ring. The instant is fixed when the frame is queued —
    /// the bus serves in arrival order, so no later delivery can move it —
    /// and completion instants are monotone along the ring, so until it
    /// has passed every poll of the port comes back empty.
    pub fn rx_head_ready(&self, port: usize) -> Option<SimTime> {
        self.ports[port].rx_ready.peek().map(|(t, _)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkern::time::SimDuration;

    fn full_frame() -> Frame {
        Frame::new(vec![0; 1514])
    }

    fn started(model: NicModel) -> Nic {
        let mut nic = Nic::new(model, 10);
        for p in 0..nic.port_count() {
            nic.set_link(p, true);
        }
        nic
    }

    #[test]
    fn mac_addresses_are_distinct_and_local() {
        let nic = Nic::new(NicModel::Dual82576, 1);
        assert_ne!(nic.mac(0), nic.mac(1));
        assert_eq!(nic.mac(0).octets()[0], 0x02);
        assert_eq!(nic.mac(0).to_string(), "02:00:00:00:01:00");
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!nic.mac(0).is_broadcast());
        // Distinct device seeds yield disjoint MACs on every port — the
        // property the LinkFabric learning table depends on.
        let other = Nic::new(NicModel::Dual82576, 2);
        assert_ne!(nic.mac(0), other.mac(0));
        assert_ne!(nic.mac(1), other.mac(1));
    }

    #[test]
    fn tx_requires_link_up() {
        let mut nic = Nic::new(NicModel::Host, 1);
        let e = nic
            .tx(0, SimTime::ZERO, &full_frame(), &CostModel::morello())
            .unwrap_err();
        assert_eq!(e, UpdkError::NotStarted);
        assert!(matches!(
            nic.tx(7, SimTime::ZERO, &full_frame(), &CostModel::morello()),
            Err(UpdkError::NoSuchPort)
        ));
    }

    #[test]
    fn single_port_tx_is_wire_limited() {
        let costs = CostModel::morello();
        let mut nic = started(NicModel::Dual82576);
        let mut last = SimTime::ZERO;
        let n = 100;
        for _ in 0..n {
            last = nic.tx(0, SimTime::ZERO, &full_frame(), &costs).unwrap();
        }
        // Back-to-back frames serialize at 12 304 ns each (wire limited,
        // because a single port's PCI demand is below the bus capacity).
        let per_frame = last.as_nanos() as f64 / n as f64;
        assert!(
            (per_frame - 12_304.0).abs() < 120.0,
            "per frame {per_frame}"
        );
    }

    #[test]
    fn dual_port_tx_hits_the_pci_ceiling() {
        let costs = CostModel::morello();
        let mut nic = started(NicModel::Dual82576);
        let n = 200;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            let a = nic.tx(0, SimTime::ZERO, &full_frame(), &costs).unwrap();
            let b = nic.tx(1, SimTime::ZERO, &full_frame(), &costs).unwrap();
            last = last.max(a).max(b);
        }
        // 2n frames of 1448B payload through the shared TX bus:
        let goodput_mbps = (2 * n) as f64 * 1448.0 * 8.0 / (last.as_nanos() as f64 / 1e9) / 1e6;
        // Both ports together ≈ 1514 Mbit/s → 757 each (Table II client).
        assert!(
            (goodput_mbps - 1514.0).abs() < 25.0,
            "aggregate {goodput_mbps}"
        );
    }

    #[test]
    fn dual_port_rx_hits_the_lower_pci_ceiling() {
        let costs = CostModel::morello();
        let mut nic = started(NicModel::Dual82576);
        // Deliver a steady dual-port arrival pattern and measure when the
        // frames become pollable.
        let mut t = SimTime::ZERO;
        let n = 200;
        let mut last_ready = SimTime::ZERO;
        for _ in 0..n {
            nic.deliver(0, t, full_frame(), &costs);
            nic.deliver(1, t, full_frame(), &costs);
            t += SimDuration::from_nanos(12_304); // line-rate arrivals
        }
        // Drain everything; the last frame's readiness bounds throughput.
        let far_future = SimTime::from_secs(1);
        for p in 0..2 {
            let got = nic.rx_burst(p, far_future, usize::MAX);
            assert!(got.len() as u64 + nic.stats(p).imissed >= n);
            last_ready = last_ready.max(t);
        }
        // The shared RX bus serves 2n frames at 8.8 µs each → ≈1316 Mbit/s.
        let total_ns = (2 * n) as f64 * costs.pci_rx_cost(1538).as_nanos() as f64;
        let goodput_mbps = (2 * n) as f64 * 1448.0 * 8.0 / (total_ns / 1e9) / 1e6;
        assert!(
            (goodput_mbps - 1316.0).abs() < 25.0,
            "aggregate {goodput_mbps}"
        );
    }

    #[test]
    fn rx_burst_respects_dma_completion_time() {
        let costs = CostModel::morello();
        let mut nic = started(NicModel::Dual82576);
        nic.deliver(0, SimTime::from_micros(10), full_frame(), &costs);
        // Polling before DMA completes sees nothing.
        assert!(nic.rx_burst(0, SimTime::from_micros(10), 32).is_empty());
        assert_eq!(nic.rx_pending(0), 1);
        // Polling after does.
        let got = nic.rx_burst(0, SimTime::from_micros(30), 32);
        assert_eq!(got.len(), 1);
        assert_eq!(nic.stats(0).ipackets, 1);
    }

    /// The head's completion instant is known from the moment the frame is
    /// queued, later deliveries (either port — the bus is shared) do not
    /// move it, and it is exactly the first instant a poll returns it.
    #[test]
    fn rx_head_ready_is_fixed_at_enqueue_and_is_the_first_readable_instant() {
        let costs = CostModel::morello();
        let mut nic = started(NicModel::Dual82576);
        assert_eq!(nic.rx_head_ready(0), None);
        nic.deliver(0, SimTime::from_micros(10), full_frame(), &costs);
        let ready = nic.rx_head_ready(0).expect("a frame is queued");
        assert_eq!(ready, SimTime::from_micros(10) + costs.pci_rx_cost(1538));
        nic.deliver(1, SimTime::from_micros(11), full_frame(), &costs);
        nic.deliver(0, SimTime::from_micros(12), full_frame(), &costs);
        assert_eq!(nic.rx_head_ready(0), Some(ready));
        let just_before = ready - SimDuration::from_nanos(1);
        assert!(nic.rx_burst(0, just_before, 32).is_empty());
        assert_eq!(nic.rx_burst(0, ready, 32).len(), 1);
        assert!(nic.rx_head_ready(0).is_some_and(|next| next > ready));
    }

    #[test]
    fn host_nic_has_no_pci_delay() {
        let costs = CostModel::morello();
        let mut nic = started(NicModel::Host);
        nic.deliver(0, SimTime::from_micros(1), full_frame(), &costs);
        assert_eq!(nic.rx_head_ready(0), Some(SimTime::from_micros(1)));
        assert_eq!(nic.rx_burst(0, SimTime::from_micros(1), 32).len(), 1);
    }

    #[test]
    fn ring_overflow_counts_imissed() {
        let costs = CostModel::morello();
        let mut nic = started(NicModel::Host);
        for _ in 0..(Nic::RX_RING + 10) {
            nic.deliver(0, SimTime::ZERO, Frame::new(vec![0; 64]), &costs);
        }
        assert_eq!(nic.stats(0).imissed, 10);
        assert_eq!(nic.stats(0).ipackets, Nic::RX_RING as u64);
    }

    #[test]
    fn stats_accumulate() {
        let costs = CostModel::morello();
        let mut nic = started(NicModel::Dual82576);
        nic.tx(0, SimTime::ZERO, &full_frame(), &costs).unwrap();
        nic.tx(0, SimTime::ZERO, &full_frame(), &costs).unwrap();
        let s = nic.stats(0);
        assert_eq!(s.opackets, 2);
        assert_eq!(s.obytes, 2 * 1514);
    }
}
