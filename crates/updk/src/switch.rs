//! LinkFabric: a learning Ethernet switch.
//!
//! The paper's testbed is two hosts on a cable; every topology `NetSim`
//! could express was pairwise. [`LinkFabric`] is the device that turns the
//! simulation into a network: an N-port store-and-forward switch with
//!
//! * a **MAC learning table** — the source address of every ingress frame
//!   binds that station to its port;
//! * **flood-on-unknown and broadcast** — frames whose destination is not
//!   yet learned (or is `ff:ff:…`) are copied to every port except the one
//!   they arrived on;
//! * **bounded per-port egress queues** — each egress port serializes at
//!   line rate through its own [`BusyResource`]; when the queue backlog
//!   reaches capacity the tail frame is dropped and counted, which is what
//!   turns N senders converging on one uplink into real congestion the TCP
//!   machinery upstream has to resolve.
//!
//! Timing is charged per hop from the [`CostModel`]: store-and-forward
//! processing ([`CostModel::switch_latency_ns`]) plus egress serialization
//! at [`CostModel::link_bps`]. The fabric itself is topology-agnostic;
//! `capnet`'s `NetSim` cables ports to NIC ports or to other fabrics
//! (star, chain, dumbbell) and propagates the returned frames.
//!
//! # Example
//!
//! ```
//! use updk::switch::LinkFabric;
//! use updk::wire::Frame;
//! use updk::nic::MacAddr;
//! use simkern::{CostModel, SimTime};
//!
//! let costs = CostModel::morello();
//! let mut sw = LinkFabric::new(3, 64);
//! // A frame from MAC 02::01 (port 0) to an unknown MAC floods to 1 and 2.
//! let mut bytes = vec![0u8; 64];
//! bytes[0..6].copy_from_slice(&MacAddr::local(9).octets());
//! bytes[6..12].copy_from_slice(&MacAddr::local(1).octets());
//! let out = sw.ingress(0, SimTime::ZERO, Frame::new(bytes), &costs);
//! assert_eq!(out.len(), 2);
//! // …and 02::01 is now learned on port 0.
//! assert_eq!(sw.station_port(MacAddr::local(1)), Some(0));
//! ```

use crate::nic::MacAddr;
use crate::wire::Frame;
use simkern::cost::CostModel;
use simkern::resource::BusyResource;
use simkern::time::{SimDuration, SimTime};
use simkern::FxHasher;
use std::collections::{HashMap, VecDeque};

/// Aggregate counters of one [`LinkFabric`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Frames accepted on ingress.
    pub ingress: u64,
    /// Unicast frames forwarded out exactly one learned port.
    pub forwarded: u64,
    /// Egress copies emitted by flooding (broadcast or unknown unicast).
    pub flooded: u64,
    /// Frames filtered because the destination lives on the ingress port.
    pub filtered: u64,
    /// Egress copies tail-dropped because the port queue was full.
    pub dropped: u64,
    /// Frames discarded on ingress while the switch was failed (a
    /// scheduled `SwitchFail` fault).
    pub fail_drops: u64,
}

/// One egress copy produced by [`LinkFabric::ingress`]: which port it
/// leaves, when its last bit has been serialized, and the frame itself.
#[derive(Debug, Clone)]
pub struct SwitchTx {
    /// Egress port index.
    pub port: usize,
    /// Instant the frame finishes serializing out of the port.
    pub departure: SimTime,
    /// The forwarded frame.
    pub frame: Frame,
}

#[derive(Debug, Default)]
struct EgressPort {
    serializer: BusyResource,
    /// Departure instants of frames still queued or serializing, oldest
    /// first. The serializer hands out non-decreasing departures
    /// ([`BusyResource::occupy`] returns `max(now, next_free) + hold`), so
    /// the departed frames are always a prefix of the queue.
    backlog: VecDeque<SimTime>,
    dropped: u64,
}

impl EgressPort {
    /// Forgets every frame that has departed by `now` and returns how many
    /// are still queued or serializing. Amortised O(1): each departure is
    /// pushed once and popped once.
    fn live_backlog(&mut self, now: SimTime) -> usize {
        while self.backlog.front().is_some_and(|&d| d <= now) {
            self.backlog.pop_front();
        }
        self.backlog.len()
    }
}

/// An N-port learning switch (see the [module docs](self)).
#[derive(Debug)]
pub struct LinkFabric {
    ports: Vec<EgressPort>,
    table: HashMap<MacAddr, usize, FxHasher>,
    queue_capacity: usize,
    stats: SwitchStats,
    failed: bool,
}

impl LinkFabric {
    /// Default egress queue depth, in frames. At 1 Gbit/s a full queue of
    /// MTU frames is ≈ 1.6 ms of buffering — enough for TCP to fill the
    /// pipe, small enough that convergent overload drops (and therefore
    /// triggers congestion control) instead of buffering unboundedly.
    pub const DEFAULT_QUEUE: usize = 128;

    /// Creates a fabric with `ports` ports and per-port egress queues of
    /// `queue_capacity` frames.
    ///
    /// # Panics
    ///
    /// Panics if `ports < 2` (a switch with fewer ports cannot forward) or
    /// `queue_capacity == 0`.
    pub fn new(ports: usize, queue_capacity: usize) -> Self {
        assert!(ports >= 2, "a switch needs at least 2 ports, got {ports}");
        assert!(queue_capacity > 0, "egress queue capacity must be nonzero");
        LinkFabric {
            ports: (0..ports).map(|_| EgressPort::default()).collect(),
            table: HashMap::default(),
            queue_capacity,
            stats: SwitchStats::default(),
            failed: false,
        }
    }

    /// Fails the switch: every subsequent ingress frame is discarded (and
    /// counted in [`SwitchStats::fail_drops`]) until [`LinkFabric::recover`].
    /// Copies already queued on egress ports were committed to the wire
    /// before the failure and still depart.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Recovers a failed switch. The MAC table is flushed — a replacement
    /// switch boots with an empty table, so traffic re-floods until every
    /// station is relearned from live frames.
    pub fn recover(&mut self) {
        self.failed = false;
        self.table.clear();
    }

    /// `true` while the switch is failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// The port a station's MAC was learned on, if any.
    pub fn station_port(&self, mac: MacAddr) -> Option<usize> {
        self.table.get(&mac).copied()
    }

    /// Number of learned stations.
    pub fn stations(&self) -> usize {
        self.table.len()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Live backlog (queued + serializing frames) of `port` at `now`.
    pub fn backlog(&mut self, port: usize, now: SimTime) -> usize {
        self.ports[port].live_backlog(now)
    }

    /// Switches one frame arriving on `port` at `now`: learns the source,
    /// picks the egress set (learned unicast, else flood), charges the
    /// store-and-forward latency plus per-port serialization, and returns
    /// the surviving egress copies. Copies that meet a full egress queue
    /// are tail-dropped and counted.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range ingress port.
    pub fn ingress(
        &mut self,
        port: usize,
        now: SimTime,
        frame: Frame,
        costs: &CostModel,
    ) -> Vec<SwitchTx> {
        assert!(port < self.ports.len(), "ingress on invalid port {port}");
        if self.failed {
            self.stats.fail_drops += 1;
            return Vec::new();
        }
        self.stats.ingress += 1;
        let (dst, src) = parse_macs(frame.bytes());
        // Learn the sender (never the broadcast address: a broadcast source
        // is a malformed station and must not poison the table).
        if let Some(src) = src.filter(|s| !s.is_broadcast()) {
            self.table.insert(src, port);
        }

        let ready = now + SimDuration::from_nanos(costs.switch_latency_ns);
        if let Some(d) = dst.filter(|d| !d.is_broadcast()) {
            match self.table.get(&d).copied() {
                Some(out) if out == port => {
                    // Destination is on the segment the frame came from: a
                    // real switch filters it.
                    self.stats.filtered += 1;
                    return Vec::new();
                }
                Some(out) => {
                    // Counted only if the egress queue accepted the frame,
                    // so forwarded + flooded always equals copies emitted.
                    let tx = self.egress(out, ready, frame, costs);
                    if tx.is_some() {
                        self.stats.forwarded += 1;
                    }
                    return tx.into_iter().collect();
                }
                None => {} // unknown unicast: fall through to flood
            }
        }
        let mut out = Vec::new();
        for p in 0..self.ports.len() {
            if p == port {
                continue;
            }
            if let Some(tx) = self.egress(p, ready, frame.clone(), costs) {
                self.stats.flooded += 1;
                out.push(tx);
            }
        }
        out
    }

    /// Queues `frame` on egress `port` (tail-dropping on overflow) and
    /// returns the scheduled copy.
    fn egress(
        &mut self,
        port: usize,
        ready: SimTime,
        frame: Frame,
        costs: &CostModel,
    ) -> Option<SwitchTx> {
        let cap = self.queue_capacity;
        let ep = &mut self.ports[port];
        if ep.live_backlog(ready) >= cap {
            ep.dropped += 1;
            self.stats.dropped += 1;
            return None;
        }
        let departure = ep
            .serializer
            .occupy(ready, costs.wire_cost(frame.wire_bytes()));
        debug_assert!(
            ep.backlog.back().is_none_or(|&last| last <= departure),
            "egress departures must be non-decreasing: the FIFO prunes a prefix"
        );
        ep.backlog.push_back(departure);
        Some(SwitchTx {
            port,
            departure,
            frame,
        })
    }

    /// Per-port tail-drop count.
    pub fn port_dropped(&self, port: usize) -> u64 {
        self.ports[port].dropped
    }
}

/// Extracts `(dst, src)` from the first 12 bytes of an Ethernet frame.
fn parse_macs(bytes: &[u8]) -> (Option<MacAddr>, Option<MacAddr>) {
    let take = |off: usize| {
        bytes.get(off..off + 6).map(|s| {
            let mut m = [0u8; 6];
            m.copy_from_slice(s);
            MacAddr(m)
        })
    };
    (take(0), take(6))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_to(dst: MacAddr, src: MacAddr) -> Frame {
        let mut bytes = vec![0u8; 64];
        bytes[0..6].copy_from_slice(&dst.octets());
        bytes[6..12].copy_from_slice(&src.octets());
        Frame::new(bytes)
    }

    fn mac(id: u8) -> MacAddr {
        MacAddr::local(id)
    }

    #[test]
    fn unknown_unicast_floods_then_learned_unicast_forwards() {
        let costs = CostModel::morello();
        let mut sw = LinkFabric::new(4, 16);
        // A (port 0) talks to B before B has ever spoken: flood to 1,2,3.
        let out = sw.ingress(0, SimTime::ZERO, frame_to(mac(2), mac(1)), &costs);
        assert_eq!(out.len(), 3);
        assert_eq!(sw.station_port(mac(1)), Some(0));
        assert_eq!(sw.stats().flooded, 3);
        // B answers from port 2: learned, unicast back to port 0 only.
        let out = sw.ingress(
            2,
            SimTime::from_micros(100),
            frame_to(mac(1), mac(2)),
            &costs,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 0);
        assert_eq!(sw.station_port(mac(2)), Some(2));
        // Now A→B is unicast to port 2.
        let out = sw.ingress(
            0,
            SimTime::from_micros(200),
            frame_to(mac(2), mac(1)),
            &costs,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, 2);
        assert_eq!(sw.stats().forwarded, 2);
        assert_eq!(sw.stations(), 2);
    }

    #[test]
    fn broadcast_always_floods_and_is_never_learned() {
        let costs = CostModel::morello();
        let mut sw = LinkFabric::new(3, 16);
        let out = sw.ingress(
            1,
            SimTime::ZERO,
            frame_to(MacAddr::BROADCAST, mac(7)),
            &costs,
        );
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|tx| tx.port != 1));
        // A (bogus) broadcast *source* must not enter the table.
        sw.ingress(
            0,
            SimTime::ZERO,
            frame_to(mac(7), MacAddr::BROADCAST),
            &costs,
        );
        assert_eq!(sw.station_port(MacAddr::BROADCAST), None);
    }

    #[test]
    fn same_port_destination_is_filtered() {
        let costs = CostModel::morello();
        let mut sw = LinkFabric::new(2, 16);
        // Learn both stations on port 0 (a shared segment behind one port).
        sw.ingress(
            0,
            SimTime::ZERO,
            frame_to(MacAddr::BROADCAST, mac(1)),
            &costs,
        );
        sw.ingress(
            0,
            SimTime::ZERO,
            frame_to(MacAddr::BROADCAST, mac(2)),
            &costs,
        );
        let out = sw.ingress(0, SimTime::from_micros(1), frame_to(mac(2), mac(1)), &costs);
        assert!(out.is_empty());
        assert_eq!(sw.stats().filtered, 1);
    }

    #[test]
    fn station_moving_ports_relearns() {
        let costs = CostModel::morello();
        let mut sw = LinkFabric::new(3, 16);
        sw.ingress(0, SimTime::ZERO, frame_to(mac(9), mac(1)), &costs);
        assert_eq!(sw.station_port(mac(1)), Some(0));
        sw.ingress(2, SimTime::from_micros(5), frame_to(mac(9), mac(1)), &costs);
        assert_eq!(sw.station_port(mac(1)), Some(2), "cable moved: relearned");
    }

    #[test]
    fn egress_serializes_at_line_rate_per_hop() {
        let costs = CostModel::morello();
        let mut sw = LinkFabric::new(2, 1024);
        // Learn the destination so forwarding is unicast to port 1.
        sw.ingress(
            1,
            SimTime::ZERO,
            frame_to(MacAddr::BROADCAST, mac(2)),
            &costs,
        );
        let f = || {
            let mut b = vec![0u8; 1514];
            b[0..6].copy_from_slice(&mac(2).octets());
            b[6..12].copy_from_slice(&mac(1).octets());
            Frame::new(b)
        };
        let first = sw.ingress(0, SimTime::ZERO, f(), &costs)[0].departure;
        let second = sw.ingress(0, SimTime::ZERO, f(), &costs)[0].departure;
        // Store-and-forward latency + one 1538-wire-byte serialization.
        let ser_ns = costs.wire_cost(1538).as_nanos();
        assert_eq!(first.as_nanos(), costs.switch_latency_ns + ser_ns);
        // Back-to-back frames space out by exactly one serialization time.
        assert_eq!(second.as_nanos() - first.as_nanos(), ser_ns);
    }

    #[test]
    fn full_egress_queue_tail_drops_and_counts() {
        let costs = CostModel::morello();
        let cap = 4;
        let mut sw = LinkFabric::new(2, cap);
        sw.ingress(
            1,
            SimTime::ZERO,
            frame_to(MacAddr::BROADCAST, mac(2)),
            &costs,
        );
        let mut delivered = 0;
        for _ in 0..(cap + 3) {
            delivered += sw
                .ingress(0, SimTime::ZERO, frame_to(mac(2), mac(1)), &costs)
                .len();
        }
        assert_eq!(delivered, cap);
        assert_eq!(sw.stats().dropped, 3);
        assert_eq!(sw.port_dropped(1), 3);
        // The egress port (1, where mac(2) lives) holds a live backlog…
        assert_eq!(sw.backlog(1, SimTime::ZERO), cap);
        // …and once it drains (far future), the queue accepts again.
        let out = sw.ingress(0, SimTime::from_secs(1), frame_to(mac(2), mac(1)), &costs);
        assert_eq!(out.len(), 1);
        assert_eq!(sw.backlog(1, SimTime::from_secs(2)), 0);
    }

    #[test]
    #[should_panic(expected = "at least 2 ports")]
    fn single_port_switch_is_rejected() {
        let _ = LinkFabric::new(1, 4);
    }

    #[test]
    fn failed_switch_drops_ingress_and_recovery_flushes_the_table() {
        let costs = CostModel::morello();
        let mut sw = LinkFabric::new(3, 16);
        // Learn two stations, establishing unicast forwarding.
        sw.ingress(0, SimTime::ZERO, frame_to(mac(2), mac(1)), &costs);
        sw.ingress(1, SimTime::ZERO, frame_to(mac(1), mac(2)), &costs);
        assert_eq!(sw.stations(), 2);

        sw.fail();
        assert!(sw.is_failed());
        let out = sw.ingress(0, SimTime::from_micros(1), frame_to(mac(2), mac(1)), &costs);
        assert!(out.is_empty(), "failed switch forwards nothing");
        assert_eq!(sw.stats().fail_drops, 1);

        sw.recover();
        assert!(!sw.is_failed());
        assert_eq!(sw.stations(), 0, "recovery flushes the MAC table");
        // Post-recovery unicast to a forgotten station floods again.
        let out = sw.ingress(0, SimTime::from_micros(2), frame_to(mac(2), mac(1)), &costs);
        assert_eq!(out.len(), 2, "unknown unicast re-floods until relearned");
    }
}
