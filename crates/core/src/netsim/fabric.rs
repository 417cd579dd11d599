//! The wire side of the world: switch ingress and forwarding, final-hop
//! delivery with cable impairments, and the [`TraceDigest`] every delivery
//! folds into.

use super::shard::DeliveryRecord;
use super::{Ep, NetEvent, NetSim};
use simkern::engine::Engine;
use simkern::time::SimTime;
use updk::wire::Frame;

/// A rolling digest over every frame delivery of a run: the
/// `harness_determinism`-style trace identity witness, cheap enough to keep
/// always-on. Two runs with identical construction and seed must produce
/// identical digests; any divergence in delivery instant, destination or
/// payload bytes changes the FNV-1a fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    /// FNV-1a over `(at_ns, dev, port, len, bytes)` of every delivery.
    pub digest: u64,
    /// Deliveries folded in.
    pub frames: u64,
    /// Frame bytes folded in.
    pub bytes: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest {
            digest: 0xCBF2_9CE4_8422_2325, // FNV-1a offset basis
            frames: 0,
            bytes: 0,
        }
    }
}

impl TraceDigest {
    #[inline]
    fn fold(digest: u64, b: u8) -> u64 {
        (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    }

    pub(super) fn record(&mut self, at: SimTime, dev: usize, port: usize, frame: &[u8]) {
        // Fold through a local so the per-byte chain (this runs once per
        // delivered frame byte) stays in a register instead of bouncing
        // through `self`.
        let mut d = self.digest;
        for b in at.as_nanos().to_le_bytes() {
            d = Self::fold(d, b);
        }
        d = Self::fold(d, dev as u8);
        d = Self::fold(d, port as u8);
        for b in (frame.len() as u32).to_le_bytes() {
            d = Self::fold(d, b);
        }
        for &b in frame {
            d = Self::fold(d, b);
        }
        self.digest = d;
        self.frames += 1;
        self.bytes += frame.len() as u64;
    }
}

impl NetSim {
    /// One switch hop: run the fabric's forwarding decision for a frame
    /// arriving on `(sw, sp)` at `now`, then propagate every surviving
    /// egress copy down its cable — to a NIC (final hop, impairments
    /// apply) or into the next switch of a chain.
    pub(super) fn switch_ingress(
        &mut self,
        sw: usize,
        sp: usize,
        now: SimTime,
        frame: Frame,
        engine: &mut Engine<NetSim>,
    ) {
        let outputs = self.switches[sw].ingress(sp, now, frame, &self.costs);
        let origin = self.switch_origin(sw);
        for tx in outputs {
            if !self.link_down.is_empty() && self.link_down.contains(&Ep::Sw(sw, tx.port)) {
                // This egress cable is administratively down: the copy is
                // blackholed at the switch's TX hop.
                self.impairment_stats.blackholed += 1;
                continue;
            }
            // A copy out of an unattached switch port goes nowhere.
            if let Some(to) = self.sw_cabled[sw][tx.port] {
                self.transmit(engine, origin, to, tx.departure, tx.frame);
            }
        }
    }

    /// Puts a frame that left a TX hop at `departure` on the cable to
    /// `to`: a NIC port is the path's final hop (impairments apply), a
    /// switch port forwards on.
    pub(super) fn transmit(
        &mut self,
        engine: &mut Engine<NetSim>,
        origin: u32,
        to: Ep,
        departure: SimTime,
        frame: Frame,
    ) {
        let arrival = self.wire.propagate(departure);
        match to {
            Ep::Dev(dev, port) => self.schedule_delivery(engine, origin, dev, port, arrival, frame),
            Ep::Sw(..) => self.post(engine, origin, to, arrival, frame),
        }
    }

    /// Schedules `frame`'s arrival at `to`: on this engine when this world
    /// handles the destination, through the shard outbox otherwise. Either
    /// way exactly one order key is drawn from `origin`, which is what
    /// keeps a sharded run's dispatch order the single engine's.
    fn post(
        &mut self,
        engine: &mut Engine<NetSim>,
        origin: u32,
        to: Ep,
        at: SimTime,
        frame: Frame,
    ) {
        let local = match to {
            Ep::Dev(dev, _) => self.local_dev(dev),
            Ep::Sw(sw, _) => self.local_sw(sw),
        };
        if local {
            engine.schedule_from(origin, at, NetEvent::arrival(to, at, frame));
        } else {
            self.outbox(engine, origin, to, at, &frame);
        }
    }

    /// Schedules delivery of `frame` to NIC `(dev, port)` at nominal
    /// instant `at`, applying the configured cable impairments (loss,
    /// corruption, duplication, reordering, jitter) on this final hop.
    fn schedule_delivery(
        &mut self,
        engine: &mut Engine<NetSim>,
        origin: u32,
        dev: usize,
        port: usize,
        at: SimTime,
        frame: Frame,
    ) {
        if self.impairments.is_ideal() {
            return self.post(engine, origin, Ep::Dev(dev, port), at, frame);
        }
        // Impairments are drawn on the sending side from the destination
        // port's own stream — all deliveries to a port come from its one
        // cabled peer, so the draw order is that peer's deterministic
        // emission order, independent of sharding.
        let rng = &mut self.port_rng[dev][port];
        let plan = self.impairments.plan(rng, at);
        self.impairment_stats.absorb(plan.stats);
        for (at, corrupt) in plan.deliveries {
            let copy = if corrupt {
                frame.corrupted(&mut self.port_rng[dev][port])
            } else {
                frame.clone()
            };
            self.post(engine, origin, Ep::Dev(dev, port), at, copy);
        }
    }

    /// Folds the delivery into the run's [`TraceDigest`], hands the frame
    /// to the NIC, and wakes the port's owning node if its loop is parked:
    /// the wake lands on the first tick of the node's poll lattice at or
    /// after the arrival, which is exactly when the polling loop would have
    /// seen the frame.
    pub(super) fn record_and_deliver(
        &mut self,
        dev: usize,
        port: usize,
        at: SimTime,
        frame: Frame,
        engine: &mut Engine<NetSim>,
    ) {
        if let Some(ctx) = &mut self.shard_ctx {
            // Sharded runs defer the digest: folds must happen in the
            // *merged* dispatch order across all shards, not this shard's
            // arrival order, so the delivery is logged under its dispatch
            // key and the driver folds it once no shard can precede it.
            ctx.log.push_back(DeliveryRecord {
                at,
                key: engine.current_key(),
                dev: dev as u32,
                port: port as u32,
                frame: frame.clone(),
            });
        } else {
            self.trace.record(at, dev, port, frame.bytes());
        }
        if self.dev_owner[dev][port].is_some_and(|ni| self.nodes[ni].crashed) {
            // The wire carried the frame (it is in the digest), but the
            // host is dead: the NIC discards it instead of ringing DMA
            // into a stack that no longer exists.
            self.fault_stats.frames_to_dead += 1;
            return;
        }
        self.devs[dev].deliver(port, at, frame);
        if let Some(ni) = self.dev_owner[dev][port] {
            self.wake_on_delivery(ni, engine);
        }
    }
}
