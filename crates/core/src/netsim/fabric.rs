//! The wire side of the world: switch ingress and forwarding, final-hop
//! delivery with cable impairments, and the [`TraceDigest`] every delivery
//! folds into.

use super::shard::DeliveryRecord;
use super::{Ep, NetEvent, NetSim};
use simkern::engine::Engine;
use simkern::time::SimTime;
use simkern::Fnv1a;
use updk::wire::Frame;

/// A rolling digest over every frame delivery of a run: the
/// `harness_determinism`-style trace identity witness, cheap enough to keep
/// always-on. Two runs with identical construction and seed must produce
/// identical digests; any divergence in delivery instant, destination or
/// payload bytes changes the digest.
///
/// Each delivered frame is hashed once, word-wise (`content_hash`), and
/// the delivery then folds into one FNV-1a chain as a fixed 40-byte
/// record: `(at_ns, dev, port, len, content_hash)`, each a little-endian
/// `u64`, in dispatch order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    /// FNV-1a over the 40-byte record of every delivery.
    pub digest: u64,
    /// Deliveries folded in.
    pub frames: u64,
    /// Bytes the FNV-1a chain folded: [`TraceDigest::RECORD_BYTES`] per
    /// delivery. This counts the chain and not the frames because the
    /// repo benchmark prices `core.trace_bytes` with an FNV-1a probe, which
    /// keeps that price exact; the content hash is separate work.
    pub bytes: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        TraceDigest {
            digest: Fnv1a::BASIS,
            frames: 0,
            bytes: 0,
        }
    }
}

impl TraceDigest {
    /// Bytes one delivery folds into the FNV-1a chain: five `u64`s.
    pub const RECORD_BYTES: u64 = 40;

    /// Folds one delivery's record into the chain. `hash` is the frame's
    /// `content_hash`; `dev` and `port` fold at full width.
    #[inline]
    pub(super) fn fold(&mut self, at: SimTime, dev: usize, port: usize, len: usize, hash: u64) {
        // Fold through a local so the chain stays in a register.
        let mut chain = Fnv1a(self.digest);
        for word in [at.as_nanos(), dev as u64, port as u64, len as u64, hash] {
            chain.fold_u64(word);
        }
        self.digest = chain.value();
        self.frames += 1;
        self.bytes += Self::RECORD_BYTES;
    }
}

/// The content-hash lanes' multiplier (2^64 / φ, odd).
const LANE_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One lane step: bijective in `lane` for a fixed `word` and in `word` for
/// a fixed `lane`, so a single changed word always changes the lane.
#[inline]
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(LANE_K).rotate_left(31)
}

/// The word-wise content hash a delivery folds in place of its bytes.
/// Four independent lanes take one little-endian `u64` each of every
/// 32-byte block, so the multiplies overlap instead of forming one latency
/// chain; the tail goes word by word into the same lanes, zero-padded.
/// The lanes then fold in order into a chain seeded with the length, and
/// the splitmix64 finaliser spreads every input bit over the whole result.
/// Deterministic across processes and hosts by construction: no seed, no
/// `std` hasher.
fn content_hash(bytes: &[u8]) -> u64 {
    let word = |w: &[u8]| {
        let mut padded = [0u8; 8];
        padded[..w.len()].copy_from_slice(w);
        u64::from_le_bytes(padded)
    };
    // Distinct lane seeds (the first hex digits of π), so equal words in
    // different lanes do not start from equal states.
    let mut lanes = [
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = lane_step(*lane, word(&block[8 * i..8 * i + 8]));
        }
    }
    for (lane, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = lane_step(*lane, word(w));
    }
    let mut z = lanes
        .iter()
        .fold(bytes.len() as u64, |h, &l| lane_step(h, l));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
        let mut outputs = std::mem::take(&mut self.switch_tx);
        self.switches[sw].ingress_into(sp, now, frame, &self.costs, &mut outputs);
        let origin = self.switch_origin(sw);
        for tx in outputs.drain(..) {
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
        self.switch_tx = outputs;
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
        let (len, hash) = (frame.len(), content_hash(frame.bytes()));
        if let Some(ctx) = &mut self.shard_ctx {
            // Sharded runs defer the fold: it must happen in the *merged*
            // dispatch order across all shards, not this shard's arrival
            // order, so the record is logged under its dispatch key and the
            // driver folds it once no shard can precede it.
            ctx.log.push_back(DeliveryRecord {
                at,
                key: engine.current_key(),
                dev,
                port,
                len,
                hash,
            });
        } else {
            self.trace.fold(at, dev, port, len, hash);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame-sized buffer with no two adjacent bytes alike.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 151 + 7) as u8).collect()
    }

    fn one_delivery(at: u64, dev: usize, port: usize, frame: &[u8]) -> TraceDigest {
        let mut t = TraceDigest::default();
        let at = SimTime::from_nanos(at);
        t.fold(at, dev, port, frame.len(), content_hash(frame));
        t
    }

    /// A change of hash, word order or record layout fails here first.
    #[test]
    fn the_digest_of_a_fixed_frame_is_pinned() {
        let frame: Vec<u8> = (0..=255).collect();
        assert_eq!(
            content_hash(&frame),
            0x4b82_a92e_56bc_f30f,
            "got {:#018x}",
            content_hash(&frame)
        );
        let t = one_delivery(1_000, 1, 0, &frame);
        assert_eq!(t.digest, 0xb6d2_fb27_04c9_2e3c, "got {:#018x}", t.digest);
        assert_eq!((t.frames, t.bytes), (1, TraceDigest::RECORD_BYTES));
    }

    #[test]
    fn every_single_bit_flip_of_a_full_frame_changes_the_hash() {
        let mut frame = pattern(1514);
        let base = content_hash(&frame);
        for bit in 0..frame.len() * 8 {
            frame[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(content_hash(&frame), base, "bit {bit}");
            frame[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Zero padding makes a short tail word and the same word with a zero
    /// byte appended equal, so only the length mix tells them apart; each
    /// length up to three blocks crosses every tail path.
    #[test]
    fn a_trailing_zero_byte_changes_the_hash_at_every_length() {
        for bytes in [pattern(97), vec![0; 97]] {
            for len in 0..=96 {
                let mut longer = bytes[..len].to_vec();
                longer.push(0);
                assert_ne!(
                    content_hash(&bytes[..len]),
                    content_hash(&longer),
                    "length {len}"
                );
            }
        }
    }

    /// The weakness of a one-lane multiply hash: flipping the top bit of a
    /// word flips only the top bit of the product, so two such flips can
    /// cancel. Here every single and every pair of top-bit flips over 12
    /// words (three blocks, every lane, across blocks) hashes apart from
    /// the others and from the original.
    #[test]
    fn top_bit_flips_in_different_words_never_cancel() {
        let words = 12;
        let frame = pattern(8 * words);
        let flipped = |ws: &[usize]| {
            let mut f = frame.clone();
            for &w in ws {
                f[8 * w + 7] ^= 0x80;
            }
            content_hash(&f)
        };
        let mut seen = vec![content_hash(&frame)];
        for a in 0..words {
            seen.push(flipped(&[a]));
            for b in a + 1..words {
                seen.push(flipped(&[a, b]));
            }
        }
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "two flip sets hashed alike");
    }

    #[test]
    fn the_delivery_instant_reaches_the_digest_at_nanosecond_resolution() {
        let frame = pattern(64);
        assert_ne!(
            one_delivery(1_000, 0, 0, &frame),
            one_delivery(1_001, 0, 0, &frame)
        );
    }

    /// The per-byte digest this one replaced folded `dev as u8` and
    /// `port as u8`, so device 257 and port 256 aliased device 1 and
    /// port 0. The record folds both at full width.
    #[test]
    fn devices_and_ports_past_255_do_not_alias() {
        let frame = pattern(64);
        let first = one_delivery(5, 1, 0, &frame);
        assert_ne!(first, one_delivery(5, 257, 0, &frame));
        assert_ne!(first, one_delivery(5, 1, 256, &frame));
    }
}
