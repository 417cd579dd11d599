//! Frames and cables.
//!
//! A [`Frame`] is the L2 unit handed to the NIC (Ethernet header + payload,
//! FCS implicit). On the wire it additionally occupies preamble + SFD
//! (8 bytes), FCS (4 bytes) and the inter-frame gap (12 bytes) — 24 bytes of
//! overhead that are the reason a "Gigabit" link carries at most
//! 941 Mbit/s of TCP goodput with 1500-byte MTUs. Getting this arithmetic
//! right is what makes Table II's single-port rows come out at 941 without
//! any tuning.

use crate::framebuf::{FrameBuf, FrameBufMut};
use simkern::rng::SimRng;
use simkern::time::{SimDuration, SimTime};

/// Per-frame wire overhead: preamble+SFD (8) + FCS (4) + IFG (12).
pub const WIRE_OVERHEAD: u64 = 24;

/// Maximum standard Ethernet frame (header + payload, no FCS).
pub const MAX_FRAME: usize = 1514;

/// Minimum Ethernet frame (header + payload, no FCS).
pub const MIN_FRAME: usize = 60;

/// An Ethernet frame in flight: header + payload bytes (FCS implicit).
///
/// Backed by a shared [`FrameBuf`], so cloning a frame — what a flooding
/// switch does once per egress port, and what an impaired cable does per
/// duplicate — bumps a refcount instead of copying up to 1514 bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    buf: FrameBuf,
}

impl Frame {
    /// Wraps raw frame bytes (padded up to [`MIN_FRAME`] like real MACs do).
    ///
    /// # Panics
    ///
    /// Panics if larger than [`MAX_FRAME`] — the caller segmented wrongly.
    pub fn new(bytes: Vec<u8>) -> Self {
        assert!(
            bytes.len() <= MAX_FRAME,
            "oversized frame: {} > {MAX_FRAME}",
            bytes.len()
        );
        let mut fb = FrameBufMut::with_headroom(0);
        fb.append(&bytes);
        fb.pad_to(MIN_FRAME);
        Frame { buf: fb.freeze() }
    }

    /// Fallible [`Frame::new`]: returns `None` instead of panicking when
    /// `bytes` exceeds [`MAX_FRAME`]. Undersized input is still padded up
    /// to [`MIN_FRAME`]. This is the constructor for *adversarial* frame
    /// builders (the chaos injectors), whose fuzzed lengths are data, not
    /// caller bugs.
    pub fn try_new(bytes: &[u8]) -> Option<Self> {
        if bytes.len() > MAX_FRAME {
            return None;
        }
        let mut fb = FrameBufMut::with_headroom(0);
        fb.append(bytes);
        fb.pad_to(MIN_FRAME);
        Some(Frame { buf: fb.freeze() })
    }

    /// Wraps an already-built (and already-padded) shared buffer without
    /// copying — the zero-copy path from the stack's in-place frame build.
    ///
    /// # Panics
    ///
    /// Panics outside `[MIN_FRAME, MAX_FRAME]`; the builder must pad.
    pub fn from_buf(buf: FrameBuf) -> Self {
        assert!(
            buf.len() <= MAX_FRAME,
            "oversized frame: {} > {MAX_FRAME}",
            buf.len()
        );
        assert!(
            buf.len() >= MIN_FRAME,
            "runt frame: {} < {MIN_FRAME} (builder must pad)",
            buf.len()
        );
        Frame { buf }
    }

    /// The frame contents (header + payload).
    pub fn bytes(&self) -> &[u8] {
        self.buf.as_slice()
    }

    /// The shared buffer behind this frame (sliceable without copying).
    pub fn buf(&self) -> &FrameBuf {
        &self.buf
    }

    /// Frame length in bytes (header + payload, ≥ [`MIN_FRAME`]).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Frames are never empty (minimum frame padding).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Bytes of wire time this frame occupies (including overhead).
    pub fn wire_bytes(&self) -> u64 {
        self.buf.len() as u64 + WIRE_OVERHEAD
    }

    /// Consumes the frame, yielding a copy of its bytes (diagnostics; the
    /// datapath shares [`Frame::buf`] instead).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.as_slice().to_vec()
    }
}

/// A full-duplex point-to-point cable with fixed propagation latency.
///
/// Serialization happens in the *ports* (each NIC port owns its egress
/// serializer); the wire only adds propagation. Two directions are
/// independent (full duplex).
///
/// # Example
///
/// ```
/// use updk::wire::Wire;
/// use simkern::{SimDuration, SimTime};
/// let wire = Wire::new(SimDuration::from_nanos(1_000));
/// let arrival = wire.propagate(SimTime::from_micros(10));
/// assert_eq!(arrival, SimTime::from_micros(11));
/// ```
#[derive(Debug, Clone)]
pub struct Wire {
    latency: SimDuration,
}

impl Wire {
    /// A cable with one-way `latency`.
    pub fn new(latency: SimDuration) -> Self {
        Wire { latency }
    }

    /// When a frame departing at `departure` reaches the far end.
    pub fn propagate(&self, departure: SimTime) -> SimTime {
        departure + self.latency
    }

    /// The one-way latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }
}

/// Stochastic impairments applied to a cable, per frame.
///
/// The paper's testbed is two short patch cables, effectively ideal; the
/// evaluation never stresses TCP's loss recovery. Edge deployments (the
/// paper's drones and industrial plants, §I) do: radio links lose, duplicate
/// and reorder frames. `Impairments` lets the same simulated stack be driven
/// over a degraded link so the F-Stack TCP machinery (RTO, fast retransmit,
/// out-of-order reassembly — `fstack::tcp`) is exercised end to end.
///
/// All probabilities are in per-mille (‰) so configurations stay integral
/// and deterministic under [`SimRng`]. [`Impairments::default`] is the
/// ideal cable: every field zero, [`Impairments::is_ideal`] is `true`.
///
/// # Example
///
/// ```
/// use updk::wire::Impairments;
/// use simkern::rng::SimRng;
/// use simkern::time::SimTime;
///
/// let imp = Impairments::lossy(20); // 2 % frame loss
/// let mut rng = SimRng::seed_from_u64(1);
/// let plan = imp.plan(&mut rng, SimTime::from_micros(5));
/// // Either delivered once at the nominal instant or dropped.
/// assert!(plan.deliveries.len() <= 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Impairments {
    /// Probability (‰) that a frame is dropped outright.
    pub loss_per_mille: u16,
    /// Probability (‰) that a frame arrives with a flipped byte. The NIC's
    /// FCS would normally catch this; modelling it as a payload flip instead
    /// routes the frame through the stack's IP/TCP/UDP checksum validation,
    /// which must reject it.
    pub corrupt_per_mille: u16,
    /// Probability (‰) that a frame is delivered twice.
    pub dup_per_mille: u16,
    /// Probability (‰) that a frame is held back by [`reorder_delay`],
    /// arriving after frames sent later.
    ///
    /// [`reorder_delay`]: Impairments::reorder_delay
    pub reorder_per_mille: u16,
    /// Extra delay a reordered frame suffers.
    pub reorder_delay: SimDuration,
    /// Maximum uniform jitter added to every delivery.
    pub jitter: SimDuration,
}

impl Impairments {
    /// A link that only loses frames, with probability `per_mille`/1000.
    pub fn lossy(per_mille: u16) -> Self {
        Impairments {
            loss_per_mille: per_mille,
            ..Impairments::default()
        }
    }

    /// A link that reorders frames: `per_mille`/1000 of frames are delayed
    /// by `delay` past their nominal arrival.
    pub fn reordering(per_mille: u16, delay: SimDuration) -> Self {
        Impairments {
            reorder_per_mille: per_mille,
            reorder_delay: delay,
            ..Impairments::default()
        }
    }

    /// `true` when no impairment can occur (the default, ideal cable).
    pub fn is_ideal(&self) -> bool {
        self.loss_per_mille == 0
            && self.corrupt_per_mille == 0
            && self.dup_per_mille == 0
            && (self.reorder_per_mille == 0 || self.reorder_delay == SimDuration::ZERO)
            && self.jitter == SimDuration::ZERO
    }

    /// Decides the fate of one frame whose nominal arrival is `arrival`.
    ///
    /// Draws are made in a fixed order (loss, corruption, duplication,
    /// reordering, jitter) so a given `rng` stream yields a reproducible
    /// delivery plan.
    pub fn plan(&self, rng: &mut SimRng, arrival: SimTime) -> DeliveryPlan {
        let mut stats = ImpairmentStats::default();
        if self.loss_per_mille > 0 && rng.chance_per_mille(u64::from(self.loss_per_mille)) {
            stats.lost = 1;
            return DeliveryPlan {
                deliveries: Vec::new(),
                stats,
            };
        }
        let corrupted =
            self.corrupt_per_mille > 0 && rng.chance_per_mille(u64::from(self.corrupt_per_mille));
        let duplicated =
            self.dup_per_mille > 0 && rng.chance_per_mille(u64::from(self.dup_per_mille));
        let reordered = self.reorder_per_mille > 0
            && self.reorder_delay > SimDuration::ZERO
            && rng.chance_per_mille(u64::from(self.reorder_per_mille));

        let mut at = arrival;
        if reordered {
            stats.reordered = 1;
            at += self.reorder_delay;
        }
        if self.jitter > SimDuration::ZERO {
            at += SimDuration::from_nanos(rng.below(self.jitter.as_nanos().max(1)));
        }
        if corrupted {
            stats.corrupted = 1;
        }
        let mut deliveries = vec![(at, corrupted)];
        if duplicated {
            stats.duplicated = 1;
            // The duplicate trails by one minimum-frame slot, uncorrupted
            // (independent copies rarely share the same bit error).
            deliveries.push((at + SimDuration::from_nanos(672), false));
        }
        stats.delivered = deliveries.len() as u64;
        DeliveryPlan { deliveries, stats }
    }
}

/// What an impaired cable does with one frame: zero or more deliveries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveryPlan {
    /// `(arrival instant, corrupted?)` — empty when the frame was lost.
    pub deliveries: Vec<(SimTime, bool)>,
    /// The per-frame counter increments this plan represents.
    pub stats: ImpairmentStats,
}

/// Counters of what an impaired link did over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpairmentStats {
    /// Frame copies actually delivered (duplicates count twice).
    pub delivered: u64,
    /// Frames dropped by the link.
    pub lost: u64,
    /// Frames delivered with a flipped byte.
    pub corrupted: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back past later frames.
    pub reordered: u64,
    /// Frames blackholed at the TX hop because the cable was
    /// administratively down (a scheduled `LinkDown` fault).
    pub blackholed: u64,
}

impl ImpairmentStats {
    /// Accumulates another set of counters (per-frame plans into run totals).
    pub fn absorb(&mut self, other: ImpairmentStats) {
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.blackholed += other.blackholed;
    }
}

impl Frame {
    /// Returns a copy with one byte flipped somewhere past the Ethernet
    /// header — the payload region whose integrity the stack's IP/TCP/UDP
    /// checksums guard. (A real NIC would discard the frame on FCS; flipping
    /// payload instead exercises the software validation path.)
    pub fn corrupted(&self, rng: &mut SimRng) -> Frame {
        let bytes = self.buf.as_slice();
        let lo = 14.min(bytes.len().saturating_sub(1));
        let idx = lo + rng.below((bytes.len() - lo) as u64) as usize;
        let mut fb = FrameBufMut::with_headroom(0);
        fb.append(bytes);
        fb.as_slice_mut()[idx] ^= 0x40;
        Frame { buf: fb.freeze() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_frame_padding() {
        let f = Frame::new(vec![1, 2, 3]);
        assert_eq!(f.len(), MIN_FRAME);
        assert_eq!(f.bytes()[0], 1);
        assert_eq!(f.bytes()[3], 0);
        assert!(!f.is_empty());
    }

    #[test]
    fn wire_bytes_includes_overhead() {
        // 1514-byte frame → 1538 wire bytes: the Table II constant.
        let f = Frame::new(vec![0; 1514]);
        assert_eq!(f.wire_bytes(), 1538);
        // Minimum frame: 60 + 24 = 84 wire bytes.
        let f = Frame::new(vec![0; 10]);
        assert_eq!(f.wire_bytes(), 84);
    }

    #[test]
    #[should_panic(expected = "oversized")]
    fn oversized_frames_panic() {
        let _ = Frame::new(vec![0; MAX_FRAME + 1]);
    }

    #[test]
    fn try_new_rejects_oversize_and_pads_runts() {
        assert!(Frame::try_new(&[0; MAX_FRAME + 1]).is_none());
        let f = Frame::try_new(&[7; 3]).expect("runt is padded, not rejected");
        assert_eq!(f.len(), MIN_FRAME);
        assert_eq!(&f.bytes()[..3], &[7, 7, 7]);
        let max = Frame::try_new(&[1; MAX_FRAME]).expect("max frame is legal");
        assert_eq!(max.len(), MAX_FRAME);
    }

    #[test]
    fn goodput_ceiling_is_941_mbps() {
        // 1448 bytes of TCP payload per 1538 wire bytes at 1 Gbit/s.
        let payload = 1448.0_f64;
        let wire = 1538.0;
        let goodput = payload / wire * 1000.0;
        assert!((goodput - 941.5).abs() < 0.5, "goodput {goodput}");
    }

    #[test]
    fn propagation_is_additive() {
        let w = Wire::new(SimDuration::from_nanos(500));
        assert_eq!(w.propagate(SimTime::from_nanos(100)).as_nanos(), 600);
        assert_eq!(w.latency().as_nanos(), 500);
    }

    #[test]
    fn into_bytes_round_trips() {
        let f = Frame::new(vec![9; 100]);
        assert_eq!(f.into_bytes(), vec![9; 100]);
    }

    #[test]
    fn ideal_impairments_always_deliver_on_time() {
        let imp = Impairments::default();
        assert!(imp.is_ideal());
        let mut rng = SimRng::seed_from_u64(7);
        for i in 0..1_000 {
            let at = SimTime::from_nanos(i * 100);
            let plan = imp.plan(&mut rng, at);
            assert_eq!(plan.deliveries, vec![(at, false)]);
            assert_eq!(plan.stats.lost, 0);
        }
    }

    #[test]
    fn loss_rate_is_roughly_calibrated() {
        let imp = Impairments::lossy(100); // 10 %
        let mut rng = SimRng::seed_from_u64(11);
        let mut stats = ImpairmentStats::default();
        for _ in 0..20_000 {
            stats.absorb(imp.plan(&mut rng, SimTime::ZERO).stats);
        }
        let rate = stats.lost as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "loss rate {rate}");
        assert_eq!(stats.delivered + stats.lost, 20_000);
    }

    #[test]
    fn duplication_delivers_twice_with_trailing_copy() {
        let imp = Impairments {
            dup_per_mille: 1_000,
            ..Impairments::default()
        };
        let mut rng = SimRng::seed_from_u64(3);
        let plan = imp.plan(&mut rng, SimTime::from_micros(1));
        assert_eq!(plan.deliveries.len(), 2);
        assert!(plan.deliveries[1].0 > plan.deliveries[0].0);
        assert!(!plan.deliveries[1].1, "duplicate copy is clean");
        assert_eq!(plan.stats.duplicated, 1);
        assert_eq!(plan.stats.delivered, 2);
    }

    #[test]
    fn reordering_adds_the_configured_delay() {
        let delay = SimDuration::from_micros(50);
        let imp = Impairments::reordering(1_000, delay);
        let mut rng = SimRng::seed_from_u64(5);
        let at = SimTime::from_micros(10);
        let plan = imp.plan(&mut rng, at);
        assert_eq!(plan.deliveries, vec![(at + delay, false)]);
        assert_eq!(plan.stats.reordered, 1);
    }

    #[test]
    fn reordering_without_delay_is_ideal() {
        let imp = Impairments::reordering(500, SimDuration::ZERO);
        assert!(imp.is_ideal());
    }

    #[test]
    fn jitter_stays_within_bound() {
        let imp = Impairments {
            jitter: SimDuration::from_nanos(500),
            ..Impairments::default()
        };
        assert!(!imp.is_ideal());
        let mut rng = SimRng::seed_from_u64(9);
        let at = SimTime::from_micros(3);
        for _ in 0..1_000 {
            let plan = imp.plan(&mut rng, at);
            let (t, _) = plan.deliveries[0];
            assert!(t >= at && t < at + SimDuration::from_nanos(500));
        }
    }

    #[test]
    fn corruption_flips_exactly_one_payload_byte() {
        let f = Frame::new(vec![0xAA; 200]);
        let mut rng = SimRng::seed_from_u64(13);
        for _ in 0..100 {
            let c = f.corrupted(&mut rng);
            assert_eq!(c.len(), f.len());
            let diffs: Vec<usize> = f
                .bytes()
                .iter()
                .zip(c.bytes())
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(diffs.len(), 1, "exactly one byte flipped");
            assert!(diffs[0] >= 14, "Ethernet header left intact");
        }
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let imp = Impairments {
            loss_per_mille: 50,
            dup_per_mille: 50,
            corrupt_per_mille: 50,
            reorder_per_mille: 50,
            reorder_delay: SimDuration::from_micros(10),
            jitter: SimDuration::from_nanos(200),
        };
        let run = |seed: u64| {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..500)
                .map(|i| imp.plan(&mut rng, SimTime::from_nanos(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn absorb_accumulates_all_counters() {
        let mut total = ImpairmentStats::default();
        total.absorb(ImpairmentStats {
            delivered: 2,
            lost: 1,
            corrupted: 1,
            duplicated: 1,
            reordered: 1,
            blackholed: 1,
        });
        total.absorb(ImpairmentStats {
            delivered: 1,
            ..ImpairmentStats::default()
        });
        assert_eq!(total.delivered, 3);
        assert_eq!(total.lost, 1);
        assert_eq!(total.corrupted, 1);
        assert_eq!(total.blackholed, 1);
    }
}
