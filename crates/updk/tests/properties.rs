//! Property tests of the packet framework: pool conservation, ring FIFO,
//! NIC statistic conservation, and the mbuf header-editing algebra.

use cheri::TaggedMemory;
use proptest::prelude::*;
use simkern::cost::CostModel;
use simkern::time::SimDuration;
use simkern::time::SimTime;
use std::collections::HashMap;
use updk::framebuf::{FrameBuf, FrameBufMut, BUF_CAPACITY};
use updk::mempool::{Mempool, DEFAULT_BUF_SIZE};
use updk::nic::{MacAddr, Nic, NicModel};
use updk::ring::DescRing;
use updk::switch::{LinkFabric, SwitchStats};
use updk::wire::{Frame, MAX_FRAME, MIN_FRAME, WIRE_OVERHEAD};

/// The reference [`LinkFabric`]: the same forwarding rules written the
/// slow, obvious way. Each egress queue is a `Vec` of departures and
/// every look at it `retain`s the frames still to leave, so it is right
/// whatever order departures come in.
struct ModelSwitch {
    next_free: Vec<SimTime>,
    backlog: Vec<Vec<SimTime>>,
    port_dropped: Vec<u64>,
    table: HashMap<MacAddr, usize>,
    cap: usize,
    stats: SwitchStats,
    failed: bool,
}

impl ModelSwitch {
    fn new(ports: usize, cap: usize) -> Self {
        ModelSwitch {
            next_free: vec![SimTime::ZERO; ports],
            backlog: vec![Vec::new(); ports],
            port_dropped: vec![0; ports],
            table: HashMap::new(),
            cap,
            stats: SwitchStats::default(),
            failed: false,
        }
    }

    fn live_backlog(&mut self, port: usize, now: SimTime) -> usize {
        self.backlog[port].retain(|&d| d > now);
        self.backlog[port].len()
    }

    fn egress(&mut self, port: usize, ready: SimTime, hold: SimDuration) -> Option<SimTime> {
        if self.live_backlog(port, ready) >= self.cap {
            self.port_dropped[port] += 1;
            self.stats.dropped += 1;
            return None;
        }
        let departure = ready.max(self.next_free[port]) + hold;
        self.next_free[port] = departure;
        self.backlog[port].push(departure);
        Some(departure)
    }

    /// `(egress port, departure)` of every surviving copy, in port order.
    fn ingress(
        &mut self,
        port: usize,
        now: SimTime,
        dst: MacAddr,
        src: MacAddr,
        wire_bytes: u64,
        costs: &CostModel,
    ) -> Vec<(usize, SimTime)> {
        if self.failed {
            self.stats.fail_drops += 1;
            return Vec::new();
        }
        self.stats.ingress += 1;
        if !src.is_broadcast() {
            self.table.insert(src, port);
        }
        let ready = now + SimDuration::from_nanos(costs.switch_latency_ns);
        let hold = costs.wire_cost(wire_bytes);
        let learned = (!dst.is_broadcast())
            .then(|| self.table.get(&dst).copied())
            .flatten();
        match learned {
            Some(out) if out == port => {
                self.stats.filtered += 1;
                Vec::new()
            }
            Some(out) => {
                let tx = self.egress(out, ready, hold);
                self.stats.forwarded += u64::from(tx.is_some());
                tx.map(|d| (out, d)).into_iter().collect()
            }
            None => {
                let mut copies = Vec::new();
                for p in (0..self.next_free.len()).filter(|&p| p != port) {
                    if let Some(d) = self.egress(p, ready, hold) {
                        self.stats.flooded += 1;
                        copies.push((p, d));
                    }
                }
                copies
            }
        }
    }
}

proptest! {
    /// Mempool conservation: after any alloc/free interleaving the number
    /// of buffers is invariant and no buffer is ever handed out twice.
    #[test]
    fn mempool_conservation(ops in proptest::collection::vec(any::<bool>(), 1..300)) {
        let mem = TaggedMemory::new(1 << 20);
        let region = mem.root_cap().try_restrict(0, 32 * DEFAULT_BUF_SIZE).unwrap();
        let mut pool = Mempool::new("p", region, DEFAULT_BUF_SIZE).unwrap();
        let cap = pool.capacity();
        let mut live = Vec::new();
        for &do_alloc in &ops {
            if do_alloc {
                if let Ok(m) = pool.alloc() {
                    // Freshly allocated buffer must not collide with a live one.
                    for other in &live {
                        prop_assert_ne!(m.pool_index(), updk::Mbuf::pool_index(other));
                    }
                    live.push(m);
                }
            } else if let Some(m) = live.pop() {
                pool.free(m);
            }
            prop_assert_eq!(pool.in_use() as usize, live.len());
            prop_assert_eq!(pool.available() + pool.in_use(), cap);
        }
    }

    /// DescRing is an exact bounded FIFO: dequeued order equals enqueued
    /// order restricted to accepted elements.
    #[test]
    fn ring_is_a_bounded_fifo(
        items in proptest::collection::vec(any::<u32>(), 1..200),
        deq_every in 1usize..8,
    ) {
        let mut ring: DescRing<u32> = DescRing::new(16);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut out = Vec::new();
        let mut model_out = Vec::new();
        for (i, &x) in items.iter().enumerate() {
            if ring.enqueue(x).is_ok() {
                model.push_back(x);
            }
            if i % deq_every == 0 {
                out.extend(ring.dequeue_burst(3));
                for _ in 0..3 {
                    if let Some(v) = model.pop_front() {
                        model_out.push(v);
                    }
                }
            }
        }
        out.extend(ring.dequeue_burst(usize::MAX));
        model_out.extend(model.drain(..));
        prop_assert_eq!(out, model_out);
        let (enq, deq, dropped) = ring.stats();
        prop_assert_eq!(enq, deq);
        prop_assert_eq!(enq + dropped, items.len() as u64);
    }

    /// Frames: padding law and wire arithmetic for any payload size.
    #[test]
    fn frame_laws(len in 0usize..MAX_FRAME) {
        let f = Frame::new(vec![7; len]);
        prop_assert!(f.len() >= MIN_FRAME);
        prop_assert!(f.len() >= len);
        prop_assert_eq!(f.wire_bytes(), f.len() as u64 + WIRE_OVERHEAD);
        if len >= MIN_FRAME {
            prop_assert_eq!(f.len(), len);
        }
    }

    /// NIC statistic conservation: every delivered frame is polled out,
    /// dropped by the ring, or still pending — no frame is lost silently.
    #[test]
    fn nic_frame_conservation(
        n_frames in 1usize..600,
        poll_every in 1usize..10,
    ) {
        let costs = CostModel::morello();
        let mut nic = Nic::new(NicModel::Host, 1);
        nic.set_link(0, true);
        let mut polled = 0u64;
        for i in 0..n_frames {
            nic.deliver(0, SimTime::from_nanos(i as u64), Frame::new(vec![0; 64]), &costs);
            if i % poll_every == 0 {
                polled += nic.rx_burst(0, SimTime::from_secs(1), 8).len() as u64;
            }
        }
        polled += nic.rx_burst(0, SimTime::from_secs(1), usize::MAX).len() as u64;
        let s = nic.stats(0);
        prop_assert_eq!(s.ipackets + s.imissed, n_frames as u64);
        prop_assert_eq!(polled + nic.rx_pending(0) as u64, s.ipackets);
    }

    /// The switch's FIFO egress queues against [`ModelSwitch`]: any script
    /// of ingress frames (learned unicast, unknown unicast and broadcast
    /// floods, bursts at a standing `now` that overflow a small queue),
    /// backlog queries at arbitrary instants — earlier than the last
    /// ingress, and exactly on a departure, included — and fail/recover
    /// cycles yields the same egress copies, the same counters and the same
    /// backlog on every port after every step.
    #[test]
    fn switch_egress_fifo_matches_the_retain_model(
        ports in 2usize..6,
        cap in 1usize..6,
        ops in proptest::collection::vec(
            (0u8..16, any::<u8>(), any::<u8>(), MIN_FRAME..MAX_FRAME + 1, 0u64..40_000),
            1..250,
        ),
    ) {
        let costs = CostModel::morello();
        let mut sw = LinkFabric::new(ports, cap);
        let mut model = ModelSwitch::new(ports, cap);
        // Stations 1..=ports+1: one more than there are ports, so some
        // destination is always unknown or shares a port with its sender.
        let station = |x: u8| MacAddr::local(1 + x % (ports as u8 + 1));
        let mut now = SimTime::ZERO;
        // The newest departure handed out: the instant on which "still
        // queued" and "gone" meet.
        let mut edge = SimTime::ZERO;
        let latency = SimDuration::from_nanos(costs.switch_latency_ns);
        for &(kind, a, b, len, dt) in &ops {
            match kind {
                // A backlog query at an arbitrary instant, or on the edge.
                0 => {
                    let at = if b % 2 == 0 { SimTime::from_nanos(dt * 8) } else { edge };
                    let port = usize::from(a) % ports;
                    prop_assert_eq!(sw.backlog(port, at), model.live_backlog(port, at));
                }
                1 => {
                    sw.fail();
                    model.failed = true;
                }
                2 => {
                    sw.recover();
                    model.failed = false;
                    model.table.clear();
                }
                _ => {
                    // Half the frames arrive with the clock standing still;
                    // some become ready exactly as the newest one departs.
                    if kind % 2 == 0 {
                        now += SimDuration::from_nanos(dt);
                    } else if kind == 5 && edge >= now + latency {
                        now = SimTime::from_nanos(edge.as_nanos() - latency.as_nanos());
                    }
                    let port = usize::from(a) % ports;
                    let src = station(a);
                    let dst = if kind == 3 { MacAddr::BROADCAST } else { station(b) };
                    let mut bytes = vec![0u8; len];
                    bytes[0..6].copy_from_slice(&dst.octets());
                    bytes[6..12].copy_from_slice(&src.octets());
                    let frame = Frame::new(bytes);
                    let want = model.ingress(port, now, dst, src, frame.wire_bytes(), &costs);
                    let got: Vec<(usize, SimTime)> = sw
                        .ingress(port, now, frame, &costs)
                        .iter()
                        .map(|tx| (tx.port, tx.departure))
                        .collect();
                    edge = got.last().map_or(edge, |&(_, d)| d);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(sw.stats(), model.stats);
            for p in 0..ports {
                prop_assert_eq!(sw.port_dropped(p), model.port_dropped[p]);
                prop_assert_eq!(sw.backlog(p, now), model.live_backlog(p, now));
            }
        }
    }

    /// TX departures are strictly increasing per port (the serializer never
    /// interleaves frames) and later requests never depart earlier.
    #[test]
    fn tx_departures_are_monotone(sizes in proptest::collection::vec(60usize..1514, 1..60)) {
        let costs = CostModel::morello();
        let mut nic = Nic::new(NicModel::Dual82576, 1);
        nic.set_link(0, true);
        let mut prev = SimTime::ZERO;
        for (i, &s) in sizes.iter().enumerate() {
            let dep = nic
                .tx(0, SimTime::from_nanos(i as u64), &Frame::new(vec![0; s]), &costs)
                .unwrap();
            prop_assert!(dep > prev);
            prev = dep;
        }
        prop_assert_eq!(nic.stats(0).opackets, sizes.len() as u64);
    }
}

/// Mbuf header algebra: prepend/adj are inverses and bounds are enforced
/// at every step (deterministic edge-case sweep).
#[test]
fn mbuf_prepend_adj_inverse() {
    let mut mem = TaggedMemory::new(1 << 20);
    let region = mem
        .root_cap()
        .try_restrict(0, 8 * DEFAULT_BUF_SIZE)
        .unwrap();
    let mut pool = Mempool::new("p", region, DEFAULT_BUF_SIZE).unwrap();
    for hdr_len in [1usize, 4, 14, 20, 40, 128] {
        let mut m = pool.alloc().unwrap();
        m.set_data(&mut mem, b"payload-payload-payload").unwrap();
        let before = m.read(&mut mem).unwrap();
        let hdr = vec![0xEE; hdr_len];
        if hdr_len <= usize::from(m.headroom()) {
            m.prepend(&mut mem, &hdr).unwrap();
            assert_eq!(m.data_len() as usize, before.len() + hdr_len);
            m.adj(hdr_len as u16).unwrap();
            assert_eq!(m.read(&mut mem).unwrap(), before);
        } else {
            assert!(m.prepend(&mut mem, &hdr).is_err());
        }
        pool.free(m);
    }
}

mod qos_properties {
    use proptest::prelude::*;
    use simkern::time::SimTime;
    use updk::qos::{Color, DrrScheduler, SrTcm, TokenBucket};
    use updk::wire::Frame;

    proptest! {
        /// Token-bucket conservation: over any schedule of conformant
        /// departures, bytes sent never exceed burst + rate × elapsed.
        #[test]
        fn bucket_never_exceeds_rate(
            rate in 1_000u64..1_000_000_000,
            burst in 10_000u64..100_000,
            sizes in proptest::collection::vec(1u64..10_000, 1..200),
        ) {
            // Frames conform (size <= burst); oversize frames intentionally
            // spill past the rate envelope (classic behavior) and are
            // covered by the unit test instead.
            let mut tb = TokenBucket::new(rate, burst);
            let mut now = SimTime::ZERO;
            let mut sent = 0u64;
            for s in sizes {
                now = tb.earliest_departure(now, s);
                tb.consume(now, s);
                sent += s;
            }
            let elapsed_s = now.as_nanos() as f64 / 1e9;
            let cap = burst as f64 + rate as f64 * elapsed_s;
            prop_assert!(
                sent as f64 <= cap + 1.0,
                "sent {sent} exceeds cap {cap:.0} (rate {rate}, burst {burst})"
            );
        }

        /// Departure instants are monotone: conformance can never be
        /// granted in the past relative to the request.
        #[test]
        fn bucket_departures_are_monotone(
            sizes in proptest::collection::vec(1u64..5_000, 1..100),
        ) {
            let mut tb = TokenBucket::new(1_000_000, 3_000);
            let mut now = SimTime::ZERO;
            for s in sizes {
                let dep = tb.earliest_departure(now, s);
                prop_assert!(dep >= now);
                tb.consume(dep, s);
                now = dep;
            }
        }

        /// DRR conservation: every enqueued frame is dequeued exactly
        /// once, regardless of weights and sizes.
        #[test]
        fn drr_conserves_frames(
            w0 in 1u32..16, w1 in 1u32..16,
            sizes in proptest::collection::vec((0usize..2, 1usize..1_514), 1..200),
        ) {
            let mut s = DrrScheduler::new(&[w0, w1], 1_514);
            let mut pushed = [0usize; 2];
            for (flow, size) in &sizes {
                s.enqueue(*flow, Frame::new(vec![0; *size]));
                pushed[*flow] += 1;
            }
            let mut popped = [0usize; 2];
            while let Some((flow, _)) = s.dequeue() {
                popped[flow] += 1;
            }
            prop_assert_eq!(pushed, popped);
            prop_assert_eq!(s.backlog(), 0);
        }

        /// srTCM marks are total and the green share never exceeds what
        /// CIR allows over the offered window.
        #[test]
        fn srtcm_green_bounded_by_cir(
            gap_us in 1u64..1_000,
            n in 10usize..200,
        ) {
            let cir = 1_000_000u64; // 1 MB/s
            let mut m = SrTcm::new(cir, 3_000, 3_000);
            let mut green_bytes = 0u64;
            let mut t = SimTime::ZERO;
            for _ in 0..n {
                if m.mark(t, 1_500) == Color::Green {
                    green_bytes += 1_500;
                }
                t += simkern::SimDuration::from_micros(gap_us);
            }
            let elapsed_s = t.as_nanos() as f64 / 1e9;
            let cap = 3_000.0 + cir as f64 * elapsed_s;
            prop_assert!(green_bytes as f64 <= cap + 1.0);
        }
    }
}

proptest! {
    /// FrameBuf headroom builds round-trip arbitrary payloads: appending a
    /// payload and prepending arbitrary header layers in place yields
    /// exactly `headers… ++ payload`, with headroom/tailroom accounting
    /// consistent throughout.
    #[test]
    fn framebuf_headroom_build_round_trips(
        payload in proptest::collection::vec(any::<u8>(), 0..1448),
        headers in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..24), 0..4),
    ) {
        let headroom: usize = headers.iter().map(Vec::len).sum();
        let mut fb = FrameBufMut::with_headroom(headroom);
        fb.append(&payload);
        prop_assert_eq!(fb.len(), payload.len());
        prop_assert_eq!(fb.tailroom(), BUF_CAPACITY - headroom - payload.len());
        // Prepend innermost-first, the way TCP → IP → Ethernet stack up.
        let mut expect = payload.clone();
        for h in headers.iter().rev() {
            fb.prepend(h);
            let mut e = h.clone();
            e.extend_from_slice(&expect);
            expect = e;
        }
        prop_assert_eq!(fb.headroom(), 0);
        prop_assert_eq!(fb.as_slice(), &expect[..]);
        let frozen = fb.freeze();
        prop_assert_eq!(&frozen[..], &expect[..]);
    }

    /// Slicing a frozen FrameBuf matches slicing the equivalent byte
    /// vector, for arbitrary nested sub-ranges, and slices compare equal
    /// to independent copies of the same bytes (identity-free equality).
    #[test]
    fn framebuf_slices_match_vec_slices(
        data in proptest::collection::vec(any::<u8>(), 1..1514),
        cuts in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..6),
    ) {
        let f = FrameBuf::copy_from(&data);
        prop_assert_eq!(f.len(), data.len());
        let mut view = f.clone();
        let mut model: &[u8] = &data;
        for &(a, b) in &cuts {
            if model.is_empty() {
                break;
            }
            let start = usize::from(a) % model.len();
            let len = usize::from(b) % (model.len() - start + 1);
            view = view.slice(start, len);
            model = &model[start..start + len];
            prop_assert_eq!(view.as_slice(), model);
            prop_assert_eq!(&view, &FrameBuf::copy_from(model));
        }
        // The original view is untouched by slicing.
        prop_assert_eq!(f.as_slice(), &data[..]);
    }

    /// Pool conservation: buffers taken for arbitrary build/slice/drop
    /// sequences all flow back to the pool — takes equal recycles once
    /// every view is dropped.
    #[test]
    fn framebuf_pool_conserves_storage(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..256), 1..20),
    ) {
        let before = updk::framebuf::pool_stats();
        let mut held = Vec::new();
        for p in &payloads {
            let f = FrameBuf::copy_from(p);
            held.push(f.slice_from(p.len() / 2));
            held.push(f);
        }
        drop(held);
        let after = updk::framebuf::pool_stats();
        let taken = (after.fresh + after.reused) - (before.fresh + before.reused);
        prop_assert_eq!(taken, payloads.len() as u64);
        prop_assert_eq!(after.recycled - before.recycled, taken);
    }
}
