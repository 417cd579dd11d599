//! Property tests of the TCP/IP library: codec round trips, checksum laws,
//! buffer invariants, and — most importantly — TCP's reliable-delivery
//! invariant under adversarial segment arrival orders.

use fstack::buffer::{RecvBuffer, SendBuffer};
use fstack::ether::{EthHdr, EtherType};
use fstack::icmp::IcmpEcho;
use fstack::ip::{checksum, sum_words, IpProto, Ipv4Hdr};
use fstack::tcp::seq::{seq_diff, seq_ge, seq_le, seq_lt};
use fstack::tcp::tcb::Tcb;
use fstack::tcp::{TcpFlags, TcpOptions, TcpSegment};
use fstack::udp::UdpDatagram;
use proptest::prelude::*;
use simkern::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use updk::nic::MacAddr;

fn ip(a: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, a)
}

/// Reference copy of a send-buffer range (the production path copies into
/// a frame buffer via `range_into`).
fn range_vec(buf: &SendBuffer, seq: u32, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    let n = buf.range_into(seq, &mut v);
    v.truncate(n);
    v
}

/// The checksum's definition, one big-endian `u16` at a time (RFC 1071
/// §1), an odd last byte padded with a zero on the right.
fn naive_sum_words(data: &[u8], acc: u32) -> u64 {
    let mut sum = u64::from(acc);
    for w in data.chunks(2) {
        let lo = w.get(1).copied().unwrap_or(0);
        sum += u64::from(u16::from_be_bytes([w[0], lo]));
    }
    sum
}

/// `finish_checksum` over a sum too wide for its `u32`.
fn naive_finish(mut sum: u64) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// `sum_words` reads memory in native-endian 32-bit lanes, 16 bytes at a
/// time, and swaps once at the end; the definition above reads one
/// big-endian word at a time. After `finish_checksum` the two must be the
/// same 16 bits: for every length up to past a full segment (every residue
/// mod 16, so every tail shape), for slices starting at odd addresses
/// (unaligned lanes), for starting accumulators that are empty, small,
/// about to carry out of 32 bits and already past 16, and for the two
/// payloads whose sum sits on the 0x0000/0xFFFF boundary of one's
/// complement arithmetic.
#[test]
fn sum_words_matches_the_word_at_a_time_definition() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut noise = vec![0u8; 1_604];
    for b in noise.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = (x >> 32) as u8;
    }
    let payloads = [noise, vec![0x00; 1_604], vec![0xFF; 1_604]];
    for payload in &payloads {
        for offset in 0..4 {
            for len in 0..=1_600 {
                let data = &payload[offset..offset + len];
                for acc in [0, 0x1234, 0xFFFF_0000, 0x2_FFFF] {
                    let got = fstack::ip::finish_checksum(sum_words(data, acc));
                    let want = naive_finish(naive_sum_words(data, acc));
                    assert_eq!(
                        got,
                        want,
                        "len {len} at offset {offset}, acc {acc:#x}, first byte {:?}",
                        data.first()
                    );
                }
            }
        }
    }
    // Zero stays zero and nothing else becomes it: the one case in which
    // the folded and the unfolded accumulator could finish differently.
    assert_eq!(sum_words(&[0; 64], 0), 0);
    assert_ne!(sum_words(&[0xFF; 64], 0), 0);
}

proptest! {
    /// Internet checksum: appending the checksum makes the sum verify to 0,
    /// for any payload.
    #[test]
    fn checksum_self_verifies(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let c = checksum(&data);
        let mut with = data.clone();
        with.extend_from_slice(&c.to_be_bytes());
        // Odd-length payloads pad differently; verify on even lengths.
        if data.len() % 2 == 0 {
            prop_assert_eq!(checksum(&with), 0);
        }
        // Incremental equivalence: one pass equals two chunked passes.
        let split = data.len() / 2 - data.len() / 2 % 2;
        let (lo, hi) = data.split_at(split);
        let acc = sum_words(hi, sum_words(lo, 0));
        prop_assert_eq!(fstack::ip::finish_checksum(acc), c);
    }

    /// Ethernet + IPv4 + TCP round trip for arbitrary field values.
    #[test]
    fn tcp_over_ip_over_eth_round_trip(
        src_port in 1u16..u16::MAX,
        dst_port in 1u16..u16::MAX,
        seq in any::<u32>(),
        ack in any::<u32>(),
        window in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
        syn in any::<bool>(),
        fin in any::<bool>(),
    ) {
        let seg = TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags { syn, fin, ack: true, rst: false, psh: false },
            window,
            options: TcpOptions { mss: Some(1460), ts: Some((seq, ack)), ..Default::default() },
            payload: payload.into(),
        };
        let l4 = seg.build(ip(1), ip(2));
        let pkt = Ipv4Hdr::build(ip(1), ip(2), IpProto::Tcp, 7, &l4);
        let frame = EthHdr {
            dst: MacAddr::local(2),
            src: MacAddr::local(1),
            ethertype: EtherType::Ipv4,
        }
        .build(&pkt);
        let (eh, ip_bytes) = EthHdr::parse(&frame).expect("eth");
        prop_assert_eq!(eh.ethertype, EtherType::Ipv4);
        let (ih, l4_bytes) = Ipv4Hdr::parse(ip_bytes).expect("ip");
        prop_assert_eq!(ih.proto, IpProto::Tcp);
        let parsed = TcpSegment::parse(ih.src, ih.dst, l4_bytes).expect("tcp");
        prop_assert_eq!(parsed, seg);
    }

    /// Single-bit corruption anywhere in the L4 bytes is detected.
    #[test]
    fn tcp_checksum_catches_bit_flips(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        flip_byte in 0usize..100,
        flip_bit in 0u8..8,
    ) {
        let seg = TcpSegment {
            src_port: 1, dst_port: 2, seq: 3, ack: 4,
            flags: TcpFlags::only_ack(),
            window: 100,
            options: TcpOptions::default(),
            payload: payload.into(),
        };
        let mut bytes = seg.build(ip(1), ip(2));
        let idx = flip_byte % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        prop_assert!(TcpSegment::parse(ip(1), ip(2), &bytes).is_none());
    }

    /// UDP and ICMP round trips.
    #[test]
    fn udp_icmp_round_trips(
        sp in 1u16..u16::MAX,
        dp in 1u16..u16::MAX,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        ident in any::<u16>(),
        sq in any::<u16>(),
    ) {
        let d = UdpDatagram { src_port: sp, dst_port: dp, payload: payload.clone().into() };
        prop_assert_eq!(UdpDatagram::parse(ip(1), ip(2), &d.build(ip(1), ip(2))).expect("udp"), d);
        let e = IcmpEcho::request(ident, sq, &payload);
        prop_assert_eq!(IcmpEcho::parse(&e.build()).expect("icmp"), e);
    }

    /// Sequence arithmetic is a strict total order on any window < 2^31.
    #[test]
    fn seq_order_laws(base in any::<u32>(), a in 0u32..1 << 30, b in 0u32..1 << 30) {
        let x = base.wrapping_add(a);
        let y = base.wrapping_add(b);
        prop_assert_eq!(seq_lt(x, y), a < b);
        prop_assert_eq!(seq_le(x, y), a <= b);
        prop_assert_eq!(seq_ge(x, y), a >= b);
        prop_assert_eq!(seq_diff(y, x), b.wrapping_sub(a));
    }

    /// SendBuffer: what goes in comes out of `range`, acked bytes vanish.
    #[test]
    fn send_buffer_invariants(
        base in any::<u32>(),
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..100), 1..20),
        ack_fraction in 0u32..100,
    ) {
        let mut buf = SendBuffer::new(base, 4096);
        let mut model: Vec<u8> = Vec::new();
        for chunk in &chunks {
            let n = buf.push(chunk);
            model.extend_from_slice(&chunk[..n]);
        }
        prop_assert_eq!(buf.len(), model.len());
        prop_assert_eq!(range_vec(&buf, base, model.len()), model.clone());
        // Ack a prefix.
        let k = (model.len() as u32 * ack_fraction / 100) as usize;
        buf.ack_to(base.wrapping_add(k as u32));
        prop_assert_eq!(buf.len(), model.len() - k);
        prop_assert_eq!(
            range_vec(&buf, base.wrapping_add(k as u32), model.len()),
            model[k..].to_vec()
        );
    }

    /// RecvBuffer reassembles any permutation of MSS-ish segments into the
    /// original byte stream — TCP's reliability invariant at the buffer
    /// level.
    #[test]
    fn recv_buffer_reassembles_any_order(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        seed in any::<u64>(),
        base in any::<u32>(),
    ) {
        // Split into segments of varying sizes.
        let mut segs: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut off = 0usize;
        let mut sz = 37usize;
        while off < data.len() {
            let n = sz.min(data.len() - off);
            segs.push((base.wrapping_add(off as u32), data[off..off + n].to_vec()));
            off += n;
            sz = (sz * 7 + 11) % 97 + 1;
        }
        // Shuffle deterministically.
        let mut rng = simkern::rng::SimRng::seed_from_u64(seed);
        for i in (1..segs.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            segs.swap(i, j);
        }
        let mut rb = RecvBuffer::new(base, 4096);
        for (s, d) in &segs {
            let d = updk::framebuf::FrameBuf::copy_from(d);
            rb.on_segment(*s, &d);
            // Duplicates must be harmless too.
            rb.on_segment(*s, &d);
        }
        prop_assert_eq!(rb.read(usize::MAX), data);
    }
}

/// TCP end-to-end reliability under random loss: every written byte is
/// delivered exactly once, in order, despite dropping a configurable
/// fraction of segments in both directions.
#[test]
fn tcp_survives_random_loss() {
    let a = (ip(1), 40_000u16);
    let b = (ip(2), 5_201u16);
    for loss_per_mille in [0u64, 30, 100, 250] {
        let mut rng = simkern::rng::SimRng::seed_from_u64(1000 + loss_per_mille);
        let mut now = SimTime::from_millis(1);
        let mut client = Tcb::connect(a, b, 77, 1448);
        let syn = loop {
            let segs = client.poll_output(now);
            if let Some(s) = segs.into_iter().next() {
                break s;
            }
            now += SimDuration::from_millis(1);
        };
        let mut server = Tcb::accept_from(b, a, &syn, 99, 1448);

        let data: Vec<u8> = (0..40_000u32).map(|i| (i % 255) as u8).collect();
        let mut sent = 0usize;
        let mut received = Vec::new();
        let mut rounds = 0;
        while received.len() < data.len() && rounds < 200_000 {
            rounds += 1;
            if sent < data.len() {
                sent += client.write(&data[sent..]);
            }
            for seg in client.poll_output(now) {
                if !rng.chance_per_mille(loss_per_mille) {
                    server.on_segment(now, &seg);
                }
            }
            for seg in server.poll_output(now) {
                if !rng.chance_per_mille(loss_per_mille) {
                    client.on_segment(now, &seg);
                }
            }
            received.extend(server.read(usize::MAX));
            now += SimDuration::from_micros(200);
        }
        assert_eq!(
            received.len(),
            data.len(),
            "loss {loss_per_mille}‰: all bytes delivered"
        );
        assert_eq!(
            received, data,
            "loss {loss_per_mille}‰: in order, uncorrupted"
        );
        if loss_per_mille > 0 {
            assert!(
                client.stats().retransmits > 0,
                "loss {loss_per_mille}‰ must cause retransmissions"
            );
        }
    }
}

/// Drives one close-path interleaving: both sides write once, then close at
/// their assigned rounds, while up to six early segments are dropped. The
/// connection must terminate — every written byte delivered, every TCB in
/// `Closed` once the 2 MSL / orphan timers run out — for *any* ordering of
/// the two closes (simultaneous close through CLOSING included) and any
/// placement of the losses (FIN retransmission from LAST_ACK included).
fn drive_close_interleaving(
    a_close_at: usize,
    b_close_at: usize,
    a_bytes: usize,
    b_bytes: usize,
    drop_mask: u64,
) -> Result<(), proptest::runner::TestCaseError> {
    use fstack::tcp::tcb::TcpState;

    let a = (ip(1), 40_000u16);
    let b = (ip(2), 5_201u16);
    let mut now = SimTime::from_millis(1);
    let mut client = Tcb::connect(a, b, 77, 1448);
    let syn = client.poll_output(now).remove(0);
    let mut server = Tcb::accept_from(b, a, &syn, 99, 1448);

    let a_data = vec![0xA5u8; a_bytes];
    let b_data = vec![0x5Au8; b_bytes];
    // At most six droppable segments: the retransmission give-up threshold
    // is eight consecutive timeouts, so recovery is always possible.
    let mut drops_left = drop_mask.count_ones() % 7;
    let mut exchange = 0u32;
    let drop = |seg_idx: u32, drops_left: &mut u32| {
        let bit = drop_mask >> (seg_idx % 64) & 1 == 1;
        if bit && *drops_left > 0 {
            *drops_left -= 1;
            true
        } else {
            false
        }
    };

    let mut a_sent = 0usize;
    let mut b_sent = 0usize;
    let mut a_closed = false;
    let mut b_closed = false;
    let mut a_received = Vec::new();
    let mut b_received = Vec::new();
    let terminal = |t: &Tcb| matches!(t.state(), TcpState::Closed | TcpState::TimeWait);
    for round in 0..30_000usize {
        // Writes only land once the handshake is far enough along; bytes
        // still unwritten when the side closes are simply never sent.
        if !a_closed && a_sent < a_bytes {
            a_sent += client.write(&a_data[a_sent..]);
        }
        if !b_closed && b_sent < b_bytes {
            b_sent += server.write(&b_data[b_sent..]);
        }
        if round == a_close_at && !a_closed {
            client.close();
            a_closed = true;
        }
        if round == b_close_at && !b_closed {
            server.close();
            b_closed = true;
        }
        for seg in client.poll_output(now) {
            exchange += 1;
            if !drop(exchange, &mut drops_left) {
                server.on_segment(now, &seg);
            }
        }
        for seg in server.poll_output(now) {
            exchange += 1;
            if !drop(exchange, &mut drops_left) {
                client.on_segment(now, &seg);
            }
        }
        a_received.extend(client.read(usize::MAX));
        b_received.extend(server.read(usize::MAX));
        now += SimDuration::from_micros(200);
        if a_closed && b_closed && terminal(&client) && terminal(&server) {
            break;
        }
    }
    prop_assert!(terminal(&client), "client stuck in {:?}", client.state());
    prop_assert!(terminal(&server), "server stuck in {:?}", server.state());
    prop_assert_eq!(b_received, a_data[..a_sent].to_vec());
    prop_assert_eq!(a_received, b_data[..b_sent].to_vec());

    // Let the 2 MSL (and, defensively, the FIN_WAIT_2 orphan) timers run
    // out: every TCB must reach its grave, no zombie states.
    for _ in 0..40 {
        now += SimDuration::from_millis(10);
        client.poll_output(now);
        server.poll_output(now);
    }
    prop_assert_eq!(client.state(), TcpState::Closed);
    prop_assert_eq!(server.state(), TcpState::Closed);
    Ok(())
}

proptest! {
    /// Close-path state-machine exploration: any interleaving of the two
    /// endpoints' closes — before, during, or long after the data exchange,
    /// including the simultaneous-close CLOSING path — with adversarial
    /// early losses, terminates cleanly.
    #[test]
    fn close_paths_always_terminate(
        a_close_at in 0usize..60,
        b_close_at in 0usize..60,
        a_bytes in 0usize..3000,
        b_bytes in 0usize..3000,
        drop_mask in proptest::arbitrary::any::<u64>(),
    ) {
        drive_close_interleaving(a_close_at, b_close_at, a_bytes, b_bytes, drop_mask)?;
    }
}

// ----------------------------------------------------------------------
// The epoll ready-list against a brute-force scan.
// ----------------------------------------------------------------------

/// Two whole stacks (client `0`, server `1`) with hand-carried frames,
/// the epoll registrations the script made (per side, per instance) and
/// the fds each side's application owns.
struct EpollWorld {
    stacks: [fstack::FStack; 2],
    mem: cheri::TaggedMemory,
    buf: cheri::Capability,
    /// Frames on the wire *toward* each side.
    wire: [Vec<updk::framebuf::FrameBuf>; 2],
    /// `registered[side][instance]`: fd → interest mask.
    registered: [[std::collections::BTreeMap<i32, fstack::epoll::EpollFlags>; 2]; 2],
    epfds: [[i32; 2]; 2],
    /// App-owned fds per side (connections, and one UDP socket first).
    owned: [Vec<i32>; 2],
    listener: i32,
    now: SimTime,
}

const EPOLL_TCP_PORT: u16 = 8_080;
const EPOLL_UDP_PORT: u16 = 9_000;

impl EpollWorld {
    fn new() -> Self {
        use fstack::socket::SockType;
        use fstack::{FStack, StackConfig};
        let mk = |n: u8| FStack::new(StackConfig::new("s", MacAddr::local(n), ip(n)));
        let mut stacks = [mk(1), mk(2)];
        stacks[0]
            .arp_cache_mut()
            .insert_static(ip(2), MacAddr::local(2));
        stacks[1]
            .arp_cache_mut()
            .insert_static(ip(1), MacAddr::local(1));
        let mut owned = [Vec::new(), Vec::new()];
        for (side, stack) in stacks.iter_mut().enumerate() {
            let udp = stack.ff_socket(SockType::Dgram).unwrap();
            stack.ff_bind(udp, EPOLL_UDP_PORT).unwrap();
            owned[side].push(udp);
        }
        let listener = stacks[1].ff_socket(SockType::Stream).unwrap();
        stacks[1].ff_bind(listener, EPOLL_TCP_PORT).unwrap();
        stacks[1].ff_listen(listener, 4).unwrap();
        let epfds = [0, 1].map(|s: usize| [0, 1].map(|_| stacks[s].ff_epoll_create()));
        let mem = cheri::TaggedMemory::new(1 << 16);
        let buf = mem
            .root_cap()
            .try_restrict(0, 4_096)
            .unwrap()
            .try_restrict_perms(cheri::Perms::data())
            .unwrap();
        EpollWorld {
            stacks,
            mem,
            buf,
            wire: [Vec::new(), Vec::new()],
            registered: Default::default(),
            epfds,
            owned,
            listener,
            now: SimTime::from_millis(1),
        }
    }

    /// Applies one script step; `a` and `b` pick fds, masks and amounts.
    fn step(&mut self, op: u8, a: u8, b: u8) {
        use fstack::epoll::EpollFlags;
        use fstack::socket::SockType;
        let side = usize::from(a & 1);
        let pick = a >> 1;
        let stack = &mut self.stacks[side];
        // An app-owned fd if there is one, else any small number: stale,
        // embryonic and never-opened fds are fair game for `ctl`.
        let owned_fd = |owned: &[Vec<i32>; 2]| {
            let fds = &owned[side];
            (!fds.is_empty()).then(|| fds[usize::from(pick) % fds.len()])
        };
        match op % 24 {
            0 | 1 => {
                if self.owned[0].len() < 6 {
                    let fd = self.stacks[0].ff_socket(SockType::Stream).unwrap();
                    // A closed port now and then: the refusal is an
                    // asynchronous error the client's epoll must report.
                    let port = EPOLL_TCP_PORT + u16::from(b & 7 == 0);
                    self.stacks[0]
                        .ff_connect(fd, (ip(2), port), self.now)
                        .unwrap();
                    self.owned[0].push(fd);
                }
            }
            2 | 3 => {
                if let Ok(fd) = self.stacks[1].ff_accept(self.listener) {
                    self.owned[1].push(fd);
                }
            }
            4..=6 => {
                if let Some(fd) = owned_fd(&self.owned) {
                    let len = 1 + u64::from(b) * 16;
                    let _ = stack.ff_write(&mut self.mem, fd, &self.buf, len);
                    let _ = stack.ff_sendto(
                        &mut self.mem,
                        fd,
                        &self.buf,
                        len.min(64),
                        // The peer's bound UDP port, or a closed one
                        // (ICMP unreachable → a pending socket error).
                        (ip(2 - side as u8), EPOLL_UDP_PORT + u16::from(b & 1)),
                    );
                }
            }
            7 | 8 => {
                if let Some(fd) = owned_fd(&self.owned) {
                    let _ = stack.ff_read(&mut self.mem, fd, &self.buf, 1 + u64::from(b) * 16);
                    let _ = stack.ff_recvfrom(&mut self.mem, fd, &self.buf);
                }
            }
            9 => {
                if let Some(fd) = owned_fd(&self.owned) {
                    stack.ff_close(fd).unwrap();
                    self.owned[side].retain(|&f| f != fd);
                    // Linux semantics: a close leaves every epoll set.
                    for set in &mut self.registered[side] {
                        set.remove(&fd);
                    }
                }
            }
            10..=12 => {
                let fd = owned_fd(&self.owned)
                    .filter(|_| b & 0x80 == 0)
                    .unwrap_or(i32::from(pick % 12));
                let mask = [
                    EpollFlags::IN,
                    EpollFlags::IN | EpollFlags::OUT,
                    EpollFlags::OUT,
                    EpollFlags::NONE,
                ][usize::from(b & 3)];
                let inst = usize::from(b >> 2 & 1);
                if stack
                    .ff_epoll_ctl_add(self.epfds[side][inst], fd, mask)
                    .is_ok()
                {
                    self.registered[side][inst].insert(fd, mask);
                }
            }
            13 => {
                let fd = i32::from(pick % 12);
                let inst = usize::from(b & 1);
                let was = self.registered[side][inst].remove(&fd).is_some();
                assert_eq!(
                    stack.ff_epoll_ctl_del(self.epfds[side][inst], fd).is_ok(),
                    was
                );
            }
            14..=16 => {
                let frames = stack.poll_tx(self.now);
                self.wire[1 - side].extend(frames);
            }
            17..=19 => {
                let n = (usize::from(b) % 4 + 1).min(self.wire[side].len());
                for frame in self.wire[side].drain(..n) {
                    stack.input_buf(self.now, &frame);
                }
            }
            20 => {
                let n = (usize::from(b) % 3 + 1).min(self.wire[side].len());
                self.wire[side].drain(..n);
            }
            21 | 22 => {
                // 50 µs, or past an RTO. Nothing moves until somebody polls.
                self.now += SimDuration::from_micros([50, 300_000][usize::from(b & 1)]);
            }
            _ => {
                // A partition that outlasts the give-up ladder and 2 MSL:
                // this side retransmits into the void until its timers
                // have nothing left to do.
                for _ in 0..12 {
                    self.now += SimDuration::from_millis(2_000);
                    stack.poll_tx(self.now);
                }
            }
        }
    }

    /// `ff_epoll_wait` on every instance against a scan of everything
    /// registered there, built from the public `readiness` alone.
    fn check(&mut self) -> Result<(), proptest::runner::TestCaseError> {
        use fstack::epoll::{EpollEvent, EpollFlags};
        for side in 0..2 {
            for inst in 0..2 {
                let stack = &mut self.stacks[side];
                let want: Vec<EpollEvent> = self.registered[side][inst]
                    .iter()
                    .filter_map(|(&fd, &mask)| {
                        let ready = stack.readiness(fd);
                        let events = (ready & mask) | (ready & (EpollFlags::ERR | EpollFlags::HUP));
                        (!events.is_empty()).then_some(EpollEvent { fd, events })
                    })
                    .collect();
                let got = stack.ff_epoll_wait(self.epfds[side][inst]).unwrap();
                prop_assert_eq!(got, want, "side {} instance {}", side, inst);
            }
        }
        Ok(())
    }
}

proptest! {
    /// **Nothing becomes ready without a touch.** Whatever two stacks are
    /// put through — connects (some refused), accepts, writes, reads,
    /// closes, datagrams to open and closed ports, `ctl` ADD/MOD/DEL on
    /// live, stale and never-opened fds, delivered and dropped frames,
    /// time jumps past RTO, give-up and 2 MSL — after every single step
    /// `ff_epoll_wait` returns exactly what a scan of all registered fds
    /// would: same fds, same flags, same (ascending) order. The check
    /// runs after each step, so a failure names the shortest failing
    /// prefix of its script.
    #[test]
    fn epoll_ready_list_matches_brute_force(
        script in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..160),
    ) {
        let mut world = EpollWorld::new();
        world.check()?;
        for (i, &(op, a, b)) in script.iter().enumerate() {
            world.step(op, a, b);
            if let Err(e) = world.check() {
                prop_assert!(false, "after step {} of {:?}: {}", i, &script[..=i], e);
            }
        }
    }
}
