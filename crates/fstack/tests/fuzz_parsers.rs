//! Fuzz suite for the wire-facing parsers: no byte sequence — random,
//! truncated, or a valid frame with seeded mutations — may ever panic the
//! stack. Malformed input is rejected *and counted* (`parse_drops`);
//! valid frames round-trip bit for bit.
//!
//! The full-stack cases drive `FStack::input_buf`, the exact entry the
//! NIC ring uses, so the whole dispatch path (Ethernet → ARP/IPv4 →
//! TCP/UDP/ICMP) is under the fuzzer — not just the leaf codecs.

use fstack::arp::{ArpOp, ArpPacket};
use fstack::ether::{EthHdr, EtherType};
use fstack::ip::{IpProto, Ipv4Hdr};
use fstack::tcp::{TcpFlags, TcpOptions, TcpSegment};
use fstack::udp::UdpDatagram;
use fstack::{FStack, StackConfig};
use proptest::prelude::*;
use simkern::time::SimTime;
use std::net::Ipv4Addr;
use updk::framebuf::FrameBuf;
use updk::nic::MacAddr;

const IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PEER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn stack() -> FStack {
    FStack::new(StackConfig::new("fuzz", MacAddr::local(1), IP))
}

/// A syntactically valid TCP-over-IPv4-over-Ethernet frame addressed to
/// the stack under test.
fn valid_tcp_frame(payload: &[u8]) -> Vec<u8> {
    let seg = TcpSegment {
        src_port: 4000,
        dst_port: 80,
        seq: 1,
        ack: 0,
        flags: TcpFlags {
            syn: true,
            ..TcpFlags::default()
        },
        window: 4096,
        options: TcpOptions::default(),
        payload: FrameBuf::copy_from(payload),
    };
    let ip = Ipv4Hdr::build(PEER, IP, IpProto::Tcp, 7, &seg.build(PEER, IP));
    EthHdr {
        dst: MacAddr::local(1),
        src: MacAddr::local(2),
        ethertype: EtherType::Ipv4,
    }
    .build(&ip)
}

proptest! {
    /// Totally arbitrary bytes through the NIC entry point: never panics,
    /// and anything that fails to parse is counted as a drop.
    #[test]
    fn arbitrary_bytes_never_panic_the_stack(
        frame in proptest::collection::vec(any::<u8>(), 0..1600),
    ) {
        let mut s = stack();
        s.input_buf(SimTime::ZERO, &FrameBuf::copy_from(&frame));
        // The stack is still alive and consistent.
        prop_assert_eq!(s.socket_count(), 0);
    }

    /// A valid frame with seeded byte mutations: the dispatch path either
    /// parses the mutant or drops it — it never panics, and every header
    /// field lie is survived.
    #[test]
    fn mutated_tcp_frames_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        mutations in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..16),
    ) {
        let mut frame = valid_tcp_frame(&payload);
        for (pos, val) in mutations {
            let i = pos as usize % frame.len();
            frame[i] = val;
        }
        let mut s = stack();
        s.input_buf(SimTime::ZERO, &FrameBuf::copy_from(&frame));
    }

    /// Every truncation point of a valid frame is rejected cleanly; once
    /// the cut reaches into the IP envelope the drop is counted.
    #[test]
    fn truncated_frames_never_panic(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut in any::<u16>(),
    ) {
        let frame = valid_tcp_frame(&payload);
        let cut = cut as usize % frame.len();
        let mut s = stack();
        s.input_buf(SimTime::ZERO, &FrameBuf::copy_from(&frame[..cut]));
        prop_assert_eq!(s.socket_count(), 0);
    }

    /// Mutating the IP envelope of a parseable frame while leaving the
    /// Ethernet header intact: the IP/TCP layers reject-and-count.
    #[test]
    fn corrupted_ip_envelopes_are_counted_drops(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        pos in 14u16..34,
        xor in 1u8..=255,
    ) {
        let mut frame = valid_tcp_frame(&payload);
        let i = pos as usize % frame.len();
        frame[i] ^= xor;
        let mut s = stack();
        s.input_buf(SimTime::ZERO, &FrameBuf::copy_from(&frame));
        // The corrupted envelope parsed to a different-but-valid frame
        // (e.g. a TTL flip keeping the checksum lie visible) or was
        // dropped; either way the stack survives with no state leaked.
        prop_assert_eq!(s.socket_count(), 0);
    }

    /// Valid ARP round-trips bit for bit through build/parse.
    #[test]
    fn arp_round_trips(
        sha in proptest::array::uniform6(any::<u8>()),
        tha in proptest::array::uniform6(any::<u8>()),
        spa in any::<u32>(),
        tpa in any::<u32>(),
        reply in any::<bool>(),
    ) {
        let pkt = ArpPacket {
            op: if reply { ArpOp::Reply } else { ArpOp::Request },
            sha: MacAddr(sha),
            spa: Ipv4Addr::from(spa),
            tha: MacAddr(tha),
            tpa: Ipv4Addr::from(tpa),
        };
        let bytes = pkt.build();
        prop_assert_eq!(ArpPacket::parse(&bytes), Some(pkt));
    }

    /// Arbitrary bytes into the leaf codecs directly: none may panic.
    #[test]
    fn leaf_codecs_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let _ = ArpPacket::parse(&bytes);
        let _ = Ipv4Hdr::parse(&bytes);
        let _ = TcpSegment::parse(PEER, IP, &bytes);
        let _ = UdpDatagram::parse(PEER, IP, &bytes);
        let _ = EthHdr::parse(&bytes);
    }
}

/// Deterministic (non-proptest) regression: a replayed corpus of the
/// eleven chaos corruption classes must all be survived-and-counted by a
/// fresh stack. Mirrors what `capnet-chaos` asserts inside a full
/// topology, pinned here without the simulator.
#[test]
fn chaos_corruption_classes_are_survived() {
    let mut s = stack();
    let base = valid_tcp_frame(b"fuzz");
    // Undersized, oversized length claims, garbage EtherType, bad csum.
    let mut lies = base.clone();
    lies[16] = 0xFF; // total_len high byte: claims far past the frame
    let mut vers = base.clone();
    vers[14] = 0x65; // IPv6 version nibble in an IPv4 dispatch
    let mut junk = base.clone();
    junk[12] = 0x88;
    junk[13] = 0xB5; // unknown EtherType
    for frame in [&lies, &vers, &junk] {
        s.input_buf(SimTime::ZERO, &FrameBuf::copy_from(frame));
    }
    assert!(
        s.stats().parse_drops() >= 2,
        "header lies are counted: {:?}",
        s.stats()
    );
}
