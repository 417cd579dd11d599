//! IPv4: header build/parse and the internet checksum.

use std::net::Ipv4Addr;
use std::ops::Range;
use updk::framebuf::FrameBufMut;

/// Length of a minimal IPv4 header (no options).
pub const IPV4_HDR_LEN: usize = 20;

/// IP protocol numbers the stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else.
    Other(u8),
}

impl IpProto {
    /// On-wire protocol number.
    pub fn raw(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }

    /// Decodes an on-wire number.
    pub fn from_raw(v: u8) -> IpProto {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// The RFC 1071 internet checksum over `data` (one's-complement sum).
pub fn checksum(data: &[u8]) -> u16 {
    finish_checksum(sum_words(data, 0))
}

/// Accumulates 16-bit big-endian words of `data` into `acc` (for
/// pseudo-header + payload checksums).
///
/// Runs one full pass over every transmitted and received segment, so it is
/// on the per-frame hot path and reads memory in the machine's own byte
/// order: 32-bit native-endian lanes into four independent `u64`
/// accumulators over 16-byte chunks (no byte swap, no loop-carried carry
/// chain — plain vector adds), folded to 16 bits and swapped **once**. The
/// one's-complement sum is byte-order independent (RFC 1071 §2(B)): summing
/// the words as the machine reads them gives the byte-swapped sum.
///
/// The returned accumulator is congruent mod `0xFFFF` to the word-at-a-time
/// sum, and zero exactly when that one is (`acc == 0` and all-zero `data`),
/// so it is the same checksum after [`finish_checksum`]; it is *not* the
/// same `u32`, because `data`'s contribution arrives already folded.
pub fn sum_words(data: &[u8], acc: u32) -> u32 {
    let mut lanes = [0u64; 4];
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        for (lane, w) in lanes.iter_mut().zip(c.chunks_exact(4)) {
            *lane += u64::from(u32::from_ne_bytes([w[0], w[1], w[2], w[3]]));
        }
    }
    let mut wide: u64 = lanes.iter().sum();
    let mut rem = chunks.remainder().chunks_exact(2);
    for w in &mut rem {
        wide += u64::from(u16::from_ne_bytes([w[0], w[1]]));
    }
    if let [last] = rem.remainder() {
        wide += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    // End-around carries down to one 16-bit word (2^16 ≡ 1 mod 0xFFFF; a
    // nonzero sum never folds to zero), then into wire order.
    while wide > 0xFFFF {
        wide = (wide & 0xFFFF) + (wide >> 16);
    }
    let sum = u64::from(acc) + u64::from(u16::from_be(wide as u16));
    // At most 33 bits; the carry out of 32 comes back in at the bottom.
    ((sum & 0xFFFF_FFFF) + (sum >> 32)) as u32
}

/// Folds carries and complements, finishing a checksum computation.
pub fn finish_checksum(mut acc: u32) -> u16 {
    while acc > 0xFFFF {
        acc = (acc & 0xFFFF) + (acc >> 16);
    }
    !(acc as u16)
}

/// A parsed IPv4 header (options unsupported — the stack never emits them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Hdr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol.
    pub proto: IpProto,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (diagnostics; no fragmentation emitted).
    pub ident: u16,
    /// Total length (header + payload).
    pub total_len: u16,
}

impl Ipv4Hdr {
    /// Parses a header from `packet`, verifying version, length and
    /// checksum. Returns the header and the payload slice.
    pub fn parse(packet: &[u8]) -> Option<(Ipv4Hdr, &[u8])> {
        let (hdr, range) = Ipv4Hdr::parse_range(packet)?;
        Some((hdr, &packet[range]))
    }

    /// [`Ipv4Hdr::parse`], but returning the payload as a byte *range*
    /// within `packet` — so callers holding a shared frame buffer can
    /// slice the payload out of it without copying.
    pub fn parse_range(packet: &[u8]) -> Option<(Ipv4Hdr, Range<usize>)> {
        if packet.len() < IPV4_HDR_LEN {
            return None;
        }
        let vihl = packet[0];
        if vihl >> 4 != 4 {
            return None;
        }
        let ihl = usize::from(vihl & 0xF) * 4;
        if ihl < IPV4_HDR_LEN || packet.len() < ihl {
            return None;
        }
        if checksum(&packet[..ihl]) != 0 {
            return None; // corrupted header
        }
        let total_len = u16::from_be_bytes([packet[2], packet[3]]);
        let tl = usize::from(total_len);
        if tl < ihl || tl > packet.len() {
            return None;
        }
        let hdr = Ipv4Hdr {
            src: Ipv4Addr::new(packet[12], packet[13], packet[14], packet[15]),
            dst: Ipv4Addr::new(packet[16], packet[17], packet[18], packet[19]),
            proto: IpProto::from_raw(packet[9]),
            ttl: packet[8],
            ident: u16::from_be_bytes([packet[4], packet[5]]),
            total_len,
        };
        Some((hdr, ihl..tl))
    }

    /// The checksummed 20-byte header for a payload of `payload_len` bytes.
    pub fn header_bytes(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: IpProto,
        ident: u16,
        payload_len: usize,
    ) -> [u8; IPV4_HDR_LEN] {
        let total = (IPV4_HDR_LEN + payload_len) as u16;
        let mut h = [0u8; IPV4_HDR_LEN];
        h[0] = 0x45; // v4, IHL 5
        h[1] = 0; // DSCP/ECN
        h[2..4].copy_from_slice(&total.to_be_bytes());
        h[4..6].copy_from_slice(&ident.to_be_bytes());
        h[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // DF
        h[8] = 64; // TTL
        h[9] = proto.raw();
        h[12..16].copy_from_slice(&src.octets());
        h[16..20].copy_from_slice(&dst.octets());
        let csum = checksum(&h);
        h[10..12].copy_from_slice(&csum.to_be_bytes());
        h
    }

    /// Prepends a checksummed header in front of the L4 bytes already in
    /// `fb` — the zero-copy L3 step (the payload is not touched).
    pub fn prepend_to(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: IpProto,
        ident: u16,
        fb: &mut FrameBufMut,
    ) {
        let h = Ipv4Hdr::header_bytes(src, dst, proto, ident, fb.len());
        fb.prepend(&h);
    }

    /// Builds a packet: 20-byte header (checksummed) followed by `payload`.
    pub fn build(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: IpProto,
        ident: u16,
        payload: &[u8],
    ) -> Vec<u8> {
        let h = Ipv4Hdr::header_bytes(src, dst, proto, ident, payload.len());
        let mut out = Vec::with_capacity(IPV4_HDR_LEN + payload.len());
        out.extend_from_slice(&h);
        out.extend_from_slice(payload);
        out
    }
}

/// Accumulates the TCP/UDP pseudo-header into a checksum accumulator.
pub fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto, l4_len: u16) -> u32 {
    let mut acc = 0u32;
    acc = sum_words(&src.octets(), acc);
    acc = sum_words(&dst.octets(), acc);
    acc += u32::from(proto.raw());
    acc += u32::from(l4_len);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example words: 0x0001 0xf203 0xf4f5 0xf6f7 → sum 0xddf2,
        // checksum = !0xddf2 = 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), 0x220d);
        // Appending the checksum makes the total verify to zero.
        let mut with = data.to_vec();
        with.extend_from_slice(&0x220du16.to_be_bytes());
        assert_eq!(checksum(&with), 0);
    }

    #[test]
    fn odd_length_checksums_pad_with_zero() {
        assert_eq!(checksum(&[0xFF]), !0xFF00u16);
    }

    #[test]
    fn build_parse_round_trip() {
        let p = Ipv4Hdr::build(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Tcp,
            42,
            b"segment bytes",
        );
        let (hdr, payload) = Ipv4Hdr::parse(&p).unwrap();
        assert_eq!(hdr.src, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(hdr.dst, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(hdr.proto, IpProto::Tcp);
        assert_eq!(hdr.ident, 42);
        assert_eq!(payload, b"segment bytes");
    }

    #[test]
    fn parse_ignores_ethernet_padding() {
        // A 20-byte IP packet inside a 60-byte padded frame payload.
        let mut p = Ipv4Hdr::build(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProto::Udp,
            0,
            b"hi",
        );
        p.resize(46, 0); // MAC padding
        let (_, payload) = Ipv4Hdr::parse(&p).unwrap();
        assert_eq!(payload, b"hi");
    }

    #[test]
    fn corruption_is_detected() {
        let mut p = Ipv4Hdr::build(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProto::Tcp,
            0,
            b"x",
        );
        p[8] ^= 0xFF; // flip TTL
        assert!(Ipv4Hdr::parse(&p).is_none());
        // Truncation detected too.
        let p2 = Ipv4Hdr::build(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProto::Tcp,
            0,
            b"hello",
        );
        assert!(Ipv4Hdr::parse(&p2[..22]).is_none());
        // Non-v4 rejected.
        let mut p3 = p2.clone();
        p3[0] = 0x65;
        assert!(Ipv4Hdr::parse(&p3).is_none());
    }

    #[test]
    fn pseudo_header_matches_manual_sum() {
        let acc = pseudo_header_sum(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Tcp,
            20,
        );
        let manual = sum_words(&[10, 0, 0, 1, 10, 0, 0, 2], 0) + 6 + 20;
        assert_eq!(acc, manual);
    }
}
