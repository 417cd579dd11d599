//! TCP: segments, options, congestion control and the connection machine.
//!
//! A real (if compact) TCP: three-way handshake, MSS/timestamp/SACK
//! options, cumulative + duplicate ACK processing, RFC 6298 retransmission
//! timers with Karn's algorithm, pluggable congestion control (Reno and
//! CUBIC), zero-window persist probing, delayed ACKs, out-of-order
//! reassembly, and the full close sequence. This is the protocol engine
//! under the paper's `ff_*` API; Table II's numbers are this code pushing
//! the simulated 82576 to its ceilings.

pub mod cc;
pub mod seq;
pub mod tcb;

pub use cc::{CcAlgo, Congestion, CongestionControl, Cubic, Reno};
pub use tcb::{Tcb, TcpState};

use crate::buffer::SendBuffer;
use crate::ip::{finish_checksum, pseudo_header_sum, sum_words, IpProto};
use std::net::Ipv4Addr;
use updk::framebuf::{FrameBuf, FrameBufMut};

/// TCP header length without options.
pub const TCP_HDR_LEN: usize = 20;

/// Length of the timestamp option block we emit (NOP NOP TS, 12 bytes).
pub const TS_OPT_LEN: usize = 12;

/// Most SACK blocks one segment can carry alongside timestamps: the 4-bit
/// data offset caps the header at 60 bytes, and 20 + 12 (TS) leaves room
/// for `NOP NOP SACK` + 3 × 8-byte blocks (28 bytes).
pub const MAX_SACK_BLOCKS: usize = 3;

/// Largest TCP header we ever emit. The data-offset field's hard ceiling:
/// base (20) + timestamps (12) + padded SACK option with three blocks
/// (28) — SYN headers (MSS 4 + SACK-permitted 4 + TS 12) stay below it.
pub const MAX_TCP_HDR: usize = TCP_HDR_LEN + TS_OPT_LEN + 4 + 8 * MAX_SACK_BLOCKS;

/// Where a transmitted segment's payload bytes come from.
///
/// The zero-copy transmit path never materializes payload vectors: a data
/// (or re-) transmission names a sequence range of the socket's
/// [`SendBuffer`], and [`TcpSegment::build_into`] copies that range
/// straight into the frame buffer — once.
#[derive(Debug, Clone, Copy)]
pub enum SegPayload<'a> {
    /// Use the bytes already inline in [`TcpSegment::payload`] (control
    /// segments; parsed segments).
    Inline,
    /// Copy `len` bytes starting at sequence `seq` out of the send buffer.
    Range(&'a SendBuffer, u32, usize),
}

/// TCP flags (subset used).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// SYN.
    pub syn: bool,
    /// ACK.
    pub ack: bool,
    /// FIN.
    pub fin: bool,
    /// RST.
    pub rst: bool,
    /// PSH.
    pub psh: bool,
}

impl TcpFlags {
    /// A pure-ACK flag set.
    pub fn only_ack() -> TcpFlags {
        TcpFlags {
            ack: true,
            ..TcpFlags::default()
        }
    }

    fn to_byte(self) -> u8 {
        u8::from(self.fin)
            | u8::from(self.syn) << 1
            | u8::from(self.rst) << 2
            | u8::from(self.psh) << 3
            | u8::from(self.ack) << 4
    }

    fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }
}

/// Up to [`MAX_SACK_BLOCKS`] selective-ACK ranges, each `[left, right)`
/// in sequence space (RFC 2018).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks {
    blocks: [(u32, u32); MAX_SACK_BLOCKS],
    len: u8,
}

impl SackBlocks {
    /// No blocks.
    pub const EMPTY: SackBlocks = SackBlocks {
        blocks: [(0, 0); MAX_SACK_BLOCKS],
        len: 0,
    };

    /// Appends a block; silently drops it once full (the first blocks are
    /// the most important ones — RFC 2018 orders most-recent first).
    pub fn push(&mut self, left: u32, right: u32) {
        if usize::from(self.len) < MAX_SACK_BLOCKS {
            self.blocks[usize::from(self.len)] = (left, right);
            self.len += 1;
        }
    }

    /// The blocks present, in wire order.
    pub fn as_slice(&self) -> &[(u32, u32)] {
        &self.blocks[..usize::from(self.len)]
    }

    /// `true` when no blocks are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Parsed TCP options (subset: MSS, timestamps, SACK).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpOptions {
    /// Maximum segment size (SYN only).
    pub mss: Option<u16>,
    /// Timestamps `(TSval, TSecr)`.
    pub ts: Option<(u32, u32)>,
    /// SACK-permitted (SYN only).
    pub sack_permitted: bool,
    /// Selective-ACK blocks (non-SYN segments during loss recovery).
    pub sack: SackBlocks,
}

/// A TCP segment (header fields + payload).
///
/// The payload is a shared [`FrameBuf`] view: a parsed segment's payload
/// aliases the frame it arrived in, so reassembly can park and deliver it
/// without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of SYN/FIN).
    pub seq: u32,
    /// Acknowledgement number (valid when `flags.ack`).
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Options.
    pub options: TcpOptions,
    /// Payload bytes.
    pub payload: FrameBuf,
}

impl TcpSegment {
    /// The sequence space this segment occupies (payload + SYN/FIN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }

    /// Writes the header (with zeroed checksum) into `out`, returning its
    /// length. Options are MSS and SACK-permitted (SYN only), timestamps,
    /// and SACK blocks, each padded to 32-bit alignment, so the header
    /// length is always a multiple of four.
    fn header_into(&self, out: &mut [u8; MAX_TCP_HDR]) -> usize {
        let mut hl = TCP_HDR_LEN;
        if let Some(mss) = self.options.mss {
            out[hl..hl + 2].copy_from_slice(&[2, 4]);
            out[hl + 2..hl + 4].copy_from_slice(&mss.to_be_bytes());
            hl += 4;
        }
        if self.options.sack_permitted {
            out[hl..hl + 4].copy_from_slice(&[4, 2, 1, 1]);
            hl += 4;
        }
        if let Some((tsval, tsecr)) = self.options.ts {
            out[hl..hl + 4].copy_from_slice(&[1, 1, 8, 10]);
            out[hl + 4..hl + 8].copy_from_slice(&tsval.to_be_bytes());
            out[hl + 8..hl + 12].copy_from_slice(&tsecr.to_be_bytes());
            hl += TS_OPT_LEN;
        }
        let sacks = self.options.sack.as_slice();
        if !sacks.is_empty() {
            let fit = sacks.len().min((MAX_TCP_HDR - hl - 4) / 8);
            out[hl..hl + 4].copy_from_slice(&[1, 1, 5, 2 + 8 * fit as u8]);
            hl += 4;
            for &(left, right) in &sacks[..fit] {
                out[hl..hl + 4].copy_from_slice(&left.to_be_bytes());
                out[hl + 4..hl + 8].copy_from_slice(&right.to_be_bytes());
                hl += 8;
            }
        }
        debug_assert!(hl.is_multiple_of(4));
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = ((hl / 4) as u8) << 4;
        out[13] = self.flags.to_byte();
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out[16..20].fill(0); // checksum + urgent
        hl
    }

    /// Builds the segment **in place**: payload copied once into `fb` (from
    /// the inline bytes or straight out of the send buffer), then the
    /// checksummed header prepended into the headroom. This is the
    /// zero-copy transmit path — no intermediate `Vec` exists.
    ///
    /// # Panics
    ///
    /// Panics unless `fb` is empty (the segment becomes its contents).
    pub fn build_into(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: SegPayload<'_>,
        fb: &mut FrameBufMut,
    ) {
        assert!(fb.is_empty(), "segment must be the buffer's only payload");
        match payload {
            SegPayload::Inline => fb.append(&self.payload),
            SegPayload::Range(buf, seq, len) => fb.append_with(len, |dst| {
                let n = buf.range_into(seq, dst);
                debug_assert_eq!(n, len, "send-buffer range shrank underfoot");
            }),
        }
        let mut hdr = [0u8; MAX_TCP_HDR];
        let hl = self.header_into(&mut hdr);
        let total = hl + fb.len();
        // The header length is a multiple of four, so summing header and
        // payload separately matches the sum over their concatenation.
        let acc = pseudo_header_sum(src, dst, IpProto::Tcp, total as u16);
        let acc = sum_words(&hdr[..hl], acc);
        let csum = finish_checksum(sum_words(fb.as_slice(), acc));
        hdr[16..18].copy_from_slice(&csum.to_be_bytes());
        fb.prepend(&hdr[..hl]);
    }

    /// Serializes with a correct pseudo-header checksum.
    pub fn build(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut fb = FrameBufMut::with_headroom(MAX_TCP_HDR);
        self.build_into(src, dst, SegPayload::Inline, &mut fb);
        fb.as_slice().to_vec()
    }

    /// Parses and checksum-verifies a TCP payload.
    pub fn parse(src: Ipv4Addr, dst: Ipv4Addr, p: &[u8]) -> Option<TcpSegment> {
        Self::parse_buf(src, dst, &FrameBuf::copy_from(p))
    }

    /// [`TcpSegment::parse`] over a shared buffer: the returned payload is
    /// a sub-view of `p`, not a copy.
    pub fn parse_buf(src: Ipv4Addr, dst: Ipv4Addr, p: &FrameBuf) -> Option<TcpSegment> {
        let b = p.as_slice();
        if b.len() < TCP_HDR_LEN {
            return None;
        }
        let acc = pseudo_header_sum(src, dst, IpProto::Tcp, b.len() as u16);
        if finish_checksum(sum_words(b, acc)) != 0 {
            return None;
        }
        let data_off = usize::from(b[12] >> 4) * 4;
        if data_off < TCP_HDR_LEN || data_off > b.len() {
            return None;
        }
        let mut options = TcpOptions::default();
        let mut o = &b[TCP_HDR_LEN..data_off];
        while let Some(&kind) = o.first() {
            match kind {
                0 => break,       // EOL
                1 => o = &o[1..], // NOP
                2 if o.len() >= 4 => {
                    options.mss = Some(u16::from_be_bytes([o[2], o[3]]));
                    o = &o[4..];
                }
                4 if o.len() >= 2 => {
                    options.sack_permitted = true;
                    o = &o[2..];
                }
                5 if o.len() >= 2 && usize::from(o[1]) >= 2 && usize::from(o[1]) <= o.len() => {
                    let body = &o[2..usize::from(o[1])];
                    for blk in body.chunks_exact(8) {
                        options.sack.push(
                            u32::from_be_bytes([blk[0], blk[1], blk[2], blk[3]]),
                            u32::from_be_bytes([blk[4], blk[5], blk[6], blk[7]]),
                        );
                    }
                    o = &o[usize::from(o[1])..];
                }
                8 if o.len() >= 10 => {
                    options.ts = Some((
                        u32::from_be_bytes([o[2], o[3], o[4], o[5]]),
                        u32::from_be_bytes([o[6], o[7], o[8], o[9]]),
                    ));
                    o = &o[10..];
                }
                _ if o.len() >= 2 && usize::from(o[1]) >= 2 && usize::from(o[1]) <= o.len() => {
                    o = &o[usize::from(o[1])..]; // skip unknown option
                }
                _ => break, // malformed options: stop parsing them
            }
        }
        Some(TcpSegment {
            src_port: u16::from_be_bytes([b[0], b[1]]),
            dst_port: u16::from_be_bytes([b[2], b[3]]),
            seq: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            ack: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
            flags: TcpFlags::from_byte(b[13]),
            window: u16::from_be_bytes([b[14], b[15]]),
            options,
            payload: p.slice_from(data_off),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn seg() -> TcpSegment {
        TcpSegment {
            src_port: 5000,
            dst_port: 5201,
            seq: 0xDEADBEEF,
            ack: 0x12345678,
            flags: TcpFlags {
                syn: true,
                ack: true,
                ..Default::default()
            },
            window: 65535,
            options: TcpOptions {
                mss: Some(1460),
                ts: Some((111, 222)),
                ..Default::default()
            },
            payload: FrameBuf::new(),
        }
    }

    #[test]
    fn sack_options_round_trip() {
        let mut s = seg();
        s.options.sack_permitted = true;
        let bytes = s.build(A, B);
        let parsed = TcpSegment::parse(A, B, &bytes).unwrap();
        assert_eq!(parsed, s);

        // Non-SYN with the maximum SACK payload: header hits exactly 60.
        let mut s = seg();
        s.flags = TcpFlags::only_ack();
        s.options.mss = None;
        let mut sack = SackBlocks::EMPTY;
        sack.push(1000, 2000);
        sack.push(3000, 4000);
        sack.push(5000, 6000);
        sack.push(7000, 8000); // dropped: only MAX_SACK_BLOCKS fit
        s.options.sack = sack;
        let bytes = s.build(A, B);
        assert_eq!(usize::from(bytes[12] >> 4) * 4, MAX_TCP_HDR);
        let parsed = TcpSegment::parse(A, B, &bytes).unwrap();
        assert_eq!(
            parsed.options.sack.as_slice(),
            &[(1000, 2000), (3000, 4000), (5000, 6000)]
        );
        assert!(!parsed.options.sack_permitted);
    }

    #[test]
    fn build_parse_round_trip_with_options() {
        let s = seg();
        let bytes = s.build(A, B);
        let parsed = TcpSegment::parse(A, B, &bytes).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn payload_round_trips() {
        let mut s = seg();
        s.flags = TcpFlags::only_ack();
        s.options.mss = None;
        s.payload = (0..255u8).collect::<Vec<u8>>().into();
        let bytes = s.build(A, B);
        let parsed = TcpSegment::parse(A, B, &bytes).unwrap();
        assert_eq!(parsed.payload, s.payload);
        assert_eq!(parsed.seq_len(), 255);
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut s = seg();
        assert_eq!(s.seq_len(), 1); // SYN
        s.flags.fin = true;
        assert_eq!(s.seq_len(), 2);
        s.payload = vec![0u8; 10].into();
        assert_eq!(s.seq_len(), 12);
    }

    #[test]
    fn checksum_binds_addresses_and_content() {
        let s = seg();
        let bytes = s.build(A, B);
        assert!(TcpSegment::parse(A, Ipv4Addr::new(9, 9, 9, 9), &bytes).is_none());
        let mut corrupted = bytes.clone();
        corrupted[4] ^= 1;
        assert!(TcpSegment::parse(A, B, &corrupted).is_none());
        assert!(TcpSegment::parse(A, B, &bytes[..10]).is_none());
    }

    #[test]
    fn unknown_options_are_skipped() {
        // Hand-build a segment with a window-scale option (kind 3, len 3)
        // followed by NOP + MSS.
        let mut s = seg();
        s.options = TcpOptions::default();
        let mut bytes = s.build(A, B);
        // Splice custom options in: rebuild manually with data_off 7 (28B).
        let mut raw = bytes.split_off(0);
        raw[12] = 7 << 4;
        let opts = [3u8, 3, 7, 1, 2, 4, 5, 0xB4]; // WS(7), NOP, MSS 1460
        let mut full = raw[..20].to_vec();
        full.extend_from_slice(&opts);
        full[16] = 0;
        full[17] = 0;
        let acc = pseudo_header_sum(A, B, IpProto::Tcp, full.len() as u16);
        let csum = finish_checksum(sum_words(&full, acc));
        full[16..18].copy_from_slice(&csum.to_be_bytes());
        let parsed = TcpSegment::parse(A, B, &full).unwrap();
        assert_eq!(parsed.options.mss, Some(1460));
    }
}
