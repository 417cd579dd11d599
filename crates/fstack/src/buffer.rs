//! Socket byte buffers.
//!
//! [`SendBuffer`] keeps unacknowledged + unsent bytes addressed by absolute
//! TCP sequence number; (re)transmission copies a range **directly into the
//! caller's frame buffer** ([`SendBuffer::range_into`]) instead of
//! materializing a `Vec` per segment. [`RecvBuffer`] reassembles in-order
//! data and parks out-of-order segments as shared [`FrameBuf`] views of the
//! frames they arrived in — parking is a refcount bump, not a copy.

use std::collections::{BTreeMap, VecDeque};
use updk::framebuf::FrameBuf;

/// The sender-side byte store, addressed by sequence number.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    /// Sequence number of `data[0]` (== SND.UNA once acked bytes are dropped).
    base_seq: u32,
    data: VecDeque<u8>,
    capacity: usize,
}

impl SendBuffer {
    /// Creates a buffer holding at most `capacity` bytes, with `base_seq`
    /// the sequence number of the first byte that will be pushed.
    pub fn new(base_seq: u32, capacity: usize) -> Self {
        SendBuffer {
            base_seq,
            data: VecDeque::new(),
            capacity,
        }
    }

    /// Takes over `old`'s byte storage, emptied (this buffer must hold
    /// nothing yet): its capacity is kept, its bytes are not.
    pub fn adopt_storage(&mut self, old: SendBuffer) {
        debug_assert!(self.data.is_empty(), "adopting storage into a used buffer");
        let mut data = old.data;
        data.clear();
        self.data = data;
    }

    /// Bytes buffered (unacked + unsent).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Free space.
    pub fn free(&self) -> usize {
        self.capacity - self.data.len()
    }

    /// The sequence number one past the last buffered byte.
    pub fn end_seq(&self) -> u32 {
        self.base_seq.wrapping_add(self.data.len() as u32)
    }

    /// Sequence number of the first (oldest unacked) byte.
    pub fn base_seq(&self) -> u32 {
        self.base_seq
    }

    /// Appends as much of `data` as fits; returns bytes accepted.
    pub fn push(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.free());
        self.data.extend(&data[..n]);
        n
    }

    /// How many bytes a copy of up to `len` starting at sequence `seq`
    /// would yield (clamped to the buffered range).
    pub fn range_len(&self, seq: u32, len: usize) -> usize {
        let off = seq.wrapping_sub(self.base_seq) as usize;
        if off >= self.data.len() {
            return 0;
        }
        len.min(self.data.len() - off)
    }

    /// Copies bytes starting at sequence `seq` into `dst` (clamped to the
    /// buffered range), returning the count — the allocation-free
    /// (re)transmission path: the destination is the frame buffer itself.
    pub fn range_into(&self, seq: u32, dst: &mut [u8]) -> usize {
        let off = seq.wrapping_sub(self.base_seq) as usize;
        if off >= self.data.len() {
            return 0;
        }
        let n = dst.len().min(self.data.len() - off);
        let (front, back) = self.data.as_slices();
        if off < front.len() {
            let take = n.min(front.len() - off);
            dst[..take].copy_from_slice(&front[off..off + take]);
            if take < n {
                dst[take..n].copy_from_slice(&back[..n - take]);
            }
        } else {
            let boff = off - front.len();
            dst[..n].copy_from_slice(&back[boff..boff + n]);
        }
        n
    }

    /// Drops bytes acknowledged up to `ack` (new SND.UNA).
    pub fn ack_to(&mut self, ack: u32) {
        let n = (ack.wrapping_sub(self.base_seq) as usize).min(self.data.len());
        self.data.drain(..n);
        self.base_seq = self.base_seq.wrapping_add(n as u32);
    }
}

/// The receiver-side reassembly buffer.
#[derive(Debug, Clone)]
pub struct RecvBuffer {
    /// RCV.NXT: the next in-order sequence number expected.
    next_seq: u32,
    ready: VecDeque<u8>,
    /// Out-of-order segments keyed by start seq — shared views of the
    /// frames they arrived in, parked without copying.
    ooo: BTreeMap<u32, FrameBuf>,
    capacity: usize,
}

impl RecvBuffer {
    /// Creates a buffer expecting sequence `next_seq` first, holding at most
    /// `capacity` in-order bytes.
    pub fn new(next_seq: u32, capacity: usize) -> Self {
        RecvBuffer {
            next_seq,
            ready: VecDeque::new(),
            ooo: BTreeMap::new(),
            capacity,
        }
    }

    /// Takes over `old`'s in-order byte storage, emptied (this buffer must
    /// hold nothing yet): its capacity is kept, its bytes are not.
    pub fn adopt_storage(&mut self, old: RecvBuffer) {
        debug_assert!(self.ready.is_empty(), "adopting storage into a used buffer");
        let mut ready = old.ready;
        ready.clear();
        self.ready = ready;
    }

    /// Becomes [`RecvBuffer::new`]`(next_seq, capacity)`, keeping its
    /// storage.
    pub fn restart(&mut self, next_seq: u32) {
        let old = std::mem::replace(self, RecvBuffer::new(next_seq, self.capacity));
        self.adopt_storage(old);
    }

    /// The next expected sequence number (RCV.NXT) — what we ACK.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// In-order bytes ready for the application.
    pub fn readable(&self) -> usize {
        self.ready.len()
    }

    /// The receive window to advertise (free in-order space).
    pub fn window(&self) -> u32 {
        (self.capacity - self.ready.len()) as u32
    }

    /// Accepts a segment at `seq`; returns `true` if RCV.NXT advanced
    /// (i.e. new in-order data became available). In-order bytes go
    /// straight to the ready queue; out-of-order segments are parked as
    /// shared sub-views of `data` (no copy) until the gap fills.
    pub fn on_segment(&mut self, seq: u32, data: &FrameBuf) -> bool {
        if data.is_empty() {
            return false;
        }
        let rel = seq.wrapping_sub(self.next_seq) as i32;
        if rel < 0 {
            // Partially or fully duplicate: keep only the new tail.
            let skip = (-rel) as usize;
            if skip >= data.len() {
                return false;
            }
            return self.on_segment(self.next_seq, &data.slice_from(skip));
        }
        if rel > 0 {
            // Out of order: park a shared view (bounded to avoid DoS).
            if (rel as usize) < self.capacity {
                self.ooo.entry(seq).or_insert_with(|| data.clone());
            }
            return false;
        }
        // In order: take what fits.
        let n = data.len().min(self.capacity - self.ready.len());
        self.ready.extend(&data[..n]);
        self.next_seq = self.next_seq.wrapping_add(n as u32);
        // Drain any parked segments that are now contiguous.
        while let Some((&s, _)) = self.ooo.iter().next() {
            let rel = s.wrapping_sub(self.next_seq) as i32;
            if rel > 0 {
                break;
            }
            let seg = self.ooo.remove(&s).expect("present");
            let skip = (-rel) as usize;
            if skip < seg.len() {
                let take = (seg.len() - skip).min(self.capacity - self.ready.len());
                self.ready.extend(&seg[skip..skip + take]);
                self.next_seq = self.next_seq.wrapping_add(take as u32);
                if take < seg.len() - skip {
                    break; // window full
                }
            }
        }
        true
    }

    /// Reads up to `max` in-order bytes for the application.
    pub fn read(&mut self, max: usize) -> Vec<u8> {
        let n = max.min(self.ready.len());
        self.ready.drain(..n).collect()
    }

    /// Copies up to `dst.len()` in-order bytes into `dst`, returning the
    /// count — the allocation-free `ff_read` path.
    pub fn read_into(&mut self, dst: &mut [u8]) -> usize {
        let n = dst.len().min(self.ready.len());
        let (front, back) = self.ready.as_slices();
        let take = n.min(front.len());
        dst[..take].copy_from_slice(&front[..take]);
        if take < n {
            dst[take..n].copy_from_slice(&back[..n - take]);
        }
        self.ready.drain(..n);
        n
    }

    /// Out-of-order segments currently parked (diagnostics).
    pub fn ooo_segments(&self) -> usize {
        self.ooo.len()
    }

    /// The parked out-of-order bytes coalesced into up to `max` maximal
    /// `[left, right)` sequence ranges, ascending — the receiver side of a
    /// SACK option (RFC 2018). Adjacent/overlapping parked segments merge
    /// into one block.
    pub fn sack_ranges(&self, max: usize) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = Vec::new();
        for (&s, seg) in &self.ooo {
            let end = s.wrapping_add(seg.len() as u32);
            match out.last_mut() {
                // The BTreeMap iterates in relative seq order, so a new
                // run starts iff it begins past the previous run's end.
                Some((_, prev_end)) if s.wrapping_sub(*prev_end) as i32 <= 0 => {
                    if end.wrapping_sub(*prev_end) as i32 > 0 {
                        *prev_end = end;
                    }
                }
                _ => {
                    if out.len() == max {
                        break;
                    }
                    out.push((s, end));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(b: &SendBuffer, seq: u32, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        let n = b.range_into(seq, &mut v);
        assert_eq!(n, b.range_len(seq, len));
        v.truncate(n);
        v
    }

    fn buf(data: &[u8]) -> FrameBuf {
        FrameBuf::copy_from(data)
    }

    #[test]
    fn send_buffer_push_range_ack() {
        let mut b = SendBuffer::new(1000, 16);
        assert_eq!(b.push(b"hello world"), 11);
        assert_eq!(b.push(b"0123456789"), 5, "clamped to capacity");
        assert_eq!(b.len(), 16);
        assert_eq!(b.free(), 0);
        assert_eq!(range(&b, 1000, 5), b"hello");
        assert_eq!(range(&b, 1006, 5), b"world");
        assert_eq!(b.end_seq(), 1016);
        b.ack_to(1006);
        assert_eq!(b.base_seq(), 1006);
        assert_eq!(b.len(), 10);
        assert_eq!(range(&b, 1006, 5), b"world");
        assert_eq!(b.free(), 6);
    }

    #[test]
    fn send_buffer_range_clamps() {
        let b = SendBuffer::new(0, 16);
        assert!(range(&b, 0, 10).is_empty());
        let mut b = SendBuffer::new(0, 16);
        b.push(b"abc");
        assert_eq!(range(&b, 0, 100), b"abc");
        assert!(range(&b, 3, 5).is_empty());
        assert!(!b.is_empty());
    }

    #[test]
    fn send_buffer_copies_across_the_deque_seam() {
        // Force a wrapped VecDeque: fill, ack, refill so as_slices() splits.
        let mut b = SendBuffer::new(0, 8);
        b.push(b"abcdef");
        b.ack_to(4); // drop "abcd", leaving "ef" near the tail
        b.push(b"ghijkl");
        assert_eq!(b.len(), 8);
        assert_eq!(range(&b, 4, 8), b"efghijkl");
        assert_eq!(range(&b, 6, 4), b"ghij");
    }

    #[test]
    fn send_buffer_wraps_sequence_space() {
        let start = u32::MAX - 2;
        let mut b = SendBuffer::new(start, 32);
        b.push(b"abcdef");
        assert_eq!(b.end_seq(), 3); // wrapped
        assert_eq!(range(&b, start, 6), b"abcdef");
        b.ack_to(1); // 4 bytes acked across the wrap
        assert_eq!(b.len(), 2);
        assert_eq!(range(&b, 1, 2), b"ef");
    }

    #[test]
    fn recv_in_order_flow() {
        let mut r = RecvBuffer::new(500, 64);
        assert!(r.on_segment(500, &buf(b"hello ")));
        assert!(r.on_segment(506, &buf(b"world")));
        assert_eq!(r.next_seq(), 511);
        assert_eq!(r.readable(), 11);
        assert_eq!(r.read(6), b"hello ");
        assert_eq!(r.read(100), b"world");
    }

    #[test]
    fn recv_reassembles_out_of_order() {
        let mut r = RecvBuffer::new(0, 64);
        assert!(!r.on_segment(6, &buf(b"world")), "gap: no advance");
        assert_eq!(r.ooo_segments(), 1);
        assert!(r.on_segment(0, &buf(b"hello ")));
        assert_eq!(r.next_seq(), 11);
        assert_eq!(r.read(64), b"hello world");
        assert_eq!(r.ooo_segments(), 0);
    }

    #[test]
    fn recv_discards_duplicates_and_trims_overlap() {
        let mut r = RecvBuffer::new(0, 64);
        r.on_segment(0, &buf(b"abcdef"));
        // Full duplicate.
        assert!(!r.on_segment(0, &buf(b"abcdef")));
        // Overlapping: only the tail is new.
        assert!(r.on_segment(3, &buf(b"defGHI")));
        assert_eq!(r.read(64), b"abcdefGHI");
    }

    #[test]
    fn recv_window_shrinks_and_bounds() {
        let mut r = RecvBuffer::new(0, 8);
        assert_eq!(r.window(), 8);
        r.on_segment(0, &buf(b"abcd"));
        assert_eq!(r.window(), 4);
        // Data beyond the window is truncated.
        r.on_segment(4, &buf(b"efghIJKL"));
        assert_eq!(r.window(), 0);
        assert_eq!(r.read(100), b"abcdefgh");
        assert_eq!(r.window(), 8);
    }

    #[test]
    fn read_into_drains_like_read() {
        let mut r = RecvBuffer::new(0, 32);
        r.on_segment(0, &buf(b"abcdefgh"));
        let mut out = [0u8; 5];
        assert_eq!(r.read_into(&mut out), 5);
        assert_eq!(&out, b"abcde");
        let mut rest = [0u8; 8];
        assert_eq!(r.read_into(&mut rest), 3);
        assert_eq!(&rest[..3], b"fgh");
        assert_eq!(r.read_into(&mut rest), 0);
    }

    #[test]
    fn sack_ranges_coalesce_parked_runs() {
        let mut r = RecvBuffer::new(1000, 4096);
        assert!(r.sack_ranges(3).is_empty());
        // Three separate holes, one filled by adjacent segments.
        r.on_segment(1100, &buf(&[0u8; 50]));
        r.on_segment(1150, &buf(&[0u8; 50])); // adjacent: merges
        r.on_segment(1300, &buf(&[0u8; 10]));
        r.on_segment(1500, &buf(&[0u8; 20]));
        assert_eq!(
            r.sack_ranges(3),
            vec![(1100, 1200), (1300, 1310), (1500, 1520)]
        );
        assert_eq!(r.sack_ranges(2), vec![(1100, 1200), (1300, 1310)]);
        // Filling the first hole drains the merged run.
        r.on_segment(1000, &buf(&[0u8; 100]));
        assert_eq!(r.sack_ranges(3), vec![(1300, 1310), (1500, 1520)]);
    }

    #[test]
    fn parked_ooo_segments_share_the_arrival_frame() {
        use updk::framebuf::pool_stats;
        let frame = buf(b"0123456789");
        let mut r = RecvBuffer::new(0, 64);
        let takes_before = {
            let s = pool_stats();
            s.fresh + s.reused
        };
        // Park a sub-view: no pooled buffer is taken, no bytes copied.
        assert!(!r.on_segment(4, &frame.slice_from(4)));
        let takes_after = {
            let s = pool_stats();
            s.fresh + s.reused
        };
        assert_eq!(takes_before, takes_after, "parking is a refcount bump");
        assert!(r.on_segment(0, &frame.slice(0, 4)));
        assert_eq!(r.read(64), b"0123456789");
    }
}
