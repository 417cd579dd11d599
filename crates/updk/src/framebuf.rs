//! Pooled, shared frame buffers — the zero-copy payload plane.
//!
//! Every frame the simulation moves used to be rebuilt as a fresh
//! `Vec<u8>` at each layer crossing (TCP segment build → IP prepend →
//! Ethernet prepend → `Frame` → one clone per flooded switch port). A
//! [`FrameBuf`] replaces that with the `bytes::Bytes` / DPDK-mbuf shape:
//!
//! * **one storage block per frame**, taken from a thread-local recycling
//!   pool ([`pool_stats`] counts the takes, reuses and fresh heap
//!   allocations). A block is the `Rc` box and its bytes in one heap
//!   allocation, and the pool keeps it whole — reference counts included —
//!   so a steady-state frame costs no heap allocation at all: not for its
//!   bytes, and not at [`FrameBufMut::freeze`];
//! * **headroom**: the stack writes the payload once at an offset and
//!   *prepends* TCP/IP/Ethernet headers in place ([`FrameBufMut::prepend`]),
//!   exactly how a DPDK driver fills the mbuf headroom;
//! * **cheap shared views**: [`FrameBufMut::freeze`] yields an immutable,
//!   `Rc`-backed [`FrameBuf`] whose clones and [`FrameBuf::slice`]s share
//!   the storage — a switch flooding N ports bumps a refcount N times
//!   instead of copying N kilobytes, and TCP's out-of-order reassembly
//!   parks sub-slices of the received frame without copying them.
//!
//! When the last view drops, the block returns to the pool. The pool is
//! thread-local (the simulation is single-threaded by design), so no
//! locking is involved and runs stay deterministic.

use std::cell::{Cell, RefCell};
use std::ops::Deref;
use std::rc::Rc;

/// Fixed storage size of every pooled buffer: covers a maximum Ethernet
/// frame (1514 bytes) plus protocol headroom, mirroring the 2 KiB DPDK
/// mbuf data room ([`crate::mempool::DEFAULT_BUF_SIZE`]).
pub const BUF_CAPACITY: usize = 2048;

/// Buffers kept in the pool before surplus storage is released to the
/// heap. Bounded only as a backstop; in practice the pool's size equals
/// the peak number of frames in flight.
const POOL_MAX: usize = 16 * 1024;

/// One storage block: the bytes of a frame and, around them, the `Rc`
/// box that counts its views.
type Block = Rc<[u8; BUF_CAPACITY]>;

thread_local! {
    /// Uniquely owned blocks (strong count 1, no weak references), ready
    /// to be written through [`Rc::get_mut`].
    static POOL: RefCell<Vec<Block>> = const { RefCell::new(Vec::new()) };
    static FRESH: Cell<u64> = const { Cell::new(0) };
    static REUSED: Cell<u64> = const { Cell::new(0) };
    static RECYCLED: Cell<u64> = const { Cell::new(0) };
}

/// Lifetime counters of this thread's frame-buffer pool.
///
/// `fresh` is the number of buffers that had to be heap-allocated because
/// the pool was empty — the counting-allocator metric the zero-copy tests
/// assert stays flat once a workload reaches steady state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers heap-allocated because the pool was empty.
    pub fresh: u64,
    /// Buffers served from the pool without allocating.
    pub reused: u64,
    /// Buffers returned to the pool by dropped frames.
    pub recycled: u64,
}

/// This thread's pool counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        fresh: FRESH.with(Cell::get),
        reused: REUSED.with(Cell::get),
        recycled: RECYCLED.with(Cell::get),
    }
}

fn take_block() -> Block {
    if let Some(b) = POOL.with(|p| p.borrow_mut().pop()) {
        REUSED.with(|c| c.set(c.get() + 1));
        b
    } else {
        FRESH.with(|c| c.set(c.get() + 1));
        Rc::new([0u8; BUF_CAPACITY])
    }
}

/// Files a block whose last view is dropping back into the pool.
fn recycle(block: Block) {
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_MAX {
            RECYCLED.with(|c| c.set(c.get() + 1));
            pool.push(block);
        }
    });
}

/// A mutable, pooled frame buffer under construction: payload appended at
/// the headroom mark, headers prepended in place.
///
/// Dropping it unfrozen returns the storage to the pool.
///
/// # Example
///
/// ```
/// use updk::framebuf::FrameBufMut;
/// let mut fb = FrameBufMut::with_headroom(8);
/// fb.append(b"payload");
/// fb.prepend(b"HDR:");
/// assert_eq!(fb.headroom(), 4);
/// let frozen = fb.freeze();
/// assert_eq!(&frozen[..], b"HDR:payload");
/// assert_eq!(&frozen.slice(4, 7)[..], b"payload");
/// ```
#[derive(Debug)]
pub struct FrameBufMut {
    /// Holds the block, uniquely: nothing else can view a buffer under
    /// construction. Its `off`/`len` are set at [`FrameBufMut::freeze`].
    frame: FrameBuf,
    head: usize,
    tail: usize,
}

impl FrameBufMut {
    /// Takes a pooled buffer whose data region starts `headroom` bytes in,
    /// leaving that much room for [`FrameBufMut::prepend`].
    ///
    /// # Panics
    ///
    /// Panics if `headroom` exceeds [`BUF_CAPACITY`].
    pub fn with_headroom(headroom: usize) -> Self {
        assert!(headroom <= BUF_CAPACITY, "headroom {headroom} too large");
        FrameBufMut {
            frame: FrameBuf {
                storage: Some(take_block()),
                off: 0,
                len: 0,
            },
            head: headroom,
            tail: headroom,
        }
    }

    /// The whole block.
    fn block(&self) -> &[u8; BUF_CAPACITY] {
        self.frame
            .storage
            .as_deref()
            .expect("an unfrozen buffer holds its block")
    }

    /// The whole block, writable: the buffer under construction is its
    /// only owner.
    fn block_mut(&mut self) -> &mut [u8; BUF_CAPACITY] {
        let block = self
            .frame
            .storage
            .as_mut()
            .expect("an unfrozen buffer holds its block");
        Rc::get_mut(block).expect("an unfrozen buffer's block is unshared")
    }

    /// Current data length.
    pub fn len(&self) -> usize {
        self.tail - self.head
    }

    /// `true` before any bytes are written.
    pub fn is_empty(&self) -> bool {
        self.tail == self.head
    }

    /// Headroom still available for prepends.
    pub fn headroom(&self) -> usize {
        self.head
    }

    /// Tailroom still available for appends.
    pub fn tailroom(&self) -> usize {
        BUF_CAPACITY - self.tail
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.block()[self.head..self.tail]
    }

    /// Mutable access to the bytes written so far (checksum fix-ups, the
    /// impairment model's byte flips).
    pub fn as_slice_mut(&mut self) -> &mut [u8] {
        let (head, tail) = (self.head, self.tail);
        &mut self.block_mut()[head..tail]
    }

    /// Appends `data` after the current contents.
    ///
    /// # Panics
    ///
    /// Panics when the tailroom is exhausted — the caller segmented wrongly.
    pub fn append(&mut self, data: &[u8]) {
        let new_tail = self.tail + data.len();
        assert!(new_tail <= BUF_CAPACITY, "frame buffer overflow");
        let tail = self.tail;
        self.block_mut()[tail..new_tail].copy_from_slice(data);
        self.tail = new_tail;
    }

    /// Appends `n` zero bytes (minimum-frame padding).
    ///
    /// # Panics
    ///
    /// Panics when the tailroom is exhausted.
    pub fn append_zeros(&mut self, n: usize) {
        let new_tail = self.tail + n;
        assert!(new_tail <= BUF_CAPACITY, "frame buffer overflow");
        let tail = self.tail;
        self.block_mut()[tail..new_tail].fill(0);
        self.tail = new_tail;
    }

    /// Reserves `n` bytes at the tail and hands the caller the window to
    /// fill — the copy-once path from a socket send buffer straight into
    /// the frame. The caller must write all `n` bytes (pooled storage is
    /// recycled, so unwritten bytes would leak a previous frame's data).
    ///
    /// # Panics
    ///
    /// Panics when the tailroom is exhausted.
    pub fn append_with(&mut self, n: usize, fill: impl FnOnce(&mut [u8])) {
        let new_tail = self.tail + n;
        assert!(new_tail <= BUF_CAPACITY, "frame buffer overflow");
        let tail = self.tail;
        fill(&mut self.block_mut()[tail..new_tail]);
        self.tail = new_tail;
    }

    /// Prepends `data` into the headroom (how L2/L3/L4 headers are added).
    ///
    /// # Panics
    ///
    /// Panics when the headroom is exhausted.
    pub fn prepend(&mut self, data: &[u8]) {
        let new_head = self
            .head
            .checked_sub(data.len())
            .expect("frame buffer headroom exhausted");
        let head = self.head;
        self.block_mut()[new_head..head].copy_from_slice(data);
        self.head = new_head;
    }

    /// Pads the buffer with zeros up to `min_len` (no-op when already
    /// long enough) — Ethernet minimum-frame padding.
    pub fn pad_to(&mut self, min_len: usize) {
        if self.len() < min_len {
            self.append_zeros(min_len - self.len());
        }
    }

    /// Freezes into an immutable, cheaply clonable [`FrameBuf`] view. The
    /// block moves into the view as it is: no allocation.
    pub fn freeze(self) -> FrameBuf {
        let FrameBufMut {
            mut frame,
            head,
            tail,
        } = self;
        frame.off = head as u32;
        frame.len = (tail - head) as u32;
        frame
    }
}

/// An immutable, reference-counted view of (part of) a pooled frame
/// buffer. Clones and [`FrameBuf::slice`]s share the block; the block
/// returns to the pool when the last view drops.
///
/// Dereferences to `[u8]`, so it drops into any `&[u8]` position.
#[derive(Debug, Clone, Default)]
pub struct FrameBuf {
    /// `None` is the canonical empty buffer (no pooled block held).
    storage: Option<Block>,
    off: u32,
    len: u32,
}

impl FrameBuf {
    /// The empty buffer (holds no storage).
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Copies `data` into a pooled buffer — the bridge for callers that
    /// hold plain byte slices (tests, captured traces). The hot paths
    /// build via [`FrameBufMut`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds [`BUF_CAPACITY`].
    pub fn copy_from(data: &[u8]) -> FrameBuf {
        if data.is_empty() {
            return FrameBuf::new();
        }
        let mut fb = FrameBufMut::with_headroom(0);
        fb.append(data);
        fb.freeze()
    }

    /// View length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` for the empty view.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.storage {
            Some(b) => &b[self.off as usize..(self.off + self.len) as usize],
            None => &[],
        }
    }

    /// A sub-view of `len` bytes starting at `start`, sharing the same
    /// storage (no copy).
    ///
    /// # Panics
    ///
    /// Panics when the range leaves the current view.
    pub fn slice(&self, start: usize, len: usize) -> FrameBuf {
        assert!(
            start + len <= self.len(),
            "slice {start}+{len} out of {}",
            self.len()
        );
        FrameBuf {
            storage: if len == 0 { None } else { self.storage.clone() },
            off: self.off + start as u32,
            len: len as u32,
        }
    }

    /// A sub-view from `start` to the end, sharing the same storage.
    ///
    /// # Panics
    ///
    /// Panics when `start` exceeds the view length.
    pub fn slice_from(&self, start: usize) -> FrameBuf {
        self.slice(start, self.len() - start)
    }
}

/// The last view of a block files it back into the pool.
impl Drop for FrameBuf {
    fn drop(&mut self) {
        if let Some(block) = self.storage.take() {
            if Rc::strong_count(&block) == 1 {
                recycle(block);
            }
        }
    }
}

impl Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for FrameBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FrameBuf {}

impl PartialEq<[u8]> for FrameBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for FrameBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for FrameBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(v: Vec<u8>) -> FrameBuf {
        FrameBuf::copy_from(&v)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(v: &[u8]) -> FrameBuf {
        FrameBuf::copy_from(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headroom_build_round_trips() {
        let mut fb = FrameBufMut::with_headroom(16);
        assert!(fb.is_empty());
        fb.append(b"data bytes");
        fb.prepend(b"ip:");
        fb.prepend(b"eth:");
        assert_eq!(fb.as_slice(), b"eth:ip:data bytes");
        assert_eq!(fb.headroom(), 16 - 7);
        assert_eq!(fb.len(), 17);
        let f = fb.freeze();
        assert_eq!(&f[..], b"eth:ip:data bytes");
    }

    #[test]
    fn slices_share_storage() {
        let mut fb = FrameBufMut::with_headroom(0);
        fb.append(b"abcdefgh");
        let f = fb.freeze();
        let mid = f.slice(2, 4);
        assert_eq!(&mid[..], b"cdef");
        let tail = mid.slice_from(2);
        assert_eq!(&tail[..], b"ef");
        // Equality is by bytes, not identity.
        assert_eq!(tail, FrameBuf::copy_from(b"ef"));
        assert_ne!(tail, f);
    }

    #[test]
    fn empty_views_hold_no_storage() {
        let f = FrameBuf::new();
        assert!(f.is_empty());
        assert_eq!(&f[..], b"");
        let e = FrameBuf::copy_from(b"");
        assert!(e.storage.is_none());
        let mut fb = FrameBufMut::with_headroom(0);
        fb.append(b"x");
        let s = fb.freeze().slice(0, 0);
        assert!(s.storage.is_none());
    }

    #[test]
    fn pool_recycles_storage() {
        // Drain whatever earlier tests left, then measure a cycle.
        let before = pool_stats();
        let f = FrameBuf::copy_from(b"first");
        let takes_one = pool_stats();
        assert_eq!(
            (takes_one.fresh + takes_one.reused) - (before.fresh + before.reused),
            1
        );
        drop(f);
        let after_drop = pool_stats();
        assert_eq!(after_drop.recycled, takes_one.recycled + 1);
        // The next take reuses the recycled storage: no fresh allocation.
        let _g = FrameBuf::copy_from(b"second");
        let second = pool_stats();
        assert_eq!(second.fresh, after_drop.fresh, "steady state: no alloc");
        assert_eq!(second.reused, after_drop.reused + 1);
    }

    /// A block comes back whole: the `Rc` box a frozen view dropped is the
    /// one the next take writes through, so neither the bytes nor the
    /// reference counts cost a heap allocation in steady state.
    #[test]
    fn the_pool_keeps_the_rc_box_with_the_bytes() {
        let f = FrameBuf::copy_from(b"first");
        let block = Rc::as_ptr(f.storage.as_ref().unwrap());
        drop(f);
        let g = FrameBuf::copy_from(b"second");
        assert_eq!(Rc::as_ptr(g.storage.as_ref().unwrap()), block);
        assert_eq!(&g[..], b"second");
    }

    #[test]
    fn clones_keep_storage_alive_until_last_drop() {
        let start = pool_stats().recycled;
        let f = FrameBuf::copy_from(b"shared");
        let a = f.clone();
        let b = f.slice(1, 3);
        drop(f);
        drop(a);
        assert_eq!(pool_stats().recycled, start, "slice still alive");
        drop(b);
        assert_eq!(pool_stats().recycled, start + 1);
    }

    #[test]
    fn append_with_fills_the_reserved_window() {
        let mut fb = FrameBufMut::with_headroom(4);
        fb.append_with(5, |w| w.copy_from_slice(b"12345"));
        fb.append_zeros(2);
        fb.pad_to(10);
        assert_eq!(fb.as_slice(), b"12345\0\0\0\0\0");
        assert_eq!(fb.tailroom(), BUF_CAPACITY - 4 - 10);
        fb.pad_to(3); // already longer: no-op
        assert_eq!(fb.len(), 10);
    }

    #[test]
    #[should_panic(expected = "headroom exhausted")]
    fn prepend_beyond_headroom_panics() {
        let mut fb = FrameBufMut::with_headroom(2);
        fb.prepend(b"abc");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn append_beyond_capacity_panics() {
        let mut fb = FrameBufMut::with_headroom(0);
        fb.append(&vec![0u8; BUF_CAPACITY]);
        fb.append(b"x");
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_slice_panics() {
        let f = FrameBuf::copy_from(b"abc");
        let _ = f.slice(2, 2);
    }
}
