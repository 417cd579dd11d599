//! Packet-buffer pools over capability memory.
//!
//! DPDK pre-allocates packet buffers in hugepage mempools; the paper's port
//! makes those allocations through the Intravisor "with the correct
//! permission flags". Here a [`Mempool`] is carved from a region capability:
//! each buffer gets its own **bounded** capability, so an overflow while
//! writing one packet cannot touch the neighbouring buffer — the exact class
//! of network-stack CVE (buffer overflows in packet handling) the paper's
//! intro cites.

use crate::mbuf::Mbuf;
use crate::UpdkError;
use cheri::{CapFault, Capability, FaultKind, Perms};

/// Default DPDK-style buffer size (2 KiB covers an MTU frame + headroom).
pub const DEFAULT_BUF_SIZE: u64 = 2048;

/// Default headroom reserved at the front of each buffer.
pub const DEFAULT_HEADROOM: u16 = 128;

/// A fixed-size packet-buffer pool.
///
/// # Example
///
/// ```
/// use updk::mempool::Mempool;
/// use cheri::TaggedMemory;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mem = TaggedMemory::new(1 << 20);
/// let region = mem.root_cap().try_restrict(0x1000, 64 * 2048)?;
/// let mut pool = Mempool::new("rx0", region, 2048)?;
/// assert_eq!(pool.capacity(), 64);
/// let mbuf = pool.alloc()?;
/// pool.free(mbuf);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Mempool {
    name: String,
    region: Capability,
    buf_size: u64,
    free: Vec<u32>,
    /// Per-buffer in-use bit: O(1) double-free/foreign-mbuf detection on
    /// the hot free path (a linear scan of `free` would cost O(pool) per
    /// transmitted frame).
    in_use: Vec<bool>,
    capacity: u32,
    allocs: u64,
    frees: u64,
    alloc_failures: u64,
}

impl Mempool {
    /// Creates a pool of `region.len() / buf_size` buffers inside `region`.
    ///
    /// # Errors
    ///
    /// A [`CapFault`] (as [`UpdkError::Cap`]) if the region lacks LOAD/STORE
    /// permission — the "correct permission flags" check the paper's kmod
    /// performs — or is too small for a single buffer.
    pub fn new(
        name: impl Into<String>,
        region: Capability,
        buf_size: u64,
    ) -> Result<Self, UpdkError> {
        if !region.perms().contains(Perms::LOAD | Perms::STORE) {
            return Err(UpdkError::Cap(CapFault::new(
                FaultKind::PermitStore,
                region.base(),
                region.len(),
                region,
            )));
        }
        let capacity = region.len() / buf_size;
        if capacity == 0 {
            return Err(UpdkError::Cap(CapFault::new(
                FaultKind::Bounds,
                region.base(),
                buf_size,
                region,
            )));
        }
        let capacity = u32::try_from(capacity.min(u64::from(u32::MAX))).expect("fits");
        Ok(Mempool {
            name: name.into(),
            region,
            buf_size,
            free: (0..capacity).rev().collect(),
            in_use: vec![false; capacity as usize],
            capacity,
            allocs: 0,
            frees: 0,
            alloc_failures: 0,
        })
    }

    /// The pool name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total buffers in the pool.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Buffers currently free.
    pub fn available(&self) -> u32 {
        self.free.len() as u32
    }

    /// Buffers currently in use.
    pub fn in_use(&self) -> u32 {
        self.capacity - self.available()
    }

    /// Lifetime counters `(allocs, frees, alloc_failures)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.allocs, self.frees, self.alloc_failures)
    }

    /// Allocates one buffer as an [`Mbuf`] whose data capability is bounded
    /// to exactly that buffer.
    ///
    /// # Errors
    ///
    /// [`UpdkError::MempoolExhausted`] when empty (counted in stats).
    pub fn alloc(&mut self) -> Result<Mbuf, UpdkError> {
        let Some(idx) = self.free.pop() else {
            self.alloc_failures += 1;
            return Err(UpdkError::MempoolExhausted);
        };
        self.allocs += 1;
        self.in_use[idx as usize] = true;
        let base = self.region.base() + u64::from(idx) * self.buf_size;
        let cap = self
            .region
            .try_restrict(base, self.buf_size)
            .expect("buffer carve is within the region by construction");
        Ok(Mbuf::new(idx, cap, DEFAULT_HEADROOM))
    }

    /// Returns a buffer to the pool.
    ///
    /// # Panics
    ///
    /// Panics on double-free or a foreign mbuf — both are driver bugs that
    /// corrupt real DPDK pools silently; we fail loudly instead.
    pub fn free(&mut self, mbuf: Mbuf) {
        let idx = mbuf.pool_index();
        assert!(
            idx < self.capacity,
            "mbuf {idx} does not belong to {}",
            self.name
        );
        assert!(
            self.in_use[idx as usize],
            "double free of mbuf {idx} in {}",
            self.name
        );
        self.in_use[idx as usize] = false;
        self.frees += 1;
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri::TaggedMemory;

    fn region(n_bufs: u64) -> Capability {
        let mem = TaggedMemory::new(1 << 20);
        mem.root_cap()
            .try_restrict(0x1000, n_bufs * DEFAULT_BUF_SIZE)
            .unwrap()
    }

    #[test]
    fn alloc_free_cycle() {
        let mut pool = Mempool::new("p", region(4), DEFAULT_BUF_SIZE).unwrap();
        assert_eq!(pool.capacity(), 4);
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        assert_eq!(pool.in_use(), 2);
        assert_ne!(a.pool_index(), b.pool_index());
        pool.free(a);
        pool.free(b);
        assert_eq!(pool.available(), 4);
        assert_eq!(pool.stats(), (2, 2, 0));
    }

    #[test]
    fn buffers_are_disjoint_and_bounded() {
        let mut pool = Mempool::new("p", region(4), DEFAULT_BUF_SIZE).unwrap();
        let a = pool.alloc().unwrap();
        let b = pool.alloc().unwrap();
        let (ca, cb) = (a.buf_cap(), b.buf_cap());
        assert_eq!(ca.len(), DEFAULT_BUF_SIZE);
        assert!(ca.top() <= cb.base() || cb.top() <= ca.base());
    }

    #[test]
    fn exhaustion_is_counted() {
        let mut pool = Mempool::new("p", region(1), DEFAULT_BUF_SIZE).unwrap();
        let _a = pool.alloc().unwrap();
        assert_eq!(pool.alloc().unwrap_err(), UpdkError::MempoolExhausted);
        assert_eq!(pool.stats().2, 1);
    }

    #[test]
    fn wrong_permissions_are_rejected() {
        let mem = TaggedMemory::new(1 << 20);
        let ro = mem
            .root_cap()
            .try_restrict(0, 4 * DEFAULT_BUF_SIZE)
            .unwrap()
            .try_restrict_perms(Perms::read_only())
            .unwrap();
        let e = Mempool::new("p", ro, DEFAULT_BUF_SIZE).unwrap_err();
        assert!(matches!(e, UpdkError::Cap(_)));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_is_loud() {
        let mut pool = Mempool::new("p", region(2), DEFAULT_BUF_SIZE).unwrap();
        let a = pool.alloc().unwrap();
        let clone = a.clone();
        pool.free(a);
        pool.free(clone);
    }
}
