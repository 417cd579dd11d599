//! Non-cryptographic hashes: a fast hasher for the per-frame lookup maps,
//! and the FNV-1a chain every digest of a run folds into.

use std::hash::{BuildHasher, Hasher};

/// The Fx hash (rustc's `FxHash`: one add and one multiply per word) in
/// place of `std`'s SipHash-1-3, which resists hash flooding — worth its
/// cost on untrusted keys, and nothing in a simulation whose keys are its
/// own ports, addresses and MACs (every frame a stack or switch sees, a
/// chaos campaign's forgeries included, is generated by the run; keys
/// crafted to collide would cost host time, never behaviour). The type is
/// its own [`BuildHasher`]: `HashMap<K, V, FxHasher>`.
///
/// Iteration order differs from the default hasher's, so a map keyed
/// through this must not be iterated for behaviour — nothing that reaches
/// a digest may depend on the order. The maps of the frame path (the
/// stack's demux tables, the ARP cache, the switch's MAC table) are only
/// probed, apart from one order-free `any`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl BuildHasher for FxHasher {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher(0)
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = self.0.wrapping_add(i).wrapping_mul(K);
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    /// The product's high bits are the well-mixed ones and a table indexes
    /// by the low bits, so they are rotated down.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The 64-bit FNV-1a hash: one xor and one multiply per byte, in order.
/// Every digest that identifies a run — the trace digest, the chaos
/// campaigns' outcome streams, the test harness's traces — folds into this
/// one chain, so each shares its byte-identity guarantee. The tuple field
/// is the running value: `Fnv1a(v)` resumes a chain stopped at `v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Fnv1a {
    /// The offset basis: the value of the empty input.
    pub const BASIS: u64 = 0xCBF2_9CE4_8422_2325;
    /// The FNV prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Folds `bytes` into the chain.
    #[inline]
    pub fn fold(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Folds `v` as its eight little-endian bytes.
    #[inline]
    pub fn fold_u64(&mut self, v: u64) {
        self.fold(&v.to_le_bytes());
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(Self::BASIS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn equal_keys_hash_equal_and_a_map_round_trips() {
        let h = |k: (u16, [u8; 4], u16)| FxHasher::default().hash_one(k);
        assert_eq!(
            h((80, [10, 0, 0, 1], 40_000)),
            h((80, [10, 0, 0, 1], 40_000))
        );
        assert_ne!(
            h((80, [10, 0, 0, 1], 40_000)),
            h((80, [10, 0, 0, 1], 40_001))
        );
        let mut m: HashMap<u32, u32, FxHasher> = HashMap::default();
        for i in 0..1_000 {
            m.insert(i, i * 3);
        }
        assert!((0..1_000).all(|i| m[&i] == i * 3));
    }

    #[test]
    fn fnv1a_matches_the_published_64_bit_vectors() {
        let h = |bytes: &[u8]| {
            let mut f = Fnv1a::default();
            f.fold(bytes);
            f.value()
        };
        assert_eq!(h(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(h(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(h(b"foobar"), 0x8594_4171_f739_67e8);
        for v in [0, 1, 0x0102_0304_0506_0708, u64::MAX] {
            let (mut a, mut b) = (Fnv1a::default(), Fnv1a::default());
            a.fold_u64(v);
            b.fold(&v.to_le_bytes());
            assert_eq!(a, b);
        }
    }
}
