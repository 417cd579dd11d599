//! A fast, non-cryptographic hasher for the per-frame lookup maps.

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
}
