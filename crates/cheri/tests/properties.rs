//! Property-based tests of the capability machine's architectural laws.
//!
//! These are the invariants the paper's security argument rests on: if any
//! of them fail, compartmentalization is unsound regardless of how the
//! network stack uses the capabilities.

use cheri::capability::Access;
use cheri::{CapFault, Capability, FaultKind, Perms, TaggedMemory};
use proptest::prelude::*;

const MEM: u64 = 1 << 16;

fn arb_perms() -> impl Strategy<Value = Perms> {
    (0u32..=0x7FF).prop_map(Perms::from_bits_truncate)
}

fn arb_region() -> impl Strategy<Value = (u64, u64)> {
    (0..MEM, 0..MEM).prop_map(|(a, b)| {
        let base = a.min(b);
        let len = a.max(b) - base;
        (base, len)
    })
}

proptest! {
    /// Monotonicity of bounds: any successful derivation is a subset.
    #[test]
    fn derived_bounds_are_subsets((pb, pl) in arb_region(), (cb, cl) in arb_region()) {
        let parent = Capability::root(pb, pl, Perms::data());
        if let Ok(child) = parent.try_restrict(cb, cl) {
            prop_assert!(child.base() >= parent.base());
            prop_assert!(child.top() <= parent.top());
            prop_assert!(child.is_subset_of(&parent));
        } else {
            // Failure must mean the request was not a subset.
            prop_assert!(cb < pb || cb.checked_add(cl).is_none_or(|t| t > pb + pl));
        }
    }

    /// Monotonicity of permissions: derivation never amplifies.
    #[test]
    fn derived_perms_are_subsets(p in arb_perms(), q in arb_perms()) {
        let parent = Capability::root(0, 64, p);
        match parent.try_restrict_perms(q) {
            Ok(child) => {
                prop_assert!(child.perms().is_subset_of(p));
                prop_assert_eq!(child.perms(), q);
            }
            Err(e) => {
                prop_assert_eq!(e.kind(), FaultKind::Monotonicity);
                prop_assert!(!q.is_subset_of(p));
            }
        }
    }

    /// Every access a child capability allows, its parent also allows:
    /// authority only ever shrinks along a derivation chain.
    #[test]
    fn child_access_implies_parent_access(
        (pb, pl) in arb_region(),
        (cb, cl) in arb_region(),
        addr in 0..MEM,
        len in 0..256u64,
    ) {
        let parent = Capability::root(pb, pl, Perms::data());
        if let Ok(child) = parent.try_restrict(cb, cl) {
            for access in [Access::Load, Access::Store] {
                if child.check_access(addr, len, access).is_ok() {
                    prop_assert!(parent.check_access(addr, len, access).is_ok());
                }
            }
        }
    }

    /// Out-of-bounds accesses always fault with the Fig. 3 exception.
    #[test]
    fn oob_always_faults((b, l) in arb_region(), addr in 0..MEM, len in 1..256u64) {
        let cap = Capability::root(b, l, Perms::data());
        let inside = addr >= b && addr + len <= b + l;
        let r = cap.check_access(addr, len, Access::Load);
        if inside {
            prop_assert!(r.is_ok());
        } else {
            prop_assert_eq!(r.unwrap_err().kind(), FaultKind::Bounds);
        }
    }

    /// Cursor movement never changes authority.
    #[test]
    fn cursor_moves_preserve_authority((b, l) in arb_region(), a1 in any::<u64>(), a2 in any::<u64>()) {
        let cap = Capability::root(b, l, Perms::data());
        let moved = cap.with_addr(a1).with_addr(a2);
        prop_assert_eq!(moved.base(), cap.base());
        prop_assert_eq!(moved.top(), cap.top());
        prop_assert_eq!(moved.perms(), cap.perms());
        prop_assert!(moved.tag());
    }

    /// Seal/unseal round-trips restore the exact capability; wrong otypes
    /// never unseal.
    #[test]
    fn seal_roundtrip(ot in 16u64..1000, wrong in 16u64..1000) {
        let cap = Capability::root(0x100, 0x100, Perms::data());
        let sealer = Capability::root(0, 4096, Perms::SEAL | Perms::UNSEAL).with_addr(ot);
        let sealed = cap.seal(&sealer).unwrap();
        prop_assert!(sealed.is_sealed());
        let back = sealed.unseal(&sealer).unwrap();
        prop_assert_eq!(back, cap);
        if wrong != ot {
            let other = Capability::root(0, 4096, Perms::SEAL | Perms::UNSEAL).with_addr(wrong);
            prop_assert!(sealed.unseal(&other).is_err());
        }
    }

    /// Tagged memory: data writes anywhere in a granule kill a stored cap.
    #[test]
    fn data_writes_clear_tags(slot in 0u64..64, off in 0u64..16) {
        let mut mem = TaggedMemory::new(4096);
        let root = mem.root_cap();
        let value = root.try_restrict(0, 32).unwrap();
        let addr = slot * 16;
        mem.store_cap(&root, addr, value).unwrap();
        prop_assert!(mem.tag_at(addr));
        mem.write_u8(&root, addr + off, 0xFF).unwrap();
        prop_assert!(!mem.tag_at(addr));
        prop_assert!(!mem.load_cap(&root, addr).unwrap().tag());
    }

    /// Memory round-trips bytes exactly under an authorizing capability.
    #[test]
    fn memory_roundtrip(addr in 0u64..3800, data in proptest::collection::vec(any::<u8>(), 1..256)) {
        let mut mem = TaggedMemory::new(4096);
        let root = mem.root_cap();
        if addr + data.len() as u64 <= 4096 {
            mem.write(&root, addr, &data).unwrap();
            prop_assert_eq!(mem.read_vec(&root, addr, data.len() as u64).unwrap(), data);
        }
    }

    /// Fault values are well-formed errors (Display non-empty, Error impl).
    #[test]
    fn faults_are_well_formed((b, l) in arb_region(), addr in 0..MEM) {
        let cap = Capability::root(b, l, Perms::read_only());
        if let Err(e) = cap.check_access(addr, 8, Access::Store) {
            let msg = e.to_string();
            prop_assert!(!msg.is_empty());
            let _: &dyn std::error::Error = &e;
            let _copy: CapFault = e.clone();
        }
    }
}
