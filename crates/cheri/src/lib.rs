//! # cheri — a software CHERI capability machine
//!
//! The protection substrate of the `capnet` reproduction. The paper runs on
//! Arm Morello, where every pointer is (or can be) a 128-bit **capability**
//! carrying bounds, permissions, an object type and a hidden validity tag,
//! and where compartments are delimited by the Default Data Capability
//! (`DDC`) and Program Counter Capability (`PCC`). There is no CHERI silicon
//! here, so this crate models the architecture in software:
//!
//! * [`capability::Capability`] — a capability value with **guarded
//!   manipulation**: every derivation is monotonic (authority can only
//!   shrink) and provenance-preserving (new capabilities come only from
//!   valid ones).
//! * [`perms::Perms`] — the permission lattice (load/store/execute,
//!   capability load/store, seal/unseal/invoke, global, system registers).
//! * [`memory::TaggedMemory`] — byte memory plus one tag bit per 16-byte
//!   granule; overwriting a granule with data atomically clears its tag, so
//!   capabilities cannot be forged through byte writes.
//! * [`fault::CapFault`] — the hardware exceptions, including the
//!   *Capability Out-of-Bounds* exception demonstrated in the paper's Fig. 3.
//! * [`regfile::CompartmentCtx`] — a DDC/PCC pair, with sealed-pair
//!   `CInvoke`-style domain transition used by the Intravisor's trampolines.
//! * [`compress`] — CHERI-Concentrate-style compressed-bounds rounding, for
//!   studying representability effects on allocator alignment.
//!
//! Every memory access performed by the network stack in this repository
//! goes through [`memory::TaggedMemory`] with an explicit authorizing
//! capability, so the compartmentalization results of the paper are
//! reproduced *by construction*, not by convention.
//!
//! # Example
//!
//! ```
//! use cheri::{Capability, Perms, TaggedMemory};
//!
//! # fn main() -> Result<(), cheri::CapFault> {
//! let mut mem = TaggedMemory::new(4096);
//! let root = mem.root_cap();
//! // Carve a 256-byte compartment window; monotonic: perms can only shrink.
//! let window = root.try_restrict(1024, 256)?.try_restrict_perms(
//!     Perms::LOAD | Perms::STORE,
//! )?;
//! mem.write(&window, 1024, b"hello")?;
//! let mut buf = [0u8; 5];
//! mem.read_into(&window, 1024, &mut buf)?;
//! assert_eq!(&buf, b"hello");
//! // Out-of-bounds access raises the Fig. 3 exception.
//! assert!(mem.read_into(&window, 2048, &mut buf).is_err());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod capability;
pub mod compress;
pub mod fault;
pub mod memory;
pub mod otype;
pub mod perms;
pub mod regfile;

pub use capability::Capability;
pub use fault::{CapFault, FaultKind};
pub use memory::{FlipEffect, TaggedMemory, CAP_GRANULE};
pub use otype::OType;
pub use perms::Perms;
pub use regfile::{CompartmentCtx, RegFile};
