//! # intravisor — CAP-VM style compartment manager
//!
//! The paper compartmentalizes its network stack with a modified **CAP-VM
//! Intravisor** (Sartakov et al., OSDI '22): a trusted process that carves a
//! single CheriBSD address space into **capability VMs (cVMs)**, hands each
//! one a bounded DDC/PCC pair, and mediates every interaction between a cVM
//! and the outside world:
//!
//! * **syscalls** never leave a cVM directly — musl libc's `svc`
//!   instructions are replaced by [`trampoline`] functions that save state,
//!   install the Intravisor's DDC/PCC, `blrs` across, and let the
//!   [`proxy`] table translate and forward the request to CheriBSD (most
//!   famously translating musl `futex` to CheriBSD `umtx`);
//! * **cross-compartment calls** (Scenario 2's `ff_*` wrappers) go through
//!   sealed capability pairs registered in [`xcall`], so the application cVM
//!   can *enter* the F-Stack service without ever holding an unsealed
//!   capability to it.
//!
//! Unlike the original CAP-VMs, and exactly like the paper, there is **no
//! Linux Kernel Library** inside the cVMs: DPDK and F-Stack run fully in
//! user space and touch the kernel only at boot, so cVMs here are just
//! (region, DDC/PCC, entry) triples with a bump allocator — a deliberately
//! minimal TCB.
//!
//! # Example
//!
//! ```
//! use intravisor::{Intravisor, CvmConfig};
//! use simkern::CostModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut iv = Intravisor::new(1 << 20, CostModel::morello());
//! let cvm = iv.create_cvm(CvmConfig::new("iperf").mem_size(64 * 1024))?;
//! // The cVM can use its own memory…
//! let buf = iv.cvm_alloc(cvm, 1024, 16)?;
//! iv.memory_mut().write(&buf, buf.base(), b"payload")?;
//! // …but an access outside its DDC raises the paper's Fig. 3 exception.
//! let err = iv.cvm_load(cvm, 0, 16).unwrap_err();
//! assert!(err.is_out_of_bounds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod cvm;
pub mod proxy;
pub mod trampoline;
pub mod xcall;

pub use config::CvmConfig;
pub use cvm::{Cvm, CvmId};
pub use trampoline::TrampolineOutcome;
pub use xcall::{ServiceId, XcallGrant};

use cheri::otype::OTypeAllocator;
use cheri::{CapFault, Capability, CompartmentCtx, FaultKind, OType, Perms, TaggedMemory};
use chos::syscall::Kernel;
use simkern::cost::CostModel;
use simkern::time::SimTime;

/// The Intravisor: owner of the single address space, the host-kernel
/// connection, and all compartments.
///
/// See the [crate-level example](crate).
pub struct Intravisor {
    memory: TaggedMemory,
    kernel: Kernel,
    costs: CostModel,
    cvms: Vec<Cvm>,
    otypes: OTypeAllocator,
    services: xcall::ServiceTable,
    /// Next free byte for region carving (bump).
    carve_next: u64,
    /// Sealing root: the Intravisor's authority to mint object types.
    sealer_root: Capability,
    /// Fault log for security experiments (who faulted, and how).
    fault_log: Vec<(CvmId, CapFault)>,
}

impl std::fmt::Debug for Intravisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Intravisor")
            .field("mem", &self.memory.size())
            .field("cvms", &self.cvms.len())
            .field("faults", &self.fault_log.len())
            .finish()
    }
}

/// Reserved bytes at the bottom of the space for the Intravisor itself
/// (proxy tables, trampoline stubs, sealing space).
const INTRAVISOR_RESERVED: u64 = 64 * 1024;

impl Intravisor {
    /// Boots an Intravisor over a fresh `mem_size`-byte address space.
    ///
    /// # Panics
    ///
    /// Panics if `mem_size` is smaller than the Intravisor's own reserved
    /// region or not capability-granule aligned.
    pub fn new(mem_size: u64, costs: CostModel) -> Self {
        assert!(
            mem_size > INTRAVISOR_RESERVED,
            "address space too small for the Intravisor"
        );
        let memory = TaggedMemory::new(mem_size);
        let root = memory.root_cap();
        let sealer_root = root
            .try_restrict(0, 4096)
            .expect("sealer carve")
            .try_restrict_perms(Perms::SEAL | Perms::UNSEAL | Perms::GLOBAL)
            .expect("sealer perms");
        Intravisor {
            memory,
            kernel: Kernel::new(costs.clone()),
            costs,
            cvms: Vec::new(),
            otypes: OTypeAllocator::new(),
            services: xcall::ServiceTable::new(),
            carve_next: INTRAVISOR_RESERVED,
            sealer_root,
            fault_log: Vec::new(),
        }
    }

    /// The shared address space (read-only view).
    pub fn memory(&self) -> &TaggedMemory {
        &self.memory
    }

    /// The shared address space. Holding `&mut` here models running *as*
    /// the Intravisor or as a cVM whose capability you pass in.
    pub fn memory_mut(&mut self) -> &mut TaggedMemory {
        &mut self.memory
    }

    /// The host kernel connection.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable host kernel connection (scenario drivers use this for
    /// Baseline processes that bypass the Intravisor).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// The cost model in force.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Creates a compartment per `config`, carving its region off the top
    /// of the space and equipping it with code/data capabilities.
    ///
    /// # Errors
    ///
    /// [`CapFault`] if the space is exhausted (bounds fault on the carve).
    pub fn create_cvm(&mut self, config: CvmConfig) -> Result<CvmId, CapFault> {
        let size = config.mem_size_bytes();
        let base = self.carve_next;
        let root = self.memory.root_cap();
        // Region carve is the provenance chain: root → region → (code, data).
        let region = root.try_restrict(base, size)?;
        let code = region
            .try_restrict(base, config.code_size_bytes())?
            .try_restrict_perms(Perms::code())?;
        let data_base = base + config.code_size_bytes();
        let data = region
            .try_restrict(data_base, size - config.code_size_bytes())?
            .try_restrict_perms(Perms::data())?;
        let ctx = CompartmentCtx::new(data, code);
        let entry = code.into_sentry()?;
        self.carve_next = base + size;
        let id = CvmId::new(self.cvms.len() as u32);
        self.cvms.push(Cvm::new(id, config, ctx, entry, data_base));
        Ok(id)
    }

    /// Looks up a compartment.
    ///
    /// # Panics
    ///
    /// Panics on an id from another Intravisor instance.
    pub fn cvm(&self, id: CvmId) -> &Cvm {
        &self.cvms[id.index()]
    }

    /// Every compartment, in creation order — destroyed ones included: a
    /// destroyed cVM's slot is retired, not removed, so ids stay stable.
    pub fn cvms(&self) -> &[Cvm] {
        &self.cvms
    }

    /// Bump-allocates `size` bytes (aligned to `align`) inside the cVM's
    /// data region, returning a capability bounded to exactly that object —
    /// the Intravisor's role of "distributing memory capabilities to cVMs".
    ///
    /// # Errors
    ///
    /// Bounds fault when the region is exhausted, or monotonicity faults if
    /// the cVM's DDC cannot cover the request.
    pub fn cvm_alloc(&mut self, id: CvmId, size: u64, align: u64) -> Result<Capability, CapFault> {
        let cvm = &mut self.cvms[id.index()];
        cvm.alloc(size, align)
    }

    /// A load through the cVM's DDC — how hybrid-mode compiled code reaches
    /// memory. Accesses outside the DDC fault exactly like the paper's
    /// Fig. 3 demonstration, and are recorded in the fault log.
    ///
    /// # Errors
    ///
    /// The [`CapFault`] the hardware would raise.
    pub fn cvm_load(&mut self, id: CvmId, addr: u64, len: u64) -> Result<Vec<u8>, CapFault> {
        let ddc = *self.cvms[id.index()].ctx().ddc();
        let r = self.memory.read_vec(&ddc, addr, len);
        if let Err(ref e) = r {
            self.log_fault(id, e.clone());
        }
        r
    }

    /// A store through the cVM's DDC; see [`Intravisor::cvm_load`].
    ///
    /// # Errors
    ///
    /// The [`CapFault`] the hardware would raise.
    pub fn cvm_store(&mut self, id: CvmId, addr: u64, data: &[u8]) -> Result<(), CapFault> {
        let ddc = *self.cvms[id.index()].ctx().ddc();
        let r = self.memory.write(&ddc, addr, data);
        if let Err(ref e) = r {
            self.log_fault(id, e.clone());
        }
        r
    }

    /// Registers `provider` as a callable service, returning the sealed-pair
    /// handle callers use with [`Intravisor::xcall`].
    ///
    /// # Errors
    ///
    /// Capability faults if the provider's context cannot be sealed.
    pub fn register_service(
        &mut self,
        provider: CvmId,
        name: impl Into<String>,
    ) -> Result<ServiceId, CapFault> {
        let ot = self.otypes.next_otype();
        let sealer = self.sealer(ot);
        let cvm = &self.cvms[provider.index()];
        let code = cvm.ctx().pcc().try_restrict_perms(Perms::code())?;
        let code = Capability::root(code.base(), code.len(), Perms::code() | Perms::INVOKE)
            .seal(&sealer)?;
        let data_src = cvm.ctx().ddc();
        let data = Capability::root(
            data_src.base(),
            data_src.len(),
            Perms::data() | Perms::INVOKE,
        )
        .seal(&sealer)?;
        Ok(self.services.register(name, provider, code, data))
    }

    /// Performs a cross-compartment call from `caller` into the service —
    /// Scenario 2's app→F-Stack jump. Charges the cost model's `xcall_ns`
    /// and validates the sealed pair with `CInvoke` semantics.
    ///
    /// # Errors
    ///
    /// Capability faults if the pair fails validation (logged), or if the
    /// caller tries to call itself.
    pub fn xcall(
        &mut self,
        caller: CvmId,
        service: ServiceId,
        now: SimTime,
    ) -> Result<XcallGrant, CapFault> {
        let r = self.services.invoke(caller, service, now, &self.costs);
        match r {
            Ok(grant) => {
                self.cvms[caller.index()].note_xcall();
                Ok(grant)
            }
            Err(e) => {
                self.log_fault(caller, e.clone());
                Err(e)
            }
        }
    }

    /// A trampolined syscall from a cVM (paper §III.B): the musl stub saves
    /// registers, the Intravisor validates arguments, translates where
    /// CheriBSD differs from Linux (futex→umtx), executes the syscall, and
    /// returns through the trampoline. Timing includes the full round trip.
    pub fn trampoline_syscall(
        &mut self,
        id: CvmId,
        now: SimTime,
        sc: chos::syscall::Syscall,
    ) -> TrampolineOutcome {
        trampoline::run(self, id, now, sc)
    }

    /// Convenience: `clock_gettime(CLOCK_MONOTONIC_RAW)` as a cVM sees it —
    /// through the trampoline, as the paper notes cVMs cannot touch timers
    /// directly. Returns `(reading, completion_instant)`.
    pub fn cvm_clock_gettime(&mut self, id: CvmId, now: SimTime) -> (SimTime, SimTime) {
        let out = self.trampoline_syscall(
            id,
            now,
            chos::syscall::Syscall::ClockGettime(chos::clock::ClockId::MonotonicRaw),
        );
        let reading = SimTime::from_nanos(out.outcome.result.unwrap_or(0));
        (reading, out.outcome.completed_at)
    }

    /// Tears a compartment down: zeroes its region, then **revokes** every
    /// in-memory capability into it (Cornucopia-style sweep), so nothing
    /// that escaped the cVM while it lived can touch the recycled memory.
    /// Returns the number of capabilities revoked.
    ///
    /// The slot is retired, not reused — cVM ids stay stable for the fault
    /// log (the CAP-VM lifecycle the paper builds on).
    ///
    /// # Errors
    ///
    /// Capability faults if the region cannot be scrubbed (would indicate
    /// Intravisor state corruption).
    pub fn destroy_cvm(&mut self, id: CvmId) -> Result<usize, CapFault> {
        let (base, len) = {
            let cvm = &self.cvms[id.index()];
            let pcc = cvm.ctx().pcc();
            let ddc = cvm.ctx().ddc();
            (pcc.base(), ddc.top() - pcc.base())
        };
        // Scrub with the Intravisor's root authority (it owns the space).
        let root = self.memory.root_cap();
        let region = root.try_restrict(base, len)?;
        self.memory.fill(&region, base, len, 0)?;
        let revoked = self.memory.revoke_region(base, len);
        // Neutralize the compartment's own context so the retired id can
        // never be used to access the recycled region again.
        self.cvms[id.index()].retire();
        Ok(revoked)
    }

    /// The recorded capability faults `(cvm, fault)` — the experiment
    /// evidence behind Fig. 3.
    pub fn fault_log(&self) -> &[(CvmId, CapFault)] {
        &self.fault_log
    }

    pub(crate) fn log_fault(&mut self, id: CvmId, fault: CapFault) {
        self.cvms[id.index()].note_fault();
        self.fault_log.push((id, fault));
    }

    pub(crate) fn sealer(&self, ot: OType) -> Capability {
        self.sealer_root.with_addr(u64::from(ot.raw()))
    }

    pub(crate) fn kernel_and_cvm(&mut self, id: CvmId) -> (&mut Kernel, &mut Cvm, &CostModel) {
        (&mut self.kernel, &mut self.cvms[id.index()], &self.costs)
    }
}

/// Verifies a capability argument a cVM passed across the boundary: it must
/// be tagged, unsealed, and a subset of the cVM's DDC — otherwise the cVM is
/// trying to confuse the Intravisor into acting on memory it does not own
/// (a classic confused-deputy attack).
///
/// # Errors
///
/// [`FaultKind::Tag`]/[`FaultKind::Seal`]/[`FaultKind::Monotonicity`]
/// according to what is wrong with the argument.
pub fn validate_boundary_cap(ddc: &Capability, arg: &Capability) -> Result<(), CapFault> {
    if !arg.tag() {
        return Err(CapFault::new(FaultKind::Tag, arg.addr(), 0, *arg));
    }
    if arg.is_sealed() {
        return Err(CapFault::new(FaultKind::Seal, arg.addr(), 0, *arg));
    }
    if !arg.is_subset_of(ddc) {
        return Err(CapFault::new(
            FaultKind::Monotonicity,
            arg.addr(),
            arg.len(),
            *arg,
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot() -> Intravisor {
        Intravisor::new(1 << 20, CostModel::morello())
    }

    #[test]
    fn cvm_regions_are_disjoint() {
        let mut iv = boot();
        let a = iv
            .create_cvm(CvmConfig::new("a").mem_size(64 * 1024))
            .unwrap();
        let b = iv
            .create_cvm(CvmConfig::new("b").mem_size(64 * 1024))
            .unwrap();
        let da = *iv.cvm(a).ctx().ddc();
        let db = *iv.cvm(b).ctx().ddc();
        assert!(da.top() <= db.base() || db.top() <= da.base());
        assert_eq!(iv.cvms().len(), 2);
    }

    #[test]
    fn cvm_cannot_reach_other_cvm_or_intravisor() {
        let mut iv = boot();
        let a = iv
            .create_cvm(CvmConfig::new("a").mem_size(64 * 1024))
            .unwrap();
        let b = iv
            .create_cvm(CvmConfig::new("b").mem_size(64 * 1024))
            .unwrap();
        let victim = iv.cvm(b).ctx().ddc().base();
        // Fig. 3: load outside the DDC.
        let e = iv.cvm_load(a, victim, 16).unwrap_err();
        assert!(e.is_out_of_bounds());
        // Intravisor-reserved memory is equally unreachable.
        let e = iv.cvm_store(a, 0, &[1, 2, 3]).unwrap_err();
        assert!(e.is_out_of_bounds());
        assert_eq!(iv.fault_log().len(), 2);
        assert_eq!(iv.cvm(a).fault_count(), 2);
    }

    #[test]
    fn cvm_alloc_hands_out_bounded_caps() {
        let mut iv = boot();
        let a = iv
            .create_cvm(CvmConfig::new("a").mem_size(64 * 1024))
            .unwrap();
        let c1 = iv.cvm_alloc(a, 100, 16).unwrap();
        let c2 = iv.cvm_alloc(a, 100, 16).unwrap();
        assert_eq!(c1.len(), 100);
        assert!(c1.top() <= c2.base());
        assert!(c1.is_subset_of(iv.cvm(a).ctx().ddc()));
        // The capability is usable for exactly its object.
        iv.memory_mut().write(&c1, c1.base(), &[7; 100]).unwrap();
        assert!(iv
            .memory_mut()
            .write(&c1, c1.base() + 1, &[7; 100])
            .is_err());
    }

    #[test]
    fn boundary_validation_rejects_escalation() {
        let mut iv = boot();
        let a = iv
            .create_cvm(CvmConfig::new("a").mem_size(64 * 1024))
            .unwrap();
        let ddc = *iv.cvm(a).ctx().ddc();
        let ok = iv.cvm_alloc(a, 64, 16).unwrap();
        assert!(validate_boundary_cap(&ddc, &ok).is_ok());
        // A forged "whole memory" capability value (untagged) is rejected.
        let forged = ok.without_tag();
        assert_eq!(
            validate_boundary_cap(&ddc, &forged).unwrap_err().kind(),
            FaultKind::Tag
        );
        // A capability from another compartment is rejected by subset check.
        let b = iv
            .create_cvm(CvmConfig::new("b").mem_size(64 * 1024))
            .unwrap();
        let other = iv.cvm_alloc(b, 64, 16).unwrap();
        assert_eq!(
            validate_boundary_cap(&ddc, &other).unwrap_err().kind(),
            FaultKind::Monotonicity
        );
    }

    #[test]
    fn destroy_cvm_revokes_escaped_capabilities() {
        let mut iv = boot();
        let a = iv
            .create_cvm(CvmConfig::new("a").mem_size(64 * 1024))
            .unwrap();
        let b = iv
            .create_cvm(CvmConfig::new("b").mem_size(64 * 1024))
            .unwrap();
        // A capability into A's region "escapes" into B's memory through a
        // legitimate capability store (an IPC grant, say).
        let a_buf = iv.cvm_alloc(a, 64, 16).unwrap();
        iv.memory_mut()
            .write(&a_buf, a_buf.base(), b"live secret data")
            .unwrap();
        let b_slot = iv.cvm_alloc(b, 16, 16).unwrap();
        iv.memory_mut()
            .store_cap(&b_slot, b_slot.base(), a_buf)
            .unwrap();
        // While A lives, B can use the grant.
        let held = iv.memory_mut().load_cap(&b_slot, b_slot.base()).unwrap();
        assert!(iv.memory_mut().read_vec(&held, a_buf.base(), 16).is_ok());
        // Tear A down: the grant dies with it.
        let revoked = iv.destroy_cvm(a).unwrap();
        assert!(revoked >= 1, "the escaped grant was swept");
        let stale = iv.memory_mut().load_cap(&b_slot, b_slot.base()).unwrap();
        assert!(!stale.tag(), "loaded copy is dead");
        // The retired cVM id cannot touch the recycled memory either.
        assert!(iv.cvm_load(a, a_buf.base(), 16).is_err());
        // And the data itself was scrubbed before recycling.
        let root = iv.memory().root_cap();
        let bytes = iv.memory_mut().read_vec(&root, a_buf.base(), 16).unwrap();
        assert_eq!(bytes, vec![0; 16], "no secret survives teardown");
    }

    #[test]
    fn space_exhaustion_is_a_fault_not_a_panic() {
        let mut iv = Intravisor::new(256 * 1024, CostModel::morello());
        let r1 = iv.create_cvm(CvmConfig::new("big").mem_size(128 * 1024));
        assert!(r1.is_ok());
        let r2 = iv.create_cvm(CvmConfig::new("too-big").mem_size(128 * 1024));
        assert!(r2.is_err());
    }
}
