//! The compromised-compartment model: a capability-space walker.
//!
//! One [`Intravisor`] hosts two cVMs: a **victim** holding live MAVLink
//! telemetry state (the drone ground-station from `mavsim` is the
//! motivating workload) and an **attacker** that has achieved arbitrary
//! code execution inside its own compartment. The attacker then does
//! what a real exploit payload would: it probes outward — out-of-bounds
//! loads and stores at the victim's region, dereferences through
//! tag-cleared and sealed capabilities, attempts to widen bounds and
//! escalate permissions, forges capabilities and passes them across the
//! Intravisor boundary, and tries to conjure authority out of raw bytes.
//!
//! The walker asserts the CHERI containment contract probe by probe:
//! every attempt must raise exactly the predicted [`FaultKind`]
//! (mismatches are counted and must be zero), and the victim's memory
//! must be bit-identical after every probe (corruptions must be zero).

use cheri::{Capability, FaultKind, Perms, CAP_GRANULE};
use intravisor::{validate_boundary_cap, CvmConfig, CvmId, Intravisor};
use mavsim::frame::MavFrame;
use mavsim::msg::{Heartbeat, MavMode, Message};
use simkern::cost::CostModel;
use simkern::rng::SimRng;
use simkern::Fnv1a;

/// Number of distinct probe classes the walker cycles through.
const N_PROBES: u64 = 10;

/// Walker knobs.
#[derive(Debug, Clone)]
pub struct WalkerConfig {
    /// Victim cVM region size (default 64 KiB).
    pub victim_mem: u64,
    /// Attacker cVM region size (default 64 KiB).
    pub attacker_mem: u64,
    /// Probes per campaign round (default 2).
    pub probes_per_round: u32,
}

impl Default for WalkerConfig {
    fn default() -> Self {
        WalkerConfig {
            victim_mem: 64 * 1024,
            attacker_mem: 64 * 1024,
            probes_per_round: 2,
        }
    }
}

/// Walker accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalkerReport {
    /// Probes attempted.
    pub probes: u64,
    /// Probes that raised exactly the predicted fault class.
    pub faults_expected: u64,
    /// Probes whose outcome differed from the prediction (must be 0).
    pub mismatches: u64,
    /// Probes after which the victim's memory had changed (must be 0).
    pub corruptions: u64,
    /// Faults the Intravisor logged against the attacker cVM.
    pub logged_faults: u64,
}

/// The attacker driving probes into its own private [`Intravisor`].
///
/// The walker owns the whole machine — it never touches the network
/// node's arena, so campaigns compose with any workload without
/// perturbing its memory or its digests.
#[derive(Debug)]
pub struct CapabilityWalker {
    iv: Intravisor,
    victim: CvmId,
    attacker: CvmId,
    /// The victim's telemetry buffer: address and pristine contents.
    victim_buf: Capability,
    victim_snapshot: Vec<u8>,
    /// An attacker-owned buffer for the self-inflicted probes.
    own_buf: Capability,
    /// Granule-aligned slot inside `own_buf` holding a stored capability.
    cap_slot: u64,
    probes_per_round: u32,
    rng: SimRng,
    report: WalkerReport,
}

impl CapabilityWalker {
    /// Boots the machine: victim cVM seeded with encoded MAVLink
    /// telemetry, attacker cVM with a scratch buffer and one legitimately
    /// stored capability (the forgery probes need a granule to clobber).
    pub fn new(cfg: WalkerConfig, seed: u64) -> Self {
        let mut iv = Intravisor::new(
            (256 * 1024) + cfg.victim_mem + cfg.attacker_mem,
            CostModel::morello(),
        );
        let victim = iv
            .create_cvm(CvmConfig::new("mavsim-victim").mem_size(cfg.victim_mem))
            .expect("victim cVM");
        let attacker = iv
            .create_cvm(CvmConfig::new("attacker").mem_size(cfg.attacker_mem))
            .expect("attacker cVM");

        // The victim's live state: a ring of encoded MAVLink frames, the
        // data a ground station would be holding mid-flight.
        let mut telemetry = Vec::new();
        for seq in 0..8u8 {
            let hb = Message::Heartbeat(Heartbeat {
                mode: MavMode::Auto,
                battery_pct: 100 - seq,
                armed: true,
            });
            telemetry.extend_from_slice(&MavFrame::encode(seq, 1, 1, &hb));
        }
        let victim_buf = iv
            .cvm_alloc(victim, telemetry.len() as u64, CAP_GRANULE)
            .expect("victim buffer");
        iv.cvm_store(victim, victim_buf.base(), &telemetry)
            .expect("seed victim telemetry");

        // Attacker scratch: 256 bytes, with a real capability stored at a
        // granule-aligned slot inside it.
        let own_buf = iv
            .cvm_alloc(attacker, 256, CAP_GRANULE)
            .expect("attacker buffer");
        let cap_slot = own_buf.base();
        let stored = own_buf
            .try_restrict(own_buf.base() + 64, 64)
            .expect("derive stored cap");
        let attacker_ddc = *iv.cvm(attacker).ctx().ddc();
        iv.memory_mut()
            .store_cap(&attacker_ddc, cap_slot, stored)
            .expect("store attacker cap");

        CapabilityWalker {
            iv,
            victim,
            attacker,
            victim_buf,
            victim_snapshot: telemetry,
            own_buf,
            cap_slot,
            probes_per_round: cfg.probes_per_round,
            rng: SimRng::seed_from_u64(seed),
            report: WalkerReport::default(),
        }
    }

    /// Runs one round of probes, folding each verdict into `digest`.
    pub fn round(&mut self, digest: &mut Fnv1a) {
        for _ in 0..self.probes_per_round {
            let class = self.rng.below(N_PROBES);
            let (expected, actual) = self.probe(class);
            self.report.probes += 1;
            digest.fold_u64(class);
            digest.fold_u64(kind_code(actual));
            if actual == Some(expected) {
                self.report.faults_expected += 1;
            } else {
                self.report.mismatches += 1;
            }
            if !self.victim_intact() {
                self.report.corruptions += 1;
            }
        }
        self.report.logged_faults = self
            .iv
            .fault_log()
            .iter()
            .filter(|(id, _)| *id == self.attacker)
            .count() as u64;
    }

    /// Accounting so far.
    pub fn report(&self) -> WalkerReport {
        self.report.clone()
    }

    /// The victim's telemetry, read back through the victim's own DDC,
    /// compared against the pristine snapshot.
    fn victim_intact(&mut self) -> bool {
        match self.iv.cvm_load(
            self.victim,
            self.victim_buf.base(),
            self.victim_snapshot.len() as u64,
        ) {
            Ok(bytes) => bytes == self.victim_snapshot,
            Err(_) => false,
        }
    }

    /// One probe: returns the predicted fault class and what actually
    /// happened (`None` = the operation unexpectedly succeeded).
    fn probe(&mut self, class: u64) -> (FaultKind, Option<FaultKind>) {
        let victim_base = self.victim_buf.base();
        let attacker_ddc = *self.iv.cvm(self.attacker).ctx().ddc();
        match class {
            // Out-of-bounds load: reach into the victim's region through
            // the attacker's DDC — the paper's Fig. 3 exception.
            0 => {
                let off = self.rng.below(self.victim_snapshot.len() as u64);
                let r = self.iv.cvm_load(self.attacker, victim_base + off, 16);
                (FaultKind::Bounds, r.err().map(|f| f.kind()))
            }
            // Out-of-bounds store at the victim's telemetry.
            1 => {
                let off = self.rng.below(self.victim_snapshot.len() as u64);
                let r = self
                    .iv
                    .cvm_store(self.attacker, victim_base + off, &[0xAA; 8]);
                (FaultKind::Bounds, r.err().map(|f| f.kind()))
            }
            // Tag-cleared dereference: hardware killed the pointer, use
            // it anyway.
            2 => {
                let dead = attacker_ddc.without_tag();
                let r = self.iv.memory_mut().read_vec(&dead, self.own_buf.base(), 8);
                (FaultKind::Tag, r.err().map(|f| f.kind()))
            }
            // Sealed dereference: load through the compartment's sealed
            // entry capability.
            3 => {
                let entry = *self.iv.cvm(self.attacker).entry();
                let r = self.iv.memory_mut().read_vec(&entry, entry.base(), 4);
                (FaultKind::Seal, r.err().map(|f| f.kind()))
            }
            // Permission escalation: derive EXECUTE from a data-only DDC.
            4 => {
                let r = attacker_ddc.try_restrict_perms(Perms::data() | Perms::EXECUTE);
                (FaultKind::Monotonicity, r.err().map(|f| f.kind()))
            }
            // Bounds widening: grow the scratch buffer past its top.
            5 => {
                let grow = self.rng.range_inclusive(1, 4096);
                let r = self
                    .own_buf
                    .try_restrict(self.own_buf.base(), self.own_buf.len() + grow);
                (FaultKind::Monotonicity, r.err().map(|f| f.kind()))
            }
            // Confused deputy: pass a forged capability over the victim's
            // memory across the Intravisor boundary.
            6 => {
                let forged = Capability::root(victim_base, 64, Perms::data());
                let r = validate_boundary_cap(&attacker_ddc, &forged);
                (FaultKind::Monotonicity, r.err().map(|f| f.kind()))
            }
            // Boundary argument with a cleared tag.
            7 => {
                let arg = self.own_buf.without_tag();
                let r = validate_boundary_cap(&attacker_ddc, &arg);
                (FaultKind::Tag, r.err().map(|f| f.kind()))
            }
            // Capability forgery through byte writes: clobber the granule
            // holding the stored capability, then dereference the load.
            8 => {
                let junk = self.rng.next_u64();
                self.iv
                    .memory_mut()
                    .write(&attacker_ddc, self.cap_slot, &junk.to_le_bytes())
                    .expect("in-bounds byte write");
                let loaded = self
                    .iv
                    .memory_mut()
                    .load_cap(&attacker_ddc, self.cap_slot)
                    .expect("aligned in-bounds cap load");
                let r = self.iv.memory_mut().read_vec(&loaded, loaded.addr(), 1);
                // Restore the slot for the next iteration of this probe.
                let stored = self
                    .own_buf
                    .try_restrict(self.own_buf.base() + 64, 64)
                    .expect("re-derive stored cap");
                self.iv
                    .memory_mut()
                    .store_cap(&attacker_ddc, self.cap_slot, stored)
                    .expect("restore cap slot");
                (FaultKind::Tag, r.err().map(|f| f.kind()))
            }
            // Misaligned capability load.
            _ => {
                let r = self
                    .iv
                    .memory_mut()
                    .load_cap(&attacker_ddc, self.cap_slot + 1 + self.rng.below(14));
                (FaultKind::Alignment, r.err().map(|f| f.kind()))
            }
        }
    }
}

/// A stable small integer per fault class for the digest stream.
fn kind_code(k: Option<FaultKind>) -> u64 {
    match k {
        None => 0,
        Some(FaultKind::Tag) => 1,
        Some(FaultKind::Seal) => 2,
        Some(FaultKind::Bounds) => 3,
        Some(FaultKind::Monotonicity) => 4,
        Some(FaultKind::Alignment) => 5,
        Some(FaultKind::Type) => 6,
        Some(FaultKind::Representability) => 7,
        Some(_) => 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_class_faults_as_predicted() {
        let mut w = CapabilityWalker::new(WalkerConfig::default(), 11);
        let mut digest = Fnv1a::default();
        for class in 0..N_PROBES {
            for _ in 0..8 {
                let (expected, actual) = w.probe(class);
                assert_eq!(
                    actual,
                    Some(expected),
                    "probe class {class} must raise {expected:?}"
                );
                assert!(w.victim_intact(), "probe class {class} altered the victim");
            }
        }
        w.round(&mut digest);
        let r = w.report();
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.corruptions, 0);
        assert!(r.faults_expected > 0);
    }

    #[test]
    fn rounds_are_deterministic_in_the_seed() {
        let run = |seed| {
            let mut w = CapabilityWalker::new(WalkerConfig::default(), seed);
            let mut d = Fnv1a::default();
            for _ in 0..32 {
                w.round(&mut d);
            }
            (d.value(), w.report())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).0, run(4).0);
    }

    #[test]
    fn intravisor_logs_the_ddc_probes() {
        let mut w = CapabilityWalker::new(WalkerConfig::default(), 5);
        let mut d = Fnv1a::default();
        for _ in 0..64 {
            w.round(&mut d);
        }
        let r = w.report();
        // cvm_load/cvm_store probes are logged against the attacker.
        assert!(r.logged_faults > 0);
        assert_eq!(r.probes, 128);
    }
}
