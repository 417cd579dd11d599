//! Single-event-upset injection into tagged memory.
//!
//! The injector owns a private [`TaggedMemory`] arena (never the network
//! node's — campaigns must not perturb workload memory), populates it
//! with a data pattern and a population of legitimately stored
//! capabilities, then strikes seeded data bits and tag bits. Each strike
//! is classified by the architecture's [`FlipEffect`]:
//!
//! * a hit on a **tagged** granule kills the stored capability — a
//!   detectable, fail-stop outcome (the next load yields a dead
//!   capability that faults on use);
//! * a **data** hit on an untagged granule is silent corruption, the
//!   case CHERI does not claim to catch (payload checksums do);
//! * a **tag** hit on an untagged granule is absorbed: tag storage can
//!   never flip *to* valid, so no authority is ever minted.
//!
//! After every capability kill the injector verifies detection end to
//! end: the reloaded capability must be dead and dereferencing it must
//! raise [`cheri::FaultKind::Tag`].

use cheri::{FlipEffect, TaggedMemory, CAP_GRANULE};
use simkern::rng::SimRng;
use simkern::Fnv1a;

/// Bit-flip knobs.
#[derive(Debug, Clone)]
pub struct BitFlipConfig {
    /// Arena size in bytes (default 64 KiB).
    pub arena: u64,
    /// Capabilities stored across the arena (default 32).
    pub caps: u64,
    /// Flips per campaign round (default 4).
    pub flips_per_round: u32,
}

impl Default for BitFlipConfig {
    fn default() -> Self {
        BitFlipConfig {
            arena: 64 * 1024,
            caps: 32,
            flips_per_round: 4,
        }
    }
}

/// Bit-flip accounting: every strike lands in exactly one bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitFlipReport {
    /// Strikes injected.
    pub flips: u64,
    /// Strikes that killed a live capability (detectable).
    pub caps_killed: u64,
    /// Data strikes on untagged granules (silent corruption).
    pub silent_data: u64,
    /// Tag strikes on untagged granules (absorbed, no authority minted).
    pub absorbed: u64,
    /// Kills whose detection was verified end to end (dead reload +
    /// faulting dereference). Must equal `caps_killed`.
    pub kills_detected: u64,
}

/// The injector and its private arena.
#[derive(Debug)]
pub struct BitFlipInjector {
    mem: TaggedMemory,
    cfg: BitFlipConfig,
    /// Addresses of the granules seeded with capabilities.
    cap_addrs: Vec<u64>,
    rng: SimRng,
    report: BitFlipReport,
}

impl BitFlipInjector {
    /// Builds the arena: a byte pattern everywhere, `cfg.caps` stored
    /// capabilities spread over the first half.
    pub fn new(cfg: BitFlipConfig, seed: u64) -> Self {
        let mut mem = TaggedMemory::new(cfg.arena);
        let root = mem.root_cap();
        let pattern: Vec<u8> = (0..cfg.arena).map(|i| (i % 251) as u8).collect();
        mem.write(&root, 0, &pattern).expect("seed pattern");
        let mut cap_addrs = Vec::new();
        let stride = (cfg.arena / 2 / cfg.caps.max(1)) & !(CAP_GRANULE - 1);
        for i in 0..cfg.caps {
            let addr = i * stride.max(CAP_GRANULE);
            if addr + CAP_GRANULE > cfg.arena {
                break;
            }
            let value = root
                .try_restrict(cfg.arena / 2, CAP_GRANULE)
                .expect("derive stored cap");
            mem.store_cap(&root, addr, value).expect("seed cap");
            cap_addrs.push(addr);
        }
        BitFlipInjector {
            mem,
            cfg,
            cap_addrs,
            rng: SimRng::seed_from_u64(seed),
            report: BitFlipReport::default(),
        }
    }

    /// Runs one round of strikes, folding each effect into `digest`.
    pub fn round(&mut self, digest: &mut Fnv1a) {
        for _ in 0..self.cfg.flips_per_round {
            // Half the strikes aim at the capability population (tagged
            // granules), half anywhere — so both detectable and silent
            // outcomes occur in every campaign.
            let aim_cap = self.rng.chance_per_mille(500) && !self.cap_addrs.is_empty();
            let addr = if aim_cap {
                let slot = self.rng.below(self.cap_addrs.len() as u64) as usize;
                self.cap_addrs[slot] + self.rng.below(CAP_GRANULE)
            } else {
                self.rng.below(self.mem.size())
            };
            let tag_strike = self.rng.chance_per_mille(300);
            let effect = if tag_strike {
                self.mem.flip_tag_bit(addr)
            } else {
                let bit = self.rng.below(8) as u8;
                self.mem.flip_data_bit(addr, bit)
            };
            self.report.flips += 1;
            match effect {
                FlipEffect::CapabilityKilled => {
                    self.report.caps_killed += 1;
                    if self.kill_is_detected(addr) {
                        self.report.kills_detected += 1;
                    }
                    // Re-arm the granule so later strikes can kill again.
                    self.rearm(addr);
                }
                FlipEffect::SilentData => self.report.silent_data += 1,
                FlipEffect::Absorbed => self.report.absorbed += 1,
            }
            digest.fold_u64(addr);
            digest.fold_u64(match effect {
                FlipEffect::CapabilityKilled => 1,
                FlipEffect::SilentData => 2,
                FlipEffect::Absorbed => 3,
            });
        }
    }

    /// Accounting so far.
    pub fn report(&self) -> BitFlipReport {
        self.report.clone()
    }

    /// End-to-end detection check: the struck granule must reload as a
    /// dead capability, and dereferencing it must raise a tag fault.
    fn kill_is_detected(&mut self, addr: u64) -> bool {
        let granule = (addr / CAP_GRANULE) * CAP_GRANULE;
        let root = self.mem.root_cap();
        match self.mem.load_cap(&root, granule) {
            Ok(loaded) => {
                !loaded.tag()
                    && self
                        .mem
                        .read_vec(&loaded, loaded.addr(), 1)
                        .err()
                        .is_some_and(|f| f.kind() == cheri::FaultKind::Tag)
            }
            Err(_) => false,
        }
    }

    /// Restores a stored capability (and the pattern byte a data strike
    /// may have corrupted) at the struck granule, if it is one of the
    /// seeded slots.
    fn rearm(&mut self, addr: u64) {
        let granule = (addr / CAP_GRANULE) * CAP_GRANULE;
        if !self.cap_addrs.contains(&granule) {
            return;
        }
        let root = self.mem.root_cap();
        let value = root
            .try_restrict(self.cfg.arena / 2, CAP_GRANULE)
            .expect("re-derive stored cap");
        self.mem
            .store_cap(&root, granule, value)
            .expect("re-arm cap slot");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kill_is_detected_and_tags_never_mint() {
        let mut b = BitFlipInjector::new(BitFlipConfig::default(), 9);
        let mut d = Fnv1a::default();
        for _ in 0..256 {
            b.round(&mut d);
        }
        let r = b.report();
        assert_eq!(r.flips, 1024);
        assert_eq!(
            r.caps_killed + r.silent_data + r.absorbed,
            r.flips,
            "every strike lands in exactly one bucket"
        );
        assert!(r.caps_killed > 0, "campaign must hit tagged granules");
        assert!(r.silent_data > 0, "campaign must hit plain data too");
        assert!(r.absorbed > 0, "tag strikes on untagged granules occur");
        assert_eq!(
            r.kills_detected, r.caps_killed,
            "every kill must be detectable end to end"
        );
    }

    #[test]
    fn rounds_are_deterministic_in_the_seed() {
        let run = |seed| {
            let mut b = BitFlipInjector::new(BitFlipConfig::default(), seed);
            let mut d = Fnv1a::default();
            for _ in 0..64 {
                b.round(&mut d);
            }
            (d.value(), b.report())
        };
        assert_eq!(run(2), run(2));
        assert_ne!(run(2).0, run(5).0);
    }
}
