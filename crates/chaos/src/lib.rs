//! # capnet-chaos — seeded fault-injection campaigns
//!
//! The paper's security argument is that compartmentalization *contains*
//! faults: a compromised or misbehaving component raises a precise
//! capability exception instead of corrupting its neighbours. This crate
//! makes that argument executable as three deterministic injector
//! families, driven from inside the simulation like any other app:
//!
//! * [`malformed::MalformedFrameApp`] — a **wire-level adversary** that
//!   builds well-formed Ethernet/IP/TCP/UDP/ARP frames with the stack's
//!   own builders, then applies seeded mutations (length-field lies, bad
//!   checksums, truncated-header claims, ARP poisoning) and emits them
//!   through the normal transmit path. Every parser in `fstack`/`updk`
//!   must reject-and-count, never panic.
//! * [`tcpforge::TcpForgeApp`] — an **off-path TCP forger** spraying
//!   blind RSTs and SYNs (RFC 5961's threat model) at live victim
//!   4-tuples: teardown only on an exact sequence match, everything else
//!   a counted drop in the victim's `StackStats` forgery counters.
//! * [`walker::CapabilityWalker`] — a **compromised-compartment model**:
//!   an attacker cVM inside its own [`intravisor::Intravisor`] probes
//!   capability space around a MAVLink-victim cVM (out-of-bounds loads
//!   and stores, tag-cleared dereferences, sealed dereferences,
//!   permission and bounds escalations, forged boundary capabilities).
//!   Every probe must land as the *precise* expected
//!   [`cheri::FaultKind`], and none may alter the victim's memory.
//! * [`bitflip::BitFlipInjector`] — single-event upsets into a
//!   [`cheri::TaggedMemory`]'s data and tag bits, with
//!   [`cheri::FlipEffect`] accounting: strikes on tagged granules are
//!   detectable kills, tag storage never flips *to* valid.
//!
//! A campaign is one [`ChaosApp`] hosting any subset of the families.
//! Everything is a pure function of the seed: the per-round outcome
//! stream folds into an FNV-1a digest ([`ChaosReport::digest`]) that is
//! byte-identical at any worker count of the sharded engine.

#![forbid(unsafe_code)]

pub mod bitflip;
pub mod malformed;
pub mod tcpforge;
pub mod walker;

pub use bitflip::{BitFlipConfig, BitFlipInjector, BitFlipReport};
pub use malformed::{MalformedFrameApp, WireChaosConfig, WireChaosReport};
pub use tcpforge::{TcpForgeApp, TcpForgeConfig, TcpForgeReport};
pub use walker::{CapabilityWalker, WalkerConfig, WalkerReport};

use fstack::FStack;
use simkern::time::{SimDuration, SimTime};
use simkern::Fnv1a;
use std::net::Ipv4Addr;
use updk::nic::MacAddr;

/// What one [`ChaosApp::step`] did — the same shape the HTTP apps report,
/// so the engine charges isolation costs and schedules identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStepOutcome {
    /// `ff_*` calls issued (each wire injection is one).
    pub ff_calls: u32,
    /// Bytes pushed onto the wire.
    pub bytes: u64,
    /// The campaign has run all its rounds.
    pub finished: bool,
    /// Whether any injector made progress.
    pub progressed: bool,
}

/// Delay from a campaign's first step to its first round: lets ARP and
/// handshakes settle so the adversary hits a warm stack.
const WARM_UP: SimDuration = SimDuration::from_millis(1);

/// A campaign: which injector families run, and the pacing they share.
///
/// Defaults enable nothing — each family is opted in with its sub-config.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Gap between rounds (default 50 µs).
    pub period: SimDuration,
    /// Total rounds to run (default 200).
    pub rounds: u64,
    /// Wire-level adversary, if any.
    pub wire: Option<WireChaosConfig>,
    /// Off-path TCP forger (blind RST/SYN against live tuples), if any.
    pub forge: Option<TcpForgeConfig>,
    /// Compromised-compartment walker, if any.
    pub walker: Option<WalkerConfig>,
    /// Bit-flip injector, if any.
    pub bitflip: Option<BitFlipConfig>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            period: SimDuration::from_micros(50),
            rounds: 200,
            wire: None,
            forge: None,
            walker: None,
            bitflip: None,
        }
    }
}

/// What a finished (or in-flight) campaign observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// The app label.
    pub label: String,
    /// FNV-1a digest of the full outcome stream (frames emitted, probe
    /// verdicts, flip effects) — byte-identical at any worker count.
    pub digest: u64,
    /// Rounds completed.
    pub rounds: u64,
    /// Wire adversary accounting.
    pub wire: Option<WireChaosReport>,
    /// TCP-forgery accounting.
    pub forge: Option<TcpForgeReport>,
    /// Capability walker accounting.
    pub walker: Option<WalkerReport>,
    /// Bit-flip accounting.
    pub bitflip: Option<BitFlipReport>,
}

impl ChaosReport {
    /// Injected violations the architecture turned into a detectable
    /// event: capability probes that faulted as expected plus flips that
    /// killed (or were absorbed by) tagged storage.
    pub fn violations_detected(&self) -> u64 {
        self.walker.as_ref().map_or(0, |w| w.faults_expected)
            + self
                .bitflip
                .as_ref()
                .map_or(0, |b| b.caps_killed + b.absorbed)
    }

    /// Probes whose fault class differed from the prediction — must be 0.
    pub fn mismatches(&self) -> u64 {
        self.walker.as_ref().map_or(0, |w| w.mismatches)
    }

    /// Probes that altered another compartment's memory — must be 0.
    pub fn corruptions(&self) -> u64 {
        self.walker.as_ref().map_or(0, |w| w.corruptions)
    }
}

/// The campaign driver the engine hosts on a node, next to the iperf and
/// HTTP apps. Pacing, RNG streams and every injector are derived from the
/// installer-provided seed, so the outcome is a pure function of
/// `(config, seed, node identity)`.
#[derive(Debug)]
pub struct ChaosApp {
    label: String,
    cfg: ChaosConfig,
    wire: Option<MalformedFrameApp>,
    forge: Option<TcpForgeApp>,
    walker: Option<CapabilityWalker>,
    bitflip: Option<BitFlipInjector>,
    digest: Fnv1a,
    next_round: Option<SimTime>,
    rounds_done: u64,
    finished: bool,
}

impl ChaosApp {
    /// Builds the campaign. `src_mac`/`src_ip` identify the hosting node
    /// on the wire (the adversary's own L2/L3 address).
    pub fn new(
        label: impl Into<String>,
        cfg: ChaosConfig,
        seed: u64,
        src_mac: MacAddr,
        src_ip: Ipv4Addr,
    ) -> ChaosApp {
        let wire = cfg
            .wire
            .clone()
            .map(|w| MalformedFrameApp::new(w, seed ^ 0x5749_5245, src_mac, src_ip));
        let forge = cfg
            .forge
            .clone()
            .map(|f| TcpForgeApp::new(f, seed ^ 0x464F_5247, src_mac));
        let walker = cfg
            .walker
            .clone()
            .map(|w| CapabilityWalker::new(w, seed ^ 0x5741_4C4B));
        let bitflip = cfg
            .bitflip
            .clone()
            .map(|b| BitFlipInjector::new(b, seed ^ 0x464C_4950));
        ChaosApp {
            label: label.into(),
            cfg,
            wire,
            forge,
            walker,
            bitflip,
            digest: Fnv1a::default(),
            next_round: None,
            rounds_done: 0,
            finished: false,
        }
    }

    /// `true` once every round has run.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The instant the engine must wake this app, if any.
    pub fn next_deadline(&self, _now: SimTime) -> Option<SimTime> {
        if self.finished {
            return None;
        }
        // Not started: wake immediately so the first step can anchor the
        // round clock at the simulation's current instant.
        Some(self.next_round.unwrap_or(SimTime::ZERO))
    }

    /// The `ff_*` calls of a step with no round due: none — a campaign's
    /// calls all belong to its rounds.
    pub fn idle_calls(&self) -> u64 {
        0
    }

    /// Runs every due round: each fires one wire volley, one capability
    /// probe and one flip, per enabled family.
    pub fn step(&mut self, stack: &mut FStack, now: SimTime) -> ChaosStepOutcome {
        let mut out = ChaosStepOutcome::default();
        if self.finished {
            out.finished = true;
            return out;
        }
        let Some(mut next) = self.next_round else {
            // First step: anchor the campaign clock.
            self.next_round = Some(now + WARM_UP);
            out.progressed = true;
            return out;
        };
        while next <= now && !self.finished {
            if let Some(w) = &mut self.wire {
                w.round(stack, &mut self.digest, &mut out);
            }
            if let Some(f) = &mut self.forge {
                f.round(stack, &mut self.digest, &mut out);
            }
            if let Some(w) = &mut self.walker {
                w.round(&mut self.digest);
                out.progressed = true;
            }
            if let Some(b) = &mut self.bitflip {
                b.round(&mut self.digest);
                out.progressed = true;
            }
            self.rounds_done += 1;
            if self.rounds_done >= self.cfg.rounds {
                self.finished = true;
                out.finished = true;
            }
            next += self.cfg.period;
        }
        self.next_round = Some(next);
        out
    }

    /// The campaign's accounting so far.
    pub fn report(&self) -> ChaosReport {
        ChaosReport {
            label: self.label.clone(),
            digest: self.digest.value(),
            rounds: self.rounds_done,
            wire: self.wire.as_ref().map(MalformedFrameApp::report),
            forge: self.forge.as_ref().map(TcpForgeApp::report),
            walker: self.walker.as_ref().map(CapabilityWalker::report),
            bitflip: self.bitflip.as_ref().map(BitFlipInjector::report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstack::StackConfig;

    fn test_stack(ip: Ipv4Addr) -> FStack {
        FStack::new(StackConfig::new("chaos", MacAddr::local(9), ip))
    }

    fn full_config(rounds: u64) -> ChaosConfig {
        ChaosConfig {
            rounds,
            wire: Some(WireChaosConfig {
                target_ip: Ipv4Addr::new(10, 0, 0, 1),
                ..WireChaosConfig::default()
            }),
            walker: Some(WalkerConfig::default()),
            bitflip: Some(BitFlipConfig::default()),
            ..ChaosConfig::default()
        }
    }

    fn run_campaign(seed: u64) -> ChaosReport {
        let mut app = ChaosApp::new(
            "campaign",
            full_config(40),
            seed,
            MacAddr::local(9),
            Ipv4Addr::new(10, 0, 0, 9),
        );
        let mut stack = test_stack(Ipv4Addr::new(10, 0, 0, 9));
        let mut now = SimTime::ZERO;
        while !app.finished() {
            if let Some(d) = app.next_deadline(now) {
                now = now.max(d);
            }
            app.step(&mut stack, now);
        }
        app.report()
    }

    #[test]
    fn campaign_is_a_pure_function_of_the_seed() {
        let a = run_campaign(7);
        let b = run_campaign(7);
        assert_eq!(a, b);
        let c = run_campaign(8);
        assert_ne!(a.digest, c.digest, "different seeds must diverge");
    }

    #[test]
    fn campaign_contains_every_violation() {
        let r = run_campaign(21);
        assert_eq!(r.rounds, 40);
        assert_eq!(r.mismatches(), 0, "a probe missed its predicted fault");
        assert_eq!(r.corruptions(), 0, "a probe altered the victim");
        assert!(r.violations_detected() > 0);
        let w = r.wire.as_ref().unwrap();
        assert!(w.frames_emitted > 0);
    }

    #[test]
    fn report_helpers_default_to_zero_without_families() {
        let app = ChaosApp::new(
            "empty",
            ChaosConfig::default(),
            1,
            MacAddr::local(1),
            Ipv4Addr::new(10, 0, 0, 3),
        );
        let r = app.report();
        assert_eq!(r.violations_detected(), 0);
        assert_eq!(r.mismatches(), 0);
        assert_eq!(r.corruptions(), 0);
    }

    #[test]
    fn pacing_fires_rounds_on_the_period() {
        let mut app = ChaosApp::new(
            "paced",
            ChaosConfig {
                rounds: 3,
                bitflip: Some(BitFlipConfig::default()),
                ..ChaosConfig::default()
            },
            5,
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 4),
        );
        let mut stack = test_stack(Ipv4Addr::new(10, 0, 0, 4));
        // Unanchored app is due immediately; the first step only anchors.
        assert_eq!(app.next_deadline(SimTime::ZERO), Some(SimTime::ZERO));
        app.step(&mut stack, SimTime::ZERO);
        assert_eq!(app.report().rounds, 0);
        let start = SimTime::ZERO + SimDuration::from_millis(1);
        assert_eq!(app.next_deadline(SimTime::ZERO), Some(start));
        // Stepping past two periods runs the catch-up rounds in one call.
        let out = app.step(&mut stack, start + SimDuration::from_micros(50));
        assert!(out.progressed);
        assert_eq!(app.report().rounds, 2);
        app.step(&mut stack, start + SimDuration::from_micros(100));
        assert!(app.finished());
        assert_eq!(app.next_deadline(SimTime::ZERO), None);
    }
}
