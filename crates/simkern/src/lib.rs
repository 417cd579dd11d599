//! # simkern — discrete-event simulation kernel
//!
//! This crate is the timing substrate of the `capnet` reproduction of the
//! DATE 2025 paper *"Enabling Security on the Edge: A CHERI Compartmentalized
//! Network Stack"*. The paper evaluates on an Arm Morello board; we have no
//! CHERI silicon, so every nanosecond in this repository is **virtual**:
//! produced by the event engine in [`engine`], advanced by cost constants from
//! [`cost::CostModel`], and read back through the simulated
//! `clock_gettime(CLOCK_MONOTONIC_RAW)` of the `chos` crate.
//!
//! The kernel is deliberately small and generic:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — nanosecond virtual time.
//! * [`engine::Engine`] — a typed calendar-queue event loop (a two-level
//!   timing wheel), generic over a user-supplied world type `W`
//!   whose [`engine::World::Event`] enum is stored inline — the steady state
//!   of a simulation schedules without allocating.
//! * [`cost::CostModel`] — the Morello-calibrated cost constants (trampoline
//!   ≈ 125 ns, cross-cVM call, umtx block/wake, …) with one documented field
//!   per paper-reported overhead.
//! * [`resource::BusyResource`] and [`resource::FifoMutex`] — analytic models
//!   of serialized shared resources (the 82576's PCI bus, the Scenario 2
//!   F-Stack service mutex) that avoid continuation-passing by computing
//!   grant/release times in virtual time.
//! * [`rng::SimRng`] — a small deterministic PRNG for measurement jitter and
//!   workload randomness, so every experiment is reproducible from a seed.
//! * [`FxHasher`] — a non-SipHash hasher for the frame path's lookup maps.
//!
//! # Example
//!
//! ```
//! use simkern::engine::{Engine, World};
//! use simkern::time::{SimDuration, SimTime};
//!
//! struct Sim { ticks: u32 }
//! enum Ev { Tick }
//!
//! impl World for Sim {
//!     type Event = Ev;
//!     fn handle(&mut self, ev: Ev, eng: &mut Engine<Self>) {
//!         let Ev::Tick = ev;
//!         self.ticks += 1;
//!         if self.ticks < 2 {
//!             eng.schedule_in(SimDuration::from_micros(5), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! let mut world = Sim { ticks: 0 };
//! engine.schedule(SimTime::ZERO, Ev::Tick);
//! engine.run_until(&mut world, SimTime::from_millis(1));
//! assert_eq!(world.ticks, 2);
//! ```

#![forbid(unsafe_code)]

pub mod cost;
pub mod engine;
mod hash;
pub mod resource;
pub mod rng;
pub mod time;

pub use cost::CostModel;
pub use engine::Engine;
pub use hash::FxHasher;
pub use resource::{BusyResource, FifoMutex, LockGrant};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
