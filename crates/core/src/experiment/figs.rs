//! Figs. 4–6 — `ff_write()` execution time across isolation designs.
//!
//! The paper's protocol (§IV): wrap each `ff_write` in
//! `clock_gettime(CLOCK_MONOTONIC_RAW)` reads, run 1 M iterations on a live
//! connection, remove IQR outliers (≈ 10 %), present box plots. Crucially,
//! "in cVMs we can't directly access the timers of the system, the
//! execution time always includes a cross-compartment jump to the
//! Intravisor, the execution of the syscall in CheriBSD, and the return" —
//! the clock path differs per scenario, and that is where Fig. 4's ≈ 125 ns
//! comes from.
//!
//! Each sample is composed on the virtual clock from four parts. The two
//! clock reads go through the scenario's path: a native
//! `chos::syscall::Kernel` for MMU processes, or a trampoline from the
//! app's cVM into a booted [`Intravisor`] (one cVM per domain of the
//! scenario's [`Layout`]). Between them come the `ff_write` work (fixed +
//! per-byte copy + heavy-tail jitter from the calibrated cost model) and,
//! when the layout puts the app outside F-Stack's domain, one sealed
//! crossing per domain change plus the service mutex with its background
//! contenders (the F-Stack main loop, and when two apps share the service,
//! the second app). The connection's data path is not run here: Table II
//! runs it.

use crate::scenario::{Component, Layout, ScenarioKind};
use crate::stats::{iqr_filter, Summary};
use crate::CapnetError;
use chos::clock::ClockId;
use chos::syscall::{Kernel, Syscall};
use intravisor::{CvmConfig, CvmId, Intravisor, ServiceId};
use simkern::cost::CostModel;
use simkern::resource::FifoMutex;
use simkern::rng::SimRng;
use simkern::time::{SimDuration, SimTime};
use std::fmt;

/// The measured distribution for one scenario.
#[derive(Debug, Clone)]
pub struct FfWriteRun {
    /// Which design was measured.
    pub scenario: ScenarioKind,
    /// Iterations executed.
    pub iterations: usize,
    /// Box-plot summary after IQR outlier removal.
    pub summary: Summary,
    /// Fraction the IQR filter removed (paper: ≈ 10 %).
    pub removed_fraction: f64,
}

impl fmt::Display for FfWriteRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = &self.summary;
        write!(
            f,
            "{:<34} mean={:>8.1}ns std={:>7.1}ns q1={:>7} med={:>7} q3={:>7} (n={}, {:.1}% outliers removed)",
            self.scenario,
            s.mean,
            s.std,
            s.q1,
            s.median,
            s.q3,
            s.n,
            self.removed_fraction * 100.0
        )
    }
}

/// Payload per `ff_write` — one MSS, as the bulk path uses.
const WRITE_BYTES: u64 = 1448;

/// Background mutex contenders: the F-Stack loop, and a second app.
struct Background {
    next_loop: SimTime,
    loop_hold_ns: u64,
    loop_gap_ns: u64,
    next_app: Option<SimTime>,
    app_hold_ns: u64,
    app_gap_ns: u64,
    rng: SimRng,
}

impl Background {
    /// Replays every background acquisition requested before `until`.
    /// Gaps and holds are jittered (real loop iterations vary with the
    /// frames they process), which is what gives Fig. 6's contended box
    /// its visible spread.
    fn replay(&mut self, mutex: &mut FifoMutex, until: SimTime) {
        loop {
            let app_t = self.next_app.unwrap_or(SimTime::MAX);
            let (t, is_loop) = if self.next_loop <= app_t {
                (self.next_loop, true)
            } else {
                (app_t, false)
            };
            if t >= until {
                break;
            }
            let jitter = |rng: &mut SimRng, base: u64| -> u64 {
                if base == 0 {
                    0
                } else {
                    rng.range_inclusive(base / 2, base + base / 2)
                }
            };
            let hold = if is_loop {
                jitter(&mut self.rng, self.loop_hold_ns)
            } else {
                jitter(&mut self.rng, self.app_hold_ns)
            };
            let g = mutex.acquire(t, SimDuration::from_nanos(hold));
            if is_loop {
                let gap = jitter(&mut self.rng, self.loop_gap_ns);
                self.next_loop = g.released_at + SimDuration::from_nanos(gap);
            } else {
                let gap = jitter(&mut self.rng, self.app_gap_ns);
                self.next_app = Some(g.released_at + SimDuration::from_nanos(gap));
            }
        }
    }
}

/// Where the app's `clock_gettime` goes.
enum ClockPath {
    /// MMU processes: straight into the kernel.
    Native(Box<Kernel>),
    /// cVMs: from the app's cVM through the Intravisor's trampoline.
    Cvm(Box<Intravisor>, CvmId),
}

/// Everything the measurement loop needs, per scenario.
struct Rig {
    clock: ClockPath,
    /// The F-Stack service, its mutex and that mutex's other contenders,
    /// present when the app calls F-Stack across a domain boundary.
    service: Option<(ServiceId, FifoMutex, Background)>,
    costs: CostModel,
    rng: SimRng,
    /// Inter-iteration gap (enlarged for one app behind a service).
    gap: SimDuration,
}

/// The cVM that hosts a domain, named after the domain's first component.
fn cvm_config(lead: Component) -> CvmConfig {
    let (name, kib) = match lead {
        Component::App => ("iperf-app", 64),
        Component::App2 => ("iperf-app-2", 64),
        Component::FStack => ("fstack-svc", 128),
        Component::Dpdk => ("updk-svc", 128),
        Component::NicProxy => ("nic-proxy", 64),
    };
    CvmConfig::new(name).mem_size(kib * 1024)
}

impl Rig {
    fn build(layout: &Layout, costs: CostModel, seed: u64) -> Result<Rig, CapnetError> {
        let (clock, service_id) = if layout.cheri {
            // One cVM per domain, in the layout's order.
            let mut iv = Intravisor::new(1 << 21, costs.clone());
            let cvms = layout
                .domains
                .iter()
                .map(|domain| iv.create_cvm(cvm_config(domain[0])))
                .collect::<Result<Vec<_>, _>>()?;
            let cvm_of = |c: Component| layout.domain_of(c).map(|d| cvms[d]);
            let (Some(app), Some(fstack)) = (cvm_of(Component::App), cvm_of(Component::FStack))
            else {
                return Err(CapnetError::Config(format!(
                    "{}: no cVM hosts the app or F-Stack",
                    layout.label
                )));
            };
            // The service, when `ff_*` calls leave the app's domain.
            let service_id = if layout.crossings() == 0 {
                None
            } else {
                Some(iv.register_service(fstack, "ff-api")?)
            };
            (ClockPath::Cvm(Box::new(iv), app), service_id)
        } else {
            (
                ClockPath::Native(Box::new(Kernel::new(costs.clone()))),
                None,
            )
        };

        let (service, gap) = match service_id {
            None => (None, SimDuration::from_micros(2)),
            // The loop is saturated serving two flows and the second app
            // writes back-to-back: long holds, short gaps.
            Some(id) if layout.apps() > 1 => {
                let contended = Background {
                    next_loop: SimTime::ZERO,
                    loop_hold_ns: costs.s2_loop_hold_ns,
                    loop_gap_ns: 900,
                    next_app: Some(SimTime::from_nanos(300)),
                    app_hold_ns: costs.ff_write_fixed_ns + costs.copy_cost(WRITE_BYTES).as_nanos(),
                    app_gap_ns: 2_600,
                    rng: SimRng::seed_from_u64(seed ^ 0xB7),
                };
                let service = (id, FifoMutex::new(&costs), contended);
                (Some(service), SimDuration::from_micros(2))
            }
            // The service loop is nearly idle: brief lock holds, long
            // period — and the measured app enlarges its inter-write gap,
            // per the paper's protocol.
            Some(id) => {
                let idle = Background {
                    next_loop: SimTime::ZERO,
                    loop_hold_ns: 150,
                    loop_gap_ns: 20_000,
                    next_app: None,
                    app_hold_ns: 0,
                    app_gap_ns: 0,
                    rng: SimRng::seed_from_u64(seed ^ 0xB6),
                };
                let service = (id, FifoMutex::new(&costs), idle);
                (Some(service), SimDuration::from_micros(30))
            }
        };

        Ok(Rig {
            clock,
            service,
            costs,
            rng: SimRng::seed_from_u64(seed),
            gap,
        })
    }

    /// One `clock_gettime` through the scenario's path:
    /// returns `(reading, completion_instant)`.
    fn clock(&mut self, now: SimTime) -> Result<(SimTime, SimTime), CapnetError> {
        match &mut self.clock {
            ClockPath::Cvm(iv, app) => Ok(iv.cvm_clock_gettime(*app, now)),
            ClockPath::Native(kernel) => {
                let out = kernel.syscall(now, Syscall::ClockGettime(ClockId::MonotonicRaw));
                Ok((SimTime::from_nanos(out.result?), out.completed_at))
            }
        }
    }

    /// The CPU work of `ff_write` itself (fixed + copy + occasional jitter).
    fn ff_work(&mut self) -> SimDuration {
        let mut ns = self.costs.ff_write_fixed_ns + self.costs.copy_cost(WRITE_BYTES).as_nanos();
        if self.rng.chance_per_mille(self.costs.jitter_per_mille) {
            ns += self.rng.heavy_tail_ns(self.costs.jitter_ns);
        }
        SimDuration::from_nanos(ns)
    }
}

/// Measures the `ff_write` distribution for `scenario`.
///
/// # Errors
///
/// [`CapnetError::Config`] for zero iterations (a box plot of nothing);
/// otherwise propagates failures to boot the scenario's cVMs or to read
/// its clock.
pub fn measure(
    scenario: ScenarioKind,
    iterations: usize,
    costs: CostModel,
    seed: u64,
) -> Result<FfWriteRun, CapnetError> {
    if iterations == 0 {
        return Err(CapnetError::Config(format!(
            "{scenario}: zero ff_write iterations"
        )));
    }
    let layout = scenario.layout();
    // Sealed hand-offs past the app → F-Stack entry; the payload rides
    // SPSC rings through them before `ff_write` can return.
    let inner = SimDuration::from_nanos(costs.xcall_ns * layout.crossings().saturating_sub(1));
    let mut rig = Rig::build(layout, costs, seed)?;
    let mut samples = Vec::with_capacity(iterations);
    let mut now = SimTime::from_millis(10);

    for _ in 0..iterations {
        // t0 = clock_gettime(...)
        let (reading0, t) = rig.clock(now)?;

        // ff_write(fd, buf, nbytes): a local call, or a crossing into the
        // service and its mutex.
        let work = rig.ff_work();
        let t_done = match (&mut rig.clock, rig.service.as_mut()) {
            (ClockPath::Cvm(iv, app), Some((svc, mutex, background))) => {
                let grant = iv.xcall(*app, *svc, t)?;
                background.replay(mutex, grant.entered_at);
                let g = mutex.acquire(grant.entered_at, work);
                // Return crossing mirrors the entry crossing.
                g.released_at + inner + grant.crossing
            }
            _ => t + work,
        };

        // t1 = clock_gettime(...)
        let (reading1, t_after) = rig.clock(t_done)?;
        samples.push(reading1.saturating_duration_since(reading0).as_nanos());
        now = t_after + rig.gap;
    }

    let filtered = iqr_filter(&samples);
    Ok(FfWriteRun {
        scenario,
        iterations,
        summary: Summary::of(&filtered.kept),
        removed_fraction: filtered.removed_fraction(),
    })
}

/// Measures each of `kinds` in order, with a shared iteration count and
/// seed.
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn run_scenarios(
    kinds: &[ScenarioKind],
    iterations: usize,
    costs: CostModel,
    seed: u64,
) -> Result<Vec<FfWriteRun>, CapnetError> {
    kinds
        .iter()
        .map(|&kind| measure(kind, iterations, costs.clone(), seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rig boots one cVM per domain of the layout, in the layout's
    /// order, and registers the F-Stack service only when `ff_*` calls
    /// cross into it; MMU-process layouts boot none.
    #[test]
    fn the_rig_boots_one_cvm_per_domain() {
        use ScenarioKind::*;
        let expected: [(ScenarioKind, &[&str]); 7] = [
            (BaselineTwoProcess, &[]),
            (Scenario1, &["iperf-app"]),
            (BaselineSingleProcess, &[]),
            (Scenario2Uncontended, &["iperf-app", "fstack-svc"]),
            (
                Scenario2Contended,
                &["iperf-app", "fstack-svc", "iperf-app-2"],
            ),
            (Scenario3, &["iperf-app", "fstack-svc", "updk-svc"]),
            (
                Scenario4,
                &["iperf-app", "fstack-svc", "updk-svc", "nic-proxy"],
            ),
        ];
        for (kind, names) in expected {
            let layout = kind.layout();
            let rig = Rig::build(layout, CostModel::morello(), 1).unwrap();
            assert_eq!(rig.service.is_some(), layout.crossings() > 0, "{kind}");
            let booted: Vec<&str> = match &rig.clock {
                ClockPath::Cvm(iv, _) => iv.cvms().iter().map(|c| c.name()).collect(),
                ClockPath::Native(_) => Vec::new(),
            };
            assert_eq!(
                matches!(rig.clock, ClockPath::Cvm(..)),
                layout.cheri,
                "{kind}"
            );
            assert_eq!(booted, names, "{kind}");
        }
    }

    /// An empty sample is a configuration error, not a panic.
    #[test]
    fn zero_iterations_is_a_config_error() {
        for kind in ScenarioKind::all() {
            let err = measure(kind, 0, CostModel::morello(), 1).unwrap_err();
            assert!(matches!(err, CapnetError::Config(_)), "{kind}: {err}");
        }
    }
}
