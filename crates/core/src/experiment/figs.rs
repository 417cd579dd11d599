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
//! This harness runs a *real* connection between two [`fstack::FStack`]
//! instances (segments built, checksummed, delivered; the receiver drains),
//! while the *timing* of each call is composed on the virtual clock from
//! the calibrated cost model: trampolined or native `clock_gettime`,
//! `ff_write` work (fixed + per-byte copy + heavy-tail jitter), and, when
//! the scenario's [`Layout`] puts the app outside F-Stack's domain, one
//! sealed crossing per domain change plus the service mutex with its
//! background contenders (the F-Stack main loop, and when two apps share
//! the service, the second app).

use crate::scenario::{Component, Layout, ScenarioKind};
use crate::stats::{iqr_filter, Summary};
use crate::CapnetError;
use cheri::{Capability, Perms, TaggedMemory};
use chos::clock::ClockId;
use chos::syscall::{Kernel, Syscall};
use fstack::loop_::ServiceMutex;
use fstack::socket::SockType;
use fstack::{FStack, StackConfig};
use intravisor::{CvmConfig, CvmId, Intravisor, ServiceId};
use simkern::cost::CostModel;
use simkern::rng::SimRng;
use simkern::time::{SimDuration, SimTime};
use std::fmt;
use std::net::Ipv4Addr;
use updk::nic::MacAddr;

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
    fn replay(&mut self, mutex: &mut ServiceMutex, until: SimTime) {
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

/// Everything the measurement loop needs, per scenario.
struct Rig {
    mem: TaggedMemory,
    /// Present when the layout's domains are cVMs; carries kernel + cVMs.
    iv: Option<Intravisor>,
    /// Present when they are MMU processes; the direct kernel.
    kernel: Option<Kernel>,
    app_cvm: Option<CvmId>,
    /// The F-Stack service, its mutex and that mutex's other contenders,
    /// present when the app calls F-Stack across a domain boundary.
    service: Option<(ServiceId, ServiceMutex, Background)>,
    sender: FStack,
    receiver: FStack,
    send_fd: chos::fdtable::Fd,
    recv_fd: chos::fdtable::Fd,
    payload: Capability,
    recv_buf: Capability,
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

/// Boots one cVM per domain of `layout`, in the layout's order.
fn boot(layout: &Layout, costs: &CostModel) -> Result<(Intravisor, Vec<CvmId>), CapnetError> {
    let mut iv = Intravisor::new(1 << 21, costs.clone());
    let cvms = layout
        .domains
        .iter()
        .map(|domain| iv.create_cvm(cvm_config(domain[0])))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((iv, cvms))
}

impl Rig {
    fn build(layout: &Layout, costs: CostModel, seed: u64) -> Result<Rig, CapnetError> {
        let mut mem = TaggedMemory::new(1 << 21);
        let (mut iv, kernel, cvms) = if layout.cheri {
            let (iv, cvms) = boot(layout, &costs)?;
            (Some(iv), None, cvms)
        } else {
            (None, Some(Kernel::new(costs.clone())), Vec::new())
        };
        let domain_cvm = |c: Component| layout.domain_of(c).and_then(|d| cvms.get(d).copied());
        let app_cvm = domain_cvm(Component::App);
        // NOTE: the stacks live in `mem` (the network data plane); the
        // Intravisor's own memory holds the cVM control plane. On the real
        // system both are one address space; splitting them here only
        // affects which arena the capability checks index.
        let (payload, recv_buf) = if let (Some(iv), Some(app)) = (iv.as_mut(), app_cvm) {
            // App-owned buffers: capabilities bounded to the app cVM region.
            let p = iv.cvm_alloc(app, WRITE_BYTES, 16)?;
            let r = iv.cvm_alloc(app, WRITE_BYTES, 16)?;
            // The data plane copies happen in `mem`; mirror the buffers
            // there at the same addresses so the capability bounds apply.
            (
                mem.root_cap()
                    .try_restrict(p.base(), p.len())?
                    .try_restrict_perms(Perms::data())?,
                mem.root_cap()
                    .try_restrict(r.base(), r.len())?
                    .try_restrict_perms(Perms::data())?,
            )
        } else {
            let p = mem
                .root_cap()
                .try_restrict(0x1000, WRITE_BYTES)?
                .try_restrict_perms(Perms::data())?;
            let r = mem
                .root_cap()
                .try_restrict(0x2000, WRITE_BYTES)?
                .try_restrict_perms(Perms::data())?;
            (p, r)
        };
        mem.fill(&payload, payload.base(), WRITE_BYTES, 0x5A)?;

        // Two stacks, statically ARP'd, connected through direct frame
        // exchange (the NIC path is exercised by the Table II experiments;
        // here the network must simply be live and draining).
        let a_mac = MacAddr::local(21);
        let b_mac = MacAddr::local(22);
        let a_ip = Ipv4Addr::new(10, 9, 0, 1);
        let b_ip = Ipv4Addr::new(10, 9, 0, 2);
        let mut sender = FStack::new(StackConfig::new("app", a_mac, a_ip));
        let mut receiver = FStack::new(StackConfig::new("peer", b_mac, b_ip));
        sender.arp_cache_mut().insert_static(b_ip, b_mac);
        receiver.arp_cache_mut().insert_static(a_ip, a_mac);

        let lfd = receiver.ff_socket(SockType::Stream)?;
        receiver.ff_bind(lfd, 5201)?;
        receiver.ff_listen(lfd, 4)?;
        let send_fd = sender.ff_socket(SockType::Stream)?;
        sender.ff_connect(send_fd, (b_ip, 5201), SimTime::ZERO)?;
        // Pump the handshake.
        let mut now = SimTime::from_micros(1);
        for _ in 0..16 {
            for f in sender.poll_tx(now) {
                receiver.input_buf(now, &f);
            }
            for f in receiver.poll_tx(now) {
                sender.input_buf(now, &f);
            }
            now += SimDuration::from_micros(20);
        }
        let recv_fd = receiver.ff_accept(lfd)?;

        // The service, when `ff_*` calls leave the app's domain.
        let (service, gap) = if layout.crossings() == 0 {
            (None, SimDuration::from_micros(2))
        } else {
            let svc_cvm = domain_cvm(Component::FStack).expect("a split layout boots cVMs");
            let iv = iv.as_mut().expect("a split layout boots cVMs");
            let id = iv.register_service(svc_cvm, "ff-api")?;
            let (background, gap) = if layout.apps() > 1 {
                // The loop is saturated serving two flows and the second
                // app writes back-to-back: long holds, short gaps.
                let contended = Background {
                    next_loop: SimTime::ZERO,
                    loop_hold_ns: costs.s2_loop_hold_ns,
                    loop_gap_ns: 900,
                    next_app: Some(SimTime::from_nanos(300)),
                    app_hold_ns: costs.ff_write_fixed_ns + costs.copy_cost(WRITE_BYTES).as_nanos(),
                    app_gap_ns: 2_600,
                    rng: SimRng::seed_from_u64(seed ^ 0xB7),
                };
                (contended, SimDuration::from_micros(2))
            } else {
                // The service loop is nearly idle: brief lock holds, long
                // period — and the measured app enlarges its inter-write
                // gap, per the paper's protocol.
                let idle = Background {
                    next_loop: SimTime::ZERO,
                    loop_hold_ns: 150,
                    loop_gap_ns: 20_000,
                    next_app: None,
                    app_hold_ns: 0,
                    app_gap_ns: 0,
                    rng: SimRng::seed_from_u64(seed ^ 0xB6),
                };
                (idle, SimDuration::from_micros(30))
            };
            (Some((id, ServiceMutex::new(&costs), background)), gap)
        };

        Ok(Rig {
            mem,
            iv,
            kernel,
            app_cvm,
            service,
            sender,
            receiver,
            send_fd,
            recv_fd,
            payload,
            recv_buf,
            costs,
            rng: SimRng::seed_from_u64(seed),
            gap,
        })
    }

    /// One `clock_gettime` through the scenario's path:
    /// returns `(reading, completion_instant)`.
    fn clock(&mut self, now: SimTime) -> (SimTime, SimTime) {
        if let (Some(iv), Some(app)) = (self.iv.as_mut(), self.app_cvm) {
            iv.cvm_clock_gettime(app, now)
        } else {
            let k = self.kernel.as_mut().expect("baseline kernel");
            let out = k.syscall(now, Syscall::ClockGettime(ClockId::MonotonicRaw));
            (
                SimTime::from_nanos(out.result.expect("clock_gettime succeeds")),
                out.completed_at,
            )
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

    /// Drains the connection so the send buffer never fills (the receiver
    /// runs on another core / cVM; its time is not part of the sample).
    fn drain(&mut self, now: SimTime) {
        for _ in 0..4 {
            let mut moved = false;
            for f in self.sender.poll_tx(now) {
                moved = true;
                self.receiver.input_buf(now, &f);
            }
            loop {
                match self.receiver.ff_read(
                    &mut self.mem,
                    self.recv_fd,
                    &self.recv_buf,
                    WRITE_BYTES,
                ) {
                    Ok(n) if n > 0 => moved = true,
                    _ => break,
                }
            }
            for f in self.receiver.poll_tx(now) {
                moved = true;
                self.sender.input_buf(now, &f);
            }
            if !moved {
                break;
            }
        }
    }
}

/// Measures the `ff_write` distribution for `scenario`.
///
/// # Errors
///
/// Propagates configuration failures; measurement itself is infallible.
pub fn measure(
    scenario: ScenarioKind,
    iterations: usize,
    costs: CostModel,
    seed: u64,
) -> Result<FfWriteRun, CapnetError> {
    let layout = scenario.layout();
    // Sealed hand-offs past the app → F-Stack entry; the payload rides
    // SPSC rings through them before `ff_write` can return.
    let inner = SimDuration::from_nanos(costs.xcall_ns * layout.crossings().saturating_sub(1));
    let mut rig = Rig::build(layout, costs, seed)?;
    let mut samples = Vec::with_capacity(iterations);
    let mut now = SimTime::from_millis(10);

    for i in 0..iterations {
        // t0 = clock_gettime(...)
        let (reading0, t) = rig.clock(now);

        // ff_write(fd, buf, nbytes) — a local call, or a crossing into the
        // service and its mutex…
        let work = rig.ff_work();
        let t_done = if let Some((svc, mutex, background)) = rig.service.as_mut() {
            let iv = rig.iv.as_mut().expect("a service runs in a cVM");
            let app = rig.app_cvm.expect("app cvm");
            let grant = iv.xcall(app, *svc, t)?;
            background.replay(mutex, grant.entered_at);
            let g = mutex.acquire(grant.entered_at, work);
            // Return crossing mirrors the entry crossing.
            g.released_at + inner + grant.crossing
        } else {
            t + work
        };
        // …and the real call, for correctness of the data path.
        match rig
            .sender
            .ff_write(&mut rig.mem, rig.send_fd, &rig.payload, WRITE_BYTES)
        {
            Ok(_) => {}
            Err(chos::Errno::EAGAIN) => {
                rig.drain(now);
                // Retry once after draining; a second failure is a bug.
                rig.sender
                    .ff_write(&mut rig.mem, rig.send_fd, &rig.payload, WRITE_BYTES)?;
            }
            Err(e) => return Err(e.into()),
        }

        // t1 = clock_gettime(...)
        let (reading1, t_after) = rig.clock(t_done);
        samples.push(reading1.saturating_duration_since(reading0).as_nanos());

        now = t_after + rig.gap;
        if i % 16 == 0 {
            rig.drain(now);
        }
    }
    rig.drain(now);

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

    const ITERS: usize = 4_000;

    fn run(s: ScenarioKind) -> FfWriteRun {
        measure(s, ITERS, CostModel::morello(), 42).unwrap()
    }

    #[test]
    fn fig4_scenario1_costs_about_125ns_more_than_baseline() {
        let base = run(ScenarioKind::BaselineSingleProcess);
        let s1 = run(ScenarioKind::Scenario1);
        let delta = s1.summary.mean - base.summary.mean;
        assert!(
            (delta - 125.0).abs() < 45.0,
            "S1-Baseline delta {delta:.0}ns (paper: ≈125ns)"
        );
    }

    #[test]
    fn fig5_s2_uncontended_adds_about_200ns_over_s1() {
        let s1 = run(ScenarioKind::Scenario1);
        let s2 = run(ScenarioKind::Scenario2Uncontended);
        let delta = s2.summary.mean - s1.summary.mean;
        assert!(
            (delta - 200.0).abs() < 80.0,
            "S2u-S1 delta {delta:.0}ns (paper: ≈200ns)"
        );
    }

    #[test]
    fn fig6_contention_costs_tens_of_microseconds() {
        let s2u = run(ScenarioKind::Scenario2Uncontended);
        let s2c = run(ScenarioKind::Scenario2Contended);
        let overhead = s2c.summary.mean - s2u.summary.mean;
        assert!(
            (12_000.0..30_000.0).contains(&overhead),
            "contended overhead {overhead:.0}ns (paper: ≈19,000ns)"
        );
    }

    #[test]
    fn boxes_collapse_for_fast_scenarios() {
        // The paper: >50% identical results, p25 = p75 for Baseline/S1.
        let base = run(ScenarioKind::BaselineSingleProcess);
        assert!(
            base.summary.q3 - base.summary.q1 <= 50,
            "baseline IQR {} should be tiny",
            base.summary.iqr()
        );
    }

    #[test]
    fn scenario3_adds_one_inner_crossing_over_s2() {
        let costs = CostModel::morello();
        let s2 = run(ScenarioKind::Scenario2Uncontended);
        let s3 = run(ScenarioKind::Scenario3);
        let delta = s3.summary.mean - s2.summary.mean;
        let expect = costs.xcall_ns as f64;
        assert!(
            (delta - expect).abs() < 60.0,
            "S3-S2u delta {delta:.0}ns (one crossing ≈ {expect:.0}ns)"
        );
    }

    #[test]
    fn scenario4_adds_two_inner_crossings_over_s2() {
        let costs = CostModel::morello();
        let s2 = run(ScenarioKind::Scenario2Uncontended);
        let s4 = run(ScenarioKind::Scenario4);
        let delta = s4.summary.mean - s2.summary.mean;
        let expect = 2.0 * costs.xcall_ns as f64;
        assert!(
            (delta - expect).abs() < 90.0,
            "S4-S2u delta {delta:.0}ns (two crossings ≈ {expect:.0}ns)"
        );
    }

    #[test]
    fn deeper_splits_stay_ordered() {
        // Isolation depth must cost monotonically: S2u ≤ S3 ≤ S4, and all
        // of them far below the contended S2 (isolation is cheap next to
        // contention — the paper's central quantitative message).
        let s2u = run(ScenarioKind::Scenario2Uncontended);
        let s3 = run(ScenarioKind::Scenario3);
        let s4 = run(ScenarioKind::Scenario4);
        let s2c = run(ScenarioKind::Scenario2Contended);
        assert!(s2u.summary.mean <= s3.summary.mean);
        assert!(s3.summary.mean <= s4.summary.mean);
        assert!(s4.summary.mean < s2c.summary.mean / 4.0);
    }

    #[test]
    fn outlier_fraction_is_paperlike() {
        let s1 = run(ScenarioKind::Scenario1);
        assert!(
            s1.removed_fraction < 0.2,
            "removed {:.1}%",
            s1.removed_fraction * 100.0
        );
    }

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
        let costs = CostModel::morello();
        for (kind, names) in expected {
            let layout = kind.layout();
            let rig = Rig::build(layout, costs.clone(), 1).unwrap();
            assert_eq!(rig.iv.is_some(), layout.cheri, "{kind}");
            assert_eq!(rig.service.is_some(), layout.crossings() > 0, "{kind}");
            let mut booted = Vec::new();
            if layout.cheri {
                let (iv, cvms) = boot(layout, &costs).unwrap();
                assert_eq!(iv.cvm_count(), cvms.len(), "{kind}");
                booted = cvms
                    .iter()
                    .map(|&id| iv.cvm(id).name().to_string())
                    .collect();
            }
            assert_eq!(booted, names, "{kind}");
        }
    }
}
