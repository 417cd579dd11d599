//! Analytic models of serialized shared resources.
//!
//! Two resources in the paper's system serialize concurrent actors:
//!
//! * the **PCI bus** of the dual-port Intel 82576 NIC — every DMA in either
//!   direction occupies the shared bus, which is what caps Table II's
//!   dual-port bandwidth at 658 / 757 Mbit/s per port;
//! * the **F-Stack service mutex** of Scenario 2 — `ff_*` API calls and the
//!   F-Stack main loop must alternate, which is what produces Fig. 6's
//!   ≈ 19 µs contended `ff_write`.
//!
//! Instead of blocking simulated threads, both are modeled analytically in
//! virtual time: a request made at instant `t` is granted at
//! `max(t, next_free)` and the resource advances its `next_free` horizon.
//! With FIFO granting this is exactly a single-server queue, which is what
//! the hardware bus arbiter and a fair futex-backed mutex implement.

use crate::cost::CostModel;
use crate::time::{SimDuration, SimTime};

/// A serially reusable resource with a busy-until horizon (single-server
/// FIFO queue). Used for the PCI bus and for wire serialization.
///
/// # Example
///
/// ```
/// use simkern::resource::BusyResource;
/// use simkern::time::{SimDuration, SimTime};
///
/// let mut bus = BusyResource::new();
/// let d = SimDuration::from_nanos(100);
/// // Two back-to-back requests at t=0 serialize.
/// let a = bus.occupy(SimTime::ZERO, d);
/// let b = bus.occupy(SimTime::ZERO, d);
/// assert_eq!(a.as_nanos(), 100);
/// assert_eq!(b.as_nanos(), 200);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BusyResource {
    next_free: SimTime,
    total_busy: SimDuration,
    grants: u64,
}

impl BusyResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests the resource at `now` for `hold`; returns the completion
    /// instant. Requests are served in call order (FIFO).
    pub fn occupy(&mut self, now: SimTime, hold: SimDuration) -> SimTime {
        let start = now.max(self.next_free);
        let done = start + hold;
        self.next_free = done;
        self.total_busy += hold;
        self.grants += 1;
        done
    }

    /// The instant after which the resource is idle again.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total time the resource has been held.
    pub fn total_busy(&self) -> SimDuration {
        self.total_busy
    }

    /// Number of grants served.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Utilization of the resource over `[0, horizon]`, in `0.0..=1.0`.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            (self.total_busy.as_nanos() as f64 / horizon.as_nanos() as f64).min(1.0)
        }
    }
}

/// The outcome of a [`FifoMutex`] acquisition, all in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockGrant {
    /// When the lock was actually granted (≥ the request instant).
    pub acquired_at: SimTime,
    /// When the caller's critical section ends and the lock is released.
    pub released_at: SimTime,
    /// Whether the caller had to block (kernel sleep via umtx).
    pub contended: bool,
    /// Time spent waiting before the grant.
    pub wait: SimDuration,
}

/// A FIFO mutex modeled in virtual time, with distinct fast-path and
/// blocking-path costs — the Scenario 2 F-Stack service mutex.
///
/// The fast path charges [`CostModel::mutex_fast_ns`] (uncontended atomic
/// lock+unlock). The slow path charges a `umtx` block on the waiter and a
/// wake when the holder releases ([`CostModel::umtx_block_ns`],
/// [`CostModel::umtx_wake_ns`]), exactly the musl-futex → CheriBSD-umtx
/// path the paper routes through the Intravisor.
///
/// # Example
///
/// ```
/// use simkern::cost::CostModel;
/// use simkern::resource::FifoMutex;
/// use simkern::time::{SimDuration, SimTime};
///
/// let mut m = FifoMutex::new(&CostModel::morello());
/// let g = m.acquire(SimTime::ZERO, SimDuration::from_nanos(500));
/// assert!(!g.contended);
/// // A second acquire during the first critical section must wait.
/// let g2 = m.acquire(SimTime::from_nanos(10), SimDuration::from_nanos(500));
/// assert!(g2.contended);
/// assert!(g2.acquired_at >= g.released_at);
/// ```
#[derive(Debug, Clone)]
pub struct FifoMutex {
    fast_ns: u64,
    block_ns: u64,
    wake_ns: u64,
    next_free: SimTime,
    acquisitions: u64,
    contentions: u64,
    total_wait: SimDuration,
}

impl FifoMutex {
    /// Creates a free mutex with the cost model's fast-path, umtx block
    /// and umtx wake costs.
    pub fn new(costs: &CostModel) -> Self {
        FifoMutex {
            fast_ns: costs.mutex_fast_ns,
            block_ns: costs.umtx_block_ns,
            wake_ns: costs.umtx_wake_ns,
            next_free: SimTime::ZERO,
            acquisitions: 0,
            contentions: 0,
            total_wait: SimDuration::ZERO,
        }
    }

    /// Acquires the mutex at `now`, holding it for `hold` of critical-section
    /// work, and returns the grant. FIFO among callers.
    pub fn acquire(&mut self, now: SimTime, hold: SimDuration) -> LockGrant {
        self.acquisitions += 1;
        let contended = self.next_free > now;
        let (acquired_at, overhead) = if contended {
            self.contentions += 1;
            // The waiter blocks via umtx; the holder's release wakes it.
            let woken = self.next_free + SimDuration::from_nanos(self.wake_ns);
            (woken, SimDuration::from_nanos(self.block_ns + self.fast_ns))
        } else {
            (now, SimDuration::from_nanos(self.fast_ns))
        };
        let released_at = acquired_at + hold + overhead;
        self.next_free = released_at;
        let wait = acquired_at - now;
        self.total_wait += wait;
        LockGrant {
            acquired_at,
            released_at,
            contended,
            wait,
        }
    }

    /// Accounts `n` back-to-back uncontended acquisitions in one step: a
    /// sole owner taking the lock at `first` and again at each release,
    /// every critical section plus fast path lasting `period`. Leaves the
    /// mutex exactly as `n` calls `acquire(first + j·period, period −
    /// fast_ns)` would — `acquisitions` and `next_free` — in O(1). A poll
    /// loop that sleeps through its idle iterations settles the
    /// acquisitions they would have made with this.
    pub fn acquire_uncontended_run(&mut self, first: SimTime, period: SimDuration, n: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(self.next_free <= first, "the run starts on a free lock");
        debug_assert!(
            period.as_nanos() >= self.fast_ns,
            "period covers the fast path"
        );
        self.acquisitions += n;
        self.next_free = first + period * n;
    }

    /// Total acquisitions so far.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Acquisitions that had to block.
    pub fn contentions(&self) -> u64 {
        self.contentions
    }

    /// Sum of all waiting time.
    pub fn total_wait(&self) -> SimDuration {
        self.total_wait
    }

    /// The instant the lock next becomes free.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_resource_serializes_fifo() {
        let mut r = BusyResource::new();
        let d = SimDuration::from_nanos(10);
        assert_eq!(r.occupy(SimTime::from_nanos(0), d).as_nanos(), 10);
        assert_eq!(r.occupy(SimTime::from_nanos(3), d).as_nanos(), 20);
        // A late arrival after the queue drains starts immediately.
        assert_eq!(r.occupy(SimTime::from_nanos(100), d).as_nanos(), 110);
        assert_eq!(r.grants(), 3);
        assert_eq!(r.total_busy().as_nanos(), 30);
    }

    #[test]
    fn busy_resource_utilization() {
        let mut r = BusyResource::new();
        r.occupy(SimTime::ZERO, SimDuration::from_nanos(50));
        assert!((r.utilization(SimTime::from_nanos(100)) - 0.5).abs() < 1e-9);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn uncontended_lock_is_fast_path() {
        let mut m = FifoMutex::new(&CostModel::morello());
        let g = m.acquire(SimTime::from_nanos(1_000), SimDuration::from_nanos(400));
        assert!(!g.contended);
        assert_eq!(g.acquired_at.as_nanos(), 1_000);
        assert_eq!(g.released_at.as_nanos(), 1_000 + 400 + 30);
        assert_eq!(g.wait, SimDuration::ZERO);
    }

    #[test]
    fn contended_lock_pays_block_and_wake() {
        let mut m = FifoMutex::new(&CostModel::morello());
        let g1 = m.acquire(SimTime::ZERO, SimDuration::from_nanos(10_000));
        let g2 = m.acquire(SimTime::from_nanos(100), SimDuration::from_nanos(500));
        assert!(g2.contended);
        assert_eq!(
            g2.acquired_at,
            g1.released_at + SimDuration::from_nanos(1_900)
        );
        assert_eq!(
            g2.released_at,
            g2.acquired_at + SimDuration::from_nanos(500 + 2_600 + 30)
        );
        assert_eq!(m.contentions(), 1);
        assert!(g2.wait.as_nanos() > 10_000);
    }

    #[test]
    fn service_mutex_matches_cost_model() {
        let mut m = FifoMutex::new(&CostModel::morello());
        let g1 = m.acquire(SimTime::ZERO, SimDuration::from_micros(10));
        assert!(!g1.contended);
        let g2 = m.acquire(SimTime::from_nanos(100), SimDuration::from_micros(1));
        assert!(g2.contended);
        assert_eq!(m.acquisitions(), 2);
        assert_eq!(m.contentions(), 1);
        assert!(m.total_wait().as_nanos() > 9_000);
    }

    #[test]
    fn three_way_contention_is_fifo() {
        // Mirrors Scenario 2 contended: main loop + two app cVMs.
        let mut m = FifoMutex::new(&CostModel::morello());
        let hold = SimDuration::from_nanos(1_000);
        let a = m.acquire(SimTime::ZERO, hold);
        let b = m.acquire(SimTime::from_nanos(1), hold);
        let c = m.acquire(SimTime::from_nanos(2), hold);
        assert!(a.released_at <= b.acquired_at);
        assert!(b.released_at <= c.acquired_at);
        assert_eq!(m.acquisitions(), 3);
        assert_eq!(m.contentions(), 2);
    }

    /// The bulk form is the loop it replaces: same counters, same horizon
    /// — from a fresh lock, after a contended history, and for `n = 0`.
    #[test]
    fn an_uncontended_run_equals_that_many_single_acquisitions() {
        let period = SimDuration::from_nanos(1_730);
        for &n in &[0u64, 1, 5, 63, 64, 65, 1_000] {
            for contended_history in [false, true] {
                let mut one = FifoMutex::new(&CostModel::morello());
                if contended_history {
                    for i in 0..70 {
                        one.acquire(SimTime::from_nanos(i), SimDuration::from_nanos(400));
                    }
                }
                let mut bulk = one.clone();
                let first = one.next_free() + SimDuration::from_nanos(17);
                for j in 0..n {
                    let g = one.acquire(first + period * j, SimDuration::from_nanos(1_700));
                    assert!(!g.contended);
                    assert_eq!(g.released_at, first + period * (j + 1));
                }
                bulk.acquire_uncontended_run(first, period, n);
                assert_eq!(bulk.acquisitions(), one.acquisitions());
                assert_eq!(bulk.contentions(), one.contentions());
                assert_eq!(bulk.total_wait(), one.total_wait());
                assert_eq!(bulk.next_free(), one.next_free(), "n = {n}");
            }
        }
    }
}
