//! Pure window and profitability math of the sharded parallel `NetSim`.
//!
//! Everything here is deterministic integer arithmetic over plain data, so
//! the conservative-execution invariants are property-testable without
//! building a simulation (see `tests/parallel_determinism.rs`):
//!
//! * [`LookaheadMatrix`] — the per-shard-pair conservative lookahead. The
//!   old driver used one *global* minimum over all cut edges (1672 ns for
//!   any NIC-side cut under the Morello model), which throttled every
//!   shard to the tightest edge anywhere in the topology. The matrix
//!   keeps the minimum **per directed shard pair**, closed under min-plus
//!   composition, so a shard only waits on the paths that can actually
//!   reach it — star leaf shards, for instance, bound each other through
//!   the hub (1672 + 3672 ns) rather than at the raw 1672 ns floor.
//! * [`Profitability`] — the adaptive worker-selection model: estimated
//!   events per round (topology weight × window width) against the fixed
//!   host cost of driving a round, so small topologies transparently
//!   collapse to the single-engine loop instead of paying the sharding
//!   tax the committed `BENCH_parallel.json` exposed (0.88–0.93x at 8–32
//!   clients).

/// Saturating add where `u64::MAX` means "unreachable"/"no event".
#[inline]
fn sat(a: u64, b: u64) -> u64 {
    a.saturating_add(b)
}

/// The per-directed-shard-pair conservative lookahead of one shard plan.
///
/// `dist(q, s)` is a lower bound on the virtual time any causal chain
/// needs to travel from an event executing in shard `q` to an event it
/// causes in shard `s`: the minimum, over all shard paths `q → … → s`, of
/// the sum of per-edge latency floors ([`simkern::CostModel::link_floor_ns`])
/// of the cut edges along the way. Direct edges are fed in with
/// [`LookaheadMatrix::note_edge`]; [`LookaheadMatrix::close`] then takes
/// the min-plus (Floyd–Warshall) closure so relayed paths bound too.
#[derive(Debug, Clone)]
pub struct LookaheadMatrix {
    workers: usize,
    /// Row-major `dist[q * workers + s]`; `u64::MAX` = unreachable.
    dist: Vec<u64>,
    /// `round_trip[s]` = min over `q ≠ s` of `dist(s,q) + dist(q,s)` —
    /// the soonest one of `s`'s own events can echo back into `s`.
    round_trip: Vec<u64>,
    /// The tightest finite pair distance (`None` when no edge is cut).
    min_finite: Option<u64>,
}

impl LookaheadMatrix {
    /// An all-unreachable matrix for `workers` shards.
    pub fn new(workers: usize) -> Self {
        LookaheadMatrix {
            workers,
            dist: vec![u64::MAX; workers * workers],
            round_trip: vec![u64::MAX; workers],
            min_finite: None,
        }
    }

    /// Shard count this matrix was built for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Records a cut edge from shard `src` to shard `dst` with latency
    /// floor `lat` (keeps the per-pair minimum). Same-shard edges are not
    /// cuts and are ignored.
    pub fn note_edge(&mut self, src: usize, dst: usize, lat: u64) {
        if src == dst {
            return;
        }
        let d = &mut self.dist[src * self.workers + dst];
        *d = (*d).min(lat);
    }

    /// Min-plus closes the direct-edge minima (so multi-hop relay paths
    /// bound causality too) and derives the round-trip and scalar
    /// summaries. Must be called once, after the last `note_edge`.
    pub fn close(&mut self) {
        let w = self.workers;
        for via in 0..w {
            for a in 0..w {
                let d_avia = self.dist[a * w + via];
                if d_avia == u64::MAX {
                    continue;
                }
                for b in 0..w {
                    let through = sat(d_avia, self.dist[via * w + b]);
                    let d = &mut self.dist[a * w + b];
                    if through < *d {
                        *d = through;
                    }
                }
            }
        }
        let mut min_finite = u64::MAX;
        for q in 0..w {
            for s in 0..w {
                if q != s {
                    min_finite = min_finite.min(self.dist[q * w + s]);
                }
            }
        }
        self.min_finite = (min_finite != u64::MAX).then_some(min_finite);
        for s in 0..w {
            let mut rt = u64::MAX;
            for q in 0..w {
                if q != s {
                    rt = rt.min(sat(self.dist[s * w + q], self.dist[q * w + s]));
                }
            }
            self.round_trip[s] = rt;
        }
    }

    /// Lower bound on the virtual time a causal chain needs from shard
    /// `src` to shard `dst` (`u64::MAX` = cannot reach it at all).
    #[inline]
    pub fn dist(&self, src: usize, dst: usize) -> u64 {
        if src == dst {
            return 0;
        }
        self.dist[src * self.workers + dst]
    }

    /// The tightest finite pair lookahead — the scalar a single number
    /// must summarize the matrix as (reported as `lookahead_ns`), and a
    /// lower bound on every window the matrix will ever grant. `None`
    /// when the plan cuts no edge (shards are fully independent).
    pub fn min_finite(&self) -> Option<u64> {
        self.min_finite
    }

    /// Shard `me`'s safe execution bound for one round, given every
    /// shard's earliest pending instant (`u64::MAX` = idle).
    ///
    /// Any event that could still appear in `me` descends from some shard
    /// `q`'s currently earliest event and must traverse at least
    /// `dist(q, me)` of virtual time to get here; a chain seeded by `me`'s
    /// *own* events must leave and come back, which costs at least the
    /// round trip. Events strictly before the returned bound are
    /// therefore complete and safe to execute.
    pub fn window_end(&self, nexts: &[u64], me: usize) -> u64 {
        debug_assert_eq!(nexts.len(), self.workers);
        let mut end = sat(nexts[me], self.round_trip[me]);
        for (q, &n) in nexts.iter().enumerate() {
            if q == me {
                continue;
            }
            let via = sat(n, self.dist[q * self.workers + me]);
            if via < end {
                end = via;
            }
        }
        end
    }
}

/// How much a rendezvous round costs the host, expressed in simulator
/// events: driving one round (window math, a barrier or mailbox sweep,
/// republished instants) costs roughly as much wall time as dispatching
/// this many calendar events, charged once per shard. Calibrated against
/// the committed `BENCH_parallel.json` baselines: the 8- and 32-client
/// stars (≤ ~180 estimated events/round) were slowdowns at every worker
/// count, the 128-client star (~700) was a win.
pub const ROUND_COST_EVENTS: u64 = 128;

/// The adaptive worker-selection verdict for one shard plan: sharding is
/// only worth its per-round overhead when each round amortizes enough
/// events. Pure integer math — byte-identical results are unaffected
/// either way; this only decides which identical-result path runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Profitability {
    /// Estimated events dispatched per round across all shards:
    /// topology weight (≈ events per idle period) × window width, over
    /// the idle period.
    pub est_events_per_round: u64,
    /// Estimated host cost of one round, in event-equivalents
    /// ([`ROUND_COST_EVENTS`] per shard).
    pub round_cost_events: u64,
    /// `est_events_per_round >= round_cost_events`: run sharded.
    pub profitable: bool,
}

impl Profitability {
    /// Assesses a plan: `total_weight` is the sum of node weights (1 per
    /// node plus 1 per installed app — each weight unit produces roughly
    /// one event per `idle_period_ns`), `lookahead_ns` the tightest
    /// window the plan will run under ([`LookaheadMatrix::min_finite`];
    /// `None` = uncut plan, where one "round" covers the whole horizon
    /// and sharding is always profitable), `workers` the planned shard
    /// count.
    pub fn assess(
        total_weight: u64,
        lookahead_ns: Option<u64>,
        idle_period_ns: u64,
        workers: usize,
    ) -> Profitability {
        let round_cost_events = ROUND_COST_EVENTS.saturating_mul(workers as u64);
        let est_events_per_round = match lookahead_ns {
            None => u64::MAX,
            Some(l) => total_weight.saturating_mul(l) / idle_period_ns.max(1),
        };
        Profitability {
            est_events_per_round,
            round_cost_events,
            profitable: est_events_per_round >= round_cost_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-shard line `0 ↔ 1 ↔ 2` with asymmetric floors (NIC egress one
    /// way, switch egress the other), as a star partition produces.
    fn line3() -> LookaheadMatrix {
        let mut m = LookaheadMatrix::new(3);
        m.note_edge(0, 1, 1672);
        m.note_edge(1, 0, 3672);
        m.note_edge(1, 2, 3672);
        m.note_edge(2, 1, 1672);
        m.close();
        m
    }

    #[test]
    fn closure_composes_relay_paths() {
        let m = line3();
        assert_eq!(m.dist(0, 1), 1672);
        assert_eq!(m.dist(1, 0), 3672);
        // 0 reaches 2 only through 1.
        assert_eq!(m.dist(0, 2), 1672 + 3672);
        assert_eq!(m.dist(2, 0), 1672 + 3672);
        assert_eq!(m.dist(0, 0), 0);
        assert_eq!(m.min_finite(), Some(1672));
    }

    #[test]
    fn windows_grow_beyond_the_global_min() {
        let m = line3();
        // All shards pending at t=0: the old global-min driver granted
        // every shard exactly min_finite; the matrix grants each shard
        // the tightest *incoming* path instead.
        let nexts = [0, 0, 0];
        assert_eq!(m.window_end(&nexts, 0), 3672); // in via 1→0 only
        assert_eq!(m.window_end(&nexts, 1), 1672); // leaves feed the hub
        assert_eq!(m.window_end(&nexts, 2), 3672);
        for me in 0..3 {
            assert!(m.window_end(&nexts, me) >= m.min_finite().unwrap());
        }
    }

    #[test]
    fn idle_peers_grant_the_round_trip() {
        let m = line3();
        // Only shard 0 has work: its bound is its own echo path
        // (0→1→0 = 1672 + 3672), not 2 × global-min.
        let nexts = [100, u64::MAX, u64::MAX];
        assert_eq!(m.window_end(&nexts, 0), 100 + 1672 + 3672);
        // And everyone else is bounded by shard 0's outreach.
        assert_eq!(m.window_end(&nexts, 1), 100 + 1672);
        assert_eq!(m.window_end(&nexts, 2), 100 + 1672 + 3672);
    }

    #[test]
    fn uncut_matrix_grants_unbounded_windows() {
        let mut m = LookaheadMatrix::new(2);
        m.close();
        assert_eq!(m.min_finite(), None);
        assert_eq!(m.window_end(&[5, 7], 0), u64::MAX);
        assert_eq!(m.window_end(&[5, 7], 1), u64::MAX);
    }

    #[test]
    fn profitability_scales_with_weight_and_window() {
        // The committed bench shapes under the Morello model (idle period
        // 900 ns, tightest cut 1672 ns): 8- and 32-client stars collapse,
        // the 128-client star stays sharded.
        let star8 = Profitability::assess(25, Some(1672), 900, 4);
        assert!(!star8.profitable, "{star8:?}");
        let star32 = Profitability::assess(97, Some(1672), 900, 2);
        assert!(!star32.profitable, "{star32:?}");
        let star128 = Profitability::assess(385, Some(1672), 900, 4);
        assert!(star128.profitable, "{star128:?}");
        // Uncut plans (independent shards) are always profitable.
        assert!(Profitability::assess(1, None, 900, 8).profitable);
        // A zero-weight plan never is.
        assert!(!Profitability::assess(0, Some(1672), 900, 2).profitable);
    }
}
