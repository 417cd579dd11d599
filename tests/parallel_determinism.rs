//! The sharded parallel `NetSim`'s headline contract: **wire behavior is
//! byte-identical at any worker count**. Every scenario here runs at
//! `workers = 1` (the classic single-engine loop), 2 and 4, and must
//! produce the same delivery-trace digest byte for byte, the same per-kind
//! event counters and the same executed-event total — the conservative
//! lookahead windows, the barrier frame exchange and the order-key merge
//! are pure implementation detail.
//!
//! The shard partitioner itself is property-tested below: every node of a
//! random topology lands in exactly one shard, co-location constraints
//! hold, and plans are pure functions of the graph.

mod testutil;

use capnet::netsim::NetSim;
use capnet::parallel::{LookaheadMatrix, Profitability, ROUND_COST_EVENTS};
use capnet::scenario::ScenarioSpec;
use capnet::topology::{build_chain, partition_shards, ShardGraph};
use capnet::SimOutcome;
use proptest::prelude::*;
use simkern::{CostModel, SimDuration};
use testutil::{assert_digest, STAR8_DIGEST};
use updk::wire::Impairments;

/// Asserts the full equivalence contract between a `workers = 1` run and a
/// sharded run of the same scenario.
fn assert_equivalent(base: &SimOutcome, out: &SimOutcome, what: &str) {
    assert_eq!(
        base.trace, out.trace,
        "{what}: trace digest must be byte-identical at any worker count"
    );
    assert_eq!(
        base.counters, out.counters,
        "{what}: per-kind event counters must match"
    );
    assert_eq!(base.events, out.events, "{what}: executed-event totals");
    assert_eq!(base.ended_at, out.ended_at, "{what}: final virtual instant");
    assert_eq!(base.servers, out.servers, "{what}: server reports");
    assert_eq!(base.clients, out.clients, "{what}: client reports");
    assert_eq!(base.switch_stats, out.switch_stats, "{what}: switch stats");
    assert_eq!(
        base.impairment_stats, out.impairment_stats,
        "{what}: impairment totals"
    );
}

fn star(workers: usize) -> SimOutcome {
    let mut sim = NetSim::new(CostModel::morello());
    sim.set_seed(21);
    sim.set_workers(workers);
    // An 8-leaf star is too light for sharding to pay — force the plan
    // through the sharded driver anyway; that's what this test is for.
    sim.set_adaptive_workers(false);
    let star = capnet::topology::build_star(&mut sim, 8).expect("star builds");
    for (i, &leaf) in star.leaves.iter().enumerate() {
        let port = 5600 + i as u16;
        sim.add_server(star.hub, format!("hub-rx{i}"), port)
            .expect("server");
        sim.add_client(
            leaf,
            format!("leaf-tx{i}"),
            (star.hub_ip, port),
            SimDuration::from_millis(20),
            SimDuration::ZERO,
        )
        .expect("client");
    }
    sim.run(SimDuration::from_millis(40)).expect("runs")
}

#[test]
fn star8_is_byte_identical_at_any_worker_count() {
    let base = star(1);
    assert_eq!(base.workers, 1);
    assert!(base.trace.frames > 1_000, "the star produced real traffic");
    for workers in [2usize, 4] {
        let out = star(workers);
        assert_eq!(out.workers, workers, "the plan used the requested shards");
        assert!(out.lookahead_ns > 0, "a cut topology has a finite window");
        assert!(
            out.rounds.rounds > 0,
            "the sharded driver actually drove rounds"
        );
        assert!(
            out.rounds.xshard_frames > 0,
            "frames crossed shard boundaries"
        );
        assert_equivalent(&base, &out, "star8");
    }
}

/// The pinned-digest scenario of `tests/topology.rs`, across worker
/// counts: the sharded runs must land on the exact digest the seed
/// repository pinned before parallel execution existed — both with
/// adaptive selection forced off (genuinely sharded) and left on (the
/// plan collapses transparently; same bytes either way).
#[test]
fn pinned_star_digest_holds_at_every_worker_count() {
    for adaptive in [false, true] {
        for workers in [1usize, 2, 4] {
            let o = capnet::ScenarioSpec::star(8)
                .duration(SimDuration::from_millis(40))
                .costs(CostModel::morello())
                .seed(21)
                .workers(workers)
                .adaptive_workers(adaptive)
                .congestion(capnet::CcAlgo::Reno)
                .sack(false)
                .run()
                .expect("star runs");
            assert_digest(
                &format!("star8 workers={workers} adaptive={adaptive}"),
                &o.trace,
                STAR8_DIGEST,
            );
        }
    }
}

/// Adaptive worker selection collapses an unprofitable plan to the
/// single-engine loop — transparently (same bytes, `workers` reports the
/// collapse) — and still reports the window the plan would have run
/// under.
#[test]
fn unprofitable_plans_collapse_to_a_single_engine() {
    let mut sim = NetSim::new(CostModel::morello());
    sim.set_seed(21);
    sim.set_workers(4); // adaptive selection left on (the default)
    let topo = capnet::topology::build_star(&mut sim, 8).expect("star builds");
    for (i, &leaf) in topo.leaves.iter().enumerate() {
        let port = 5600 + i as u16;
        sim.add_server(topo.hub, format!("hub-rx{i}"), port)
            .expect("server");
        sim.add_client(
            leaf,
            format!("leaf-tx{i}"),
            (topo.hub_ip, port),
            SimDuration::from_millis(20),
            SimDuration::ZERO,
        )
        .expect("client");
    }
    let out = sim.run(SimDuration::from_millis(40)).expect("runs");
    assert_eq!(out.workers, 1, "the light star collapsed");
    assert!(
        out.lookahead_ns > 0,
        "the would-be window is still reported"
    );
    assert_eq!(out.rounds.rounds, 0, "no rendezvous rounds were driven");
    assert_equivalent(&star(1), &out, "adaptive star8");
}

#[test]
fn dumbbell_is_byte_identical_at_any_worker_count() {
    let run = |workers: usize| {
        let mut sim = NetSim::new(CostModel::morello());
        sim.set_seed(5);
        sim.set_workers(workers);
        sim.set_adaptive_workers(false);
        let bell = capnet::topology::build_dumbbell(&mut sim, 4).expect("dumbbell");
        for i in 0..4 {
            let port = 5700 + i as u16;
            sim.add_server(bell.servers[i], format!("srv{i}"), port)
                .expect("srv");
            sim.add_client(
                bell.clients[i],
                format!("cli{i}"),
                (bell.server_ips[i], port),
                SimDuration::from_millis(15),
                SimDuration::ZERO,
            )
            .expect("cli");
        }
        sim.run(SimDuration::from_millis(30)).expect("runs")
    };
    let base = run(1);
    assert!(base.trace.frames > 500);
    for workers in [2usize, 4] {
        assert_equivalent(&base, &run(workers), "dumbbell4");
    }
}

#[test]
fn chain_is_byte_identical_at_any_worker_count() {
    let run = |workers: usize| {
        let mut sim = NetSim::new(CostModel::morello());
        sim.set_seed(9);
        sim.set_workers(workers);
        sim.set_adaptive_workers(false);
        let chain = build_chain(&mut sim, 3).expect("chain");
        sim.add_server(chain.b, "b-rx", 5501).expect("srv");
        sim.add_client(
            chain.a,
            "a-tx",
            (chain.b_ip, 5501),
            SimDuration::from_millis(15),
            SimDuration::ZERO,
        )
        .expect("cli");
        sim.run(SimDuration::from_millis(30)).expect("runs")
    };
    let base = run(1);
    assert!(base.trace.frames > 500);
    for workers in [2usize, 4] {
        assert_equivalent(&base, &run(workers), "chain3");
    }
}

/// Lossy cables: the per-destination-port impairment streams must make
/// loss, duplication and corruption draws land identically no matter which
/// shard plans them.
#[test]
fn lossy_star_is_byte_identical_at_any_worker_count() {
    let imp = Impairments {
        loss_per_mille: 8,
        dup_per_mille: 4,
        corrupt_per_mille: 4,
        ..Impairments::default()
    };
    let run = |workers: usize| {
        let mut sim = NetSim::new(CostModel::morello());
        sim.set_seed(77);
        sim.set_workers(workers);
        sim.set_adaptive_workers(false);
        sim.set_impairments(imp);
        let star = capnet::topology::build_star(&mut sim, 6).expect("star");
        for (i, &leaf) in star.leaves.iter().enumerate() {
            let port = 5800 + i as u16;
            sim.add_server(star.hub, format!("hub-rx{i}"), port)
                .expect("srv");
            sim.add_client(
                leaf,
                format!("leaf-tx{i}"),
                (star.hub_ip, port),
                SimDuration::from_millis(15),
                SimDuration::ZERO,
            )
            .expect("cli");
        }
        sim.run(SimDuration::from_millis(30)).expect("runs")
    };
    let base = run(1);
    assert!(
        base.impairment_stats.lost > 0 || base.impairment_stats.duplicated > 0,
        "the impairments actually fired: {:?}",
        base.impairment_stats
    );
    for workers in [2usize, 4] {
        assert_equivalent(&base, &run(workers), "lossy star6");
    }
}

/// A forced two-shard run of a small star (adaptive selection off)
/// produces the single-engine run's bytes, really crosses the shard
/// boundary, and copies nothing doing so.
#[test]
fn sharded_run_matches_single_engine() {
    let spec = || {
        ScenarioSpec::star(4)
            .duration(SimDuration::from_millis(10))
            .seed(3)
    };
    let base = spec().run().expect("baseline");
    let out = spec()
        .workers(2)
        .adaptive_workers(false)
        .run()
        .expect("sharded");
    assert_eq!(out.workers, 2);
    assert_eq!(base.trace, out.trace, "sharded vs single engine");
    assert_eq!(base.counters, out.counters);
    assert!(out.rounds.xshard_frames > 0);
    assert_eq!(
        out.rounds.rehome_bytes, 0,
        "cross-shard hand-offs share frames, no copies"
    );
}

/// A spec that never asks for workers runs on one engine, bit for bit,
/// including under impairments. Single-engine runs report the window a
/// 2-shard plan *would* run under, so bench output can show the would-be
/// width without sharding.
#[test]
fn scenario_helpers_still_run_single_engine() {
    let out = ScenarioSpec::star(2)
        .duration(SimDuration::from_millis(10))
        .seed(11)
        .impairments(Impairments::lossy(10))
        .run()
        .expect("impaired star runs");
    assert_eq!(out.workers, 1);
    assert!(
        out.lookahead_ns > 0,
        "a cut 2-shard plan exists, so the would-be window is reported"
    );
    assert_eq!(out.rounds.rounds, 0, "but no sharded driver ever ran");
    let bell = ScenarioSpec::dumbbell(2)
        .duration(SimDuration::from_millis(10))
        .seed(11)
        .run()
        .expect("dumbbell runs");
    assert_eq!(bell.workers, 1);
}

/// The full fault pipeline under sharding: a hub-uplink flap, a leaf
/// crash/restart and a switch blip, riding a retrying HTTP serving plane.
/// Fault events are scheduled on every shard (identical keys everywhere),
/// so the wire trace, the fleet/server reports and the merged fault
/// counters must all be byte-identical at any worker count. The raw
/// executed-event total is *not* compared — each shard burns its own
/// fault bookkeeping events; the wire is the contract, not the engine's
/// internal event count.
fn faulted_star(workers: usize) -> SimOutcome {
    let ms = SimDuration::from_millis;
    capnet::ScenarioSpec::star(8)
        .duration(ms(80))
        .costs(CostModel::morello())
        .seed(0xF417)
        .workers(workers)
        .adaptive_workers(false)
        .http(
            capnet_httpd::HttpServerConfig {
                max_conns: 24,
                ..capnet_httpd::HttpServerConfig::default()
            },
            capnet_httpd::FleetConfig {
                rate_per_sec: 3_000,
                keep_alive_per_mille: 400,
                retry_budget: 3,
                ..capnet_httpd::FleetConfig::default()
            },
        )
        .faults(
            capnet::FaultPlan::new()
                .link_down(ms(20), capnet::FaultTarget::Hub)
                .link_up(ms(32), capnet::FaultTarget::Hub)
                .node_crash(ms(15), capnet::FaultTarget::Leaf(5))
                .node_restart(ms(45), capnet::FaultTarget::Leaf(5))
                .switch_fail(ms(55), capnet::FaultTarget::Switch(0))
                .switch_recover(ms(58), capnet::FaultTarget::Switch(0)),
        )
        .run()
        .expect("faulted star runs")
}

fn assert_fault_equivalent(base: &SimOutcome, out: &SimOutcome, what: &str) {
    assert_eq!(base.trace, out.trace, "{what}: wire trace");
    assert_eq!(base.ended_at, out.ended_at, "{what}: final instant");
    assert_eq!(base.http_fleets, out.http_fleets, "{what}: fleet reports");
    assert_eq!(
        base.http_servers, out.http_servers,
        "{what}: server reports"
    );
    assert_eq!(base.fault_stats, out.fault_stats, "{what}: fault counters");
    assert_eq!(
        base.impairment_stats, out.impairment_stats,
        "{what}: blackhole tallies"
    );
    assert_eq!(base.stack_stats, out.stack_stats, "{what}: stack stats");
    assert_eq!(base.switch_stats, out.switch_stats, "{what}: switch stats");
}

#[test]
fn faulted_star_is_byte_identical_at_any_worker_count() {
    let base = faulted_star(1);
    assert_eq!(base.fault_stats.link_down_events, 1);
    assert_eq!(base.fault_stats.node_crashes, 1);
    assert_eq!(base.fault_stats.switch_fail_events, 1);
    assert!(
        base.impairment_stats.blackholed > 0,
        "the flap actually cut traffic: {:?}",
        base.impairment_stats
    );
    let retries: u64 = base.http_fleets.iter().map(|f| f.retries).sum();
    assert!(retries > 0, "the partition actually triggered retries");
    for workers in [2usize, 4] {
        let out = faulted_star(workers);
        assert_eq!(out.workers, workers, "the plan used the requested shards");
        assert_fault_equivalent(&base, &out, "faulted star8");
    }
}

/// Cut-edge faults: every leaf uplink in turn — the exact edges the shard
/// partitioner cuts — flaps on a staggered schedule while the leaves keep
/// serving. Downing a *cut* edge exercises the blackhole check on the
/// TX hop that feeds the cross-shard rendezvous.
#[test]
fn staggered_cut_edge_flaps_are_byte_identical() {
    let ms = SimDuration::from_millis;
    let run = |workers: usize| {
        let mut plan = capnet::FaultPlan::new();
        for i in 0..8usize {
            plan = plan
                .link_down(ms(10 + 4 * i as u64), capnet::FaultTarget::Leaf(i))
                .link_up(ms(12 + 4 * i as u64), capnet::FaultTarget::Leaf(i));
        }
        capnet::ScenarioSpec::star(8)
            .duration(ms(70))
            .costs(CostModel::morello())
            .seed(0xCE11)
            .workers(workers)
            .adaptive_workers(false)
            .http(
                capnet_httpd::HttpServerConfig::default(),
                capnet_httpd::FleetConfig {
                    rate_per_sec: 4_000,
                    retry_budget: 2,
                    ..capnet_httpd::FleetConfig::default()
                },
            )
            .faults(plan)
            .run()
            .expect("staggered flap star runs")
    };
    let base = run(1);
    assert_eq!(base.fault_stats.link_down_events, 8);
    assert_eq!(base.fault_stats.link_up_events, 8);
    for workers in [2usize, 4] {
        assert_fault_equivalent(&base, &run(workers), "staggered flaps");
    }
}

/// An *empty* fault plan is provably free: the explicit `.faults(...)`
/// call with no events must land on the exact pinned pre-fault digest —
/// the subsystem's presence costs nothing when unused.
#[test]
fn empty_fault_plan_leaves_the_pinned_digest_untouched() {
    let o = capnet::ScenarioSpec::star(8)
        .duration(SimDuration::from_millis(40))
        .costs(CostModel::morello())
        .seed(21)
        .workers(2)
        .adaptive_workers(false)
        .congestion(capnet::CcAlgo::Reno)
        .sack(false)
        .faults(capnet::FaultPlan::new())
        .run()
        .expect("star runs");
    // An empty FaultPlan must not perturb a single byte.
    assert_digest("star8 empty fault plan", &o.trace, STAR8_DIGEST);
}

proptest! {
    /// Random topologies partition into shards covering every node exactly
    /// once, with every constraint group intact — for any worker count.
    #[test]
    fn random_partitions_cover_every_node_exactly_once(
        nodes in 1usize..40,
        switches in 0usize..6,
        workers in 1usize..8,
        edge_seed in any::<u64>(),
    ) {
        // Derive attachments / links / groups deterministically from the
        // seed so failures replay.
        let mut x = edge_seed;
        let mut next = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let mut g = ShardGraph {
            nodes,
            switches,
            node_weight: (0..nodes).map(|i| 1 + (i as u64 % 5)).collect(),
            ..ShardGraph::default()
        };
        for i in 0..nodes {
            match next() % 3 {
                0 if switches > 0 => g.attachments.push((i, next() % switches)),
                1 if nodes > 1 => {
                    let j = next() % nodes;
                    if j != i {
                        g.node_links.push((i, j));
                    }
                }
                _ => {}
            }
        }
        if switches > 1 {
            for s in 1..switches {
                if next() % 2 == 0 {
                    g.trunks.push((s - 1, s));
                }
            }
        }
        if nodes > 2 && next() % 2 == 0 {
            g.bind_groups.push(vec![0, nodes / 2, nodes - 1]);
        }

        let plan = partition_shards(&g, workers);
        prop_assert!(plan.workers >= 1 && plan.workers <= workers.max(1));
        // Exactly-once coverage: one owning shard per node, in range.
        prop_assert_eq!(plan.node_shard.len(), nodes);
        for &s in &plan.node_shard {
            prop_assert!(s < plan.workers, "node shard {} of {}", s, plan.workers);
        }
        prop_assert_eq!(plan.switch_shard.len(), switches);
        for &s in &plan.switch_shard {
            prop_assert!(s < plan.workers);
        }
        // Constraints: direct cables and bind groups co-shard.
        for &(a, b) in &g.node_links {
            prop_assert_eq!(plan.node_shard[a], plan.node_shard[b]);
        }
        for group in &g.bind_groups {
            for w in group.windows(2) {
                prop_assert_eq!(plan.node_shard[w[0]], plan.node_shard[w[1]]);
            }
        }
        // Purity: the same graph plans identically.
        let again = partition_shards(&g, workers);
        prop_assert_eq!(plan.node_shard, again.node_shard);
        prop_assert_eq!(plan.switch_shard, again.switch_shard);
    }

    /// The lookahead matrix's conservative-execution invariants, on random
    /// cut graphs and queue states: no shard's window ever reaches past
    /// any peer's earliest event plus the closed path floor to get here
    /// (`min(peer_next) + L` per pair), past its own round trip, or below
    /// the scalar `min_finite` guarantee; the closure satisfies the
    /// triangle inequality; and windows are monotone in the inputs —
    /// advancing any peer never shrinks anyone's window.
    #[test]
    fn window_bounds_hold_on_random_matrices(
        workers in 2usize..6,
        edges in proptest::collection::vec((0usize..6, 0usize..6, 1u64..10_000), 1..24),
        mut nexts in proptest::collection::vec(0u64..1u64 << 41, 6),
        bump in 0u64..1u64 << 30,
        who in 0usize..6,
    ) {
        let mut m = LookaheadMatrix::new(workers);
        for &(a, b, lat) in &edges {
            m.note_edge(a % workers, b % workers, lat);
        }
        m.close();
        nexts.truncate(workers);
        // The top half of the draw range means "idle shard" (no event).
        let nexts: Vec<u64> = nexts
            .into_iter()
            .map(|n| if n >= 1 << 40 { u64::MAX } else { n })
            .collect();

        // Triangle inequality survives the min-plus closure.
        for a in 0..workers {
            for b in 0..workers {
                for c in 0..workers {
                    let via = m.dist(a, b).saturating_add(m.dist(b, c));
                    prop_assert!(m.dist(a, c) <= via, "dist({a},{c}) > via {b}");
                }
            }
        }

        let min_next = nexts.iter().copied().min().unwrap_or(u64::MAX);
        for me in 0..workers {
            let end = m.window_end(&nexts, me);
            // Never past any peer's earliest event plus its path floor in.
            for (q, &n) in nexts.iter().enumerate() {
                if q != me {
                    prop_assert!(end <= n.saturating_add(m.dist(q, me)));
                }
            }
            // The scalar summary is a floor on every granted window:
            // whatever the queue state, nobody's bound is tighter than
            // the earliest event anywhere plus the tightest pair floor.
            if let Some(l) = m.min_finite() {
                prop_assert!(
                    end >= min_next.saturating_add(l),
                    "window {end} below min_next {min_next} + min_finite {l}"
                );
            }
            // Progress: the globally earliest shard always gets to run
            // (the driver would otherwise spin forever).
            if nexts[me] == min_next && min_next != u64::MAX && m.min_finite() != Some(0) {
                prop_assert!(end > nexts[me], "the earliest shard's window is non-empty");
            }
        }

        // Monotonicity: advancing one shard's queue never shrinks windows.
        let who = who % workers;
        if nexts[who] != u64::MAX {
            let mut later = nexts.clone();
            later[who] = later[who].saturating_add(bump);
            for me in 0..workers {
                prop_assert!(
                    m.window_end(&later, me) >= m.window_end(&nexts, me),
                    "window_end must be monotone in the published instants"
                );
            }
        }
    }

    /// The profitability model: collapse exactly when the estimated
    /// per-round work cannot cover the round cost, monotone in weight and
    /// window width, anti-monotone in worker count; uncut plans always
    /// shard.
    #[test]
    fn profitability_is_monotone(
        weight in 0u64..100_000,
        lookahead_raw in 0u64..1u64 << 24,
        idle in 1u64..1_000_000,
        workers in 1usize..16,
    ) {
        // 0 stands for "no cut edge" (an uncut plan's unbounded window).
        let lookahead = (lookahead_raw != 0).then_some(lookahead_raw);
        let fit = Profitability::assess(weight, lookahead, idle, workers);
        prop_assert_eq!(fit.profitable, fit.est_events_per_round >= fit.round_cost_events);
        prop_assert_eq!(fit.round_cost_events, ROUND_COST_EVENTS * workers as u64);
        match lookahead {
            None => prop_assert!(fit.profitable, "uncut plans always shard"),
            Some(l) => {
                // More weight or wider windows never flip a profitable
                // plan unprofitable; more workers never flip an
                // unprofitable plan profitable.
                let heavier = Profitability::assess(weight * 2 + 1, Some(l), idle, workers);
                let wider = Profitability::assess(weight, Some(l * 2), idle, workers);
                let more_shards = Profitability::assess(weight, Some(l), idle, workers * 2);
                if fit.profitable {
                    prop_assert!(heavier.profitable);
                    prop_assert!(wider.profitable);
                } else {
                    prop_assert!(!more_shards.profitable);
                }
            }
        }
    }
}
