//! Switched N-node topologies, end to end: the LinkFabric learning switch
//! under real stacks (star, chain, dumbbell), the broadcast/ARP behavior
//! of a shared segment, and the determinism contract extended to switched
//! worlds — same seed, byte-identical delivery traces.

mod testutil;

use capnet::netsim::NetSim;
use capnet::scenario::{fairness_index, ScenarioSpec};
use capnet::topology::build_chain;
use fstack::socket::SockType;
use simkern::{CostModel, SimDuration};
use testutil::{assert_digest, Lan, DUMBBELL2_DIGEST, STAR8_DIGEST};
use updk::nic::MacAddr;
use updk::wire::Impairments;

fn star(leaves: usize, ms: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::star(leaves)
        .duration(SimDuration::from_millis(ms))
        .seed(seed)
}

fn dumbbell(pairs: usize, ms: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::dumbbell(pairs)
        .duration(SimDuration::from_millis(ms))
        .seed(seed)
}

/// The wire bytes are **pinned**: an optimization that changes a single
/// payload byte, delivery instant or event order changes the digest and
/// fails here. Update the pins only for a change that *intends* to alter
/// wire behavior (or the digest). The chain folds one 40-byte record per
/// delivery, whatever the frame's length.
#[test]
fn star_and_dumbbell_trace_digests_are_pinned() {
    let star = star(8, 40, 21).run().unwrap();
    assert_digest("star8", &star.trace, STAR8_DIGEST);
    assert_eq!(star.trace.frames, 5658);
    assert_eq!(star.trace.bytes, 40 * star.trace.frames);
    let bell = dumbbell(2, 30, 5).run().unwrap();
    assert_digest("dumbbell2", &bell.trace, DUMBBELL2_DIGEST);
    assert_eq!(bell.trace.frames, 3864);
    assert_eq!(bell.trace.bytes, 40 * bell.trace.frames);
}

/// The acceptance scenario: an 8-client star is a pure function of its
/// seed — two identically seeded runs produce byte-identical delivery
/// traces (and reports); on ideal cables the seed is irrelevant entirely.
#[test]
fn star_8_clients_is_seed_deterministic() {
    let run = |seed: u64| star(8, 40, seed).run().unwrap();
    let o1 = run(21);
    let o2 = run(21);
    assert!(o1.trace.frames > 0, "the star produced traffic");
    assert_eq!(o1.trace, o2.trace, "same seed ⇒ byte-identical trace");
    assert_eq!(o1.servers, o2.servers);
    assert_eq!(o1.clients, o2.clients);
    assert_eq!(o1.ended_at, o2.ended_at);
    assert_eq!(o1.switch_stats, o2.switch_stats);
    // No stochastic impairments: any seed replays the same world.
    let o3 = run(22);
    assert_eq!(o1.trace, o3.trace, "ideal cables ⇒ seed-independent");
}

/// The same star over lossy cables: the loss pattern (and therefore the
/// trace) is drawn from the seed — identical seeds replay identically,
/// different seeds lose different frames.
#[test]
fn impaired_star_replays_by_seed() {
    let run = |seed: u64| {
        star(4, 30, seed)
            .impairments(Impairments::lossy(20))
            .run()
            .unwrap()
    };
    let o1 = run(7);
    let o2 = run(7);
    let o3 = run(8);
    assert!(o1.impairment_stats.lost > 0, "the cables actually lost");
    assert_eq!(o1.trace, o2.trace);
    assert_eq!(o1.impairment_stats, o2.impairment_stats);
    assert_ne!(o1.trace.digest, o3.trace.digest, "different loss pattern");
}

/// All 8 star clients funnel into the hub's single switch port: the
/// aggregate must reach the shared 1 Gbit/s bottleneck's TCP ceiling, and
/// the fabric must have seen real convergence (forwarding on every flow).
#[test]
fn star_8_clients_saturate_the_shared_uplink() {
    let out = star(8, 60, 3).run().unwrap();
    assert_eq!(out.servers.len(), 8);
    let per_flow: Vec<f64> = out.servers.iter().map(|r| r.mbit_per_sec()).collect();
    let total: f64 = per_flow.iter().sum();
    assert!(
        (total - 941.0).abs() < 50.0,
        "aggregate {total:.0} Mbit/s, per flow {per_flow:?}"
    );
    // Every flow makes progress through the shared bottleneck.
    for (i, f) in per_flow.iter().enumerate() {
        assert!(*f > 20.0, "flow {i} starved: {f:.0} Mbit/s of {per_flow:?}");
    }
    let sw = out.switch_stats[0];
    assert!(sw.forwarded > 0, "learned unicast forwarding dominated");
}

/// Dumbbell: every pair's flow crosses the one trunk; the trunk serializes
/// them to the TCP ceiling in aggregate and the FIFO egress queue splits
/// it evenly (Jain's index near 1).
#[test]
fn dumbbell_shares_the_trunk_fairly() {
    let out = dumbbell(3, 60, 11).run().unwrap();
    assert_eq!(out.servers.len(), 3);
    let per_flow: Vec<f64> = out.servers.iter().map(|r| r.mbit_per_sec()).collect();
    let total: f64 = per_flow.iter().sum();
    assert!(
        (total - 941.0).abs() < 50.0,
        "trunk aggregate {total:.0} Mbit/s, per flow {per_flow:?}"
    );
    let jain = fairness_index(&per_flow);
    assert!(jain > 0.9, "unfair split {per_flow:?} (Jain {jain:.3})");
    // Both fabrics forwarded; the trunk carried every flow.
    assert_eq!(out.switch_stats.len(), 2);
    assert!(out.switch_stats.iter().all(|s| s.forwarded > 0));
}

/// Dumbbell determinism: the fairness measurement replays bit-for-bit.
#[test]
fn dumbbell_is_seed_deterministic() {
    let run = |seed: u64| dumbbell(2, 30, seed).run().unwrap();
    let o1 = run(5);
    let o2 = run(5);
    assert_eq!(o1.trace, o2.trace);
    assert_eq!(o1.servers, o2.servers);
}

/// A chain of three switches between two hosts still delivers the full
/// single-flow TCP ceiling — store-and-forward hops add latency, not a
/// bandwidth cap — and every fabric in the row forwards.
#[test]
fn chain_of_switches_carries_line_rate() {
    let costs = CostModel::morello();
    let mut sim = NetSim::new(costs.clone());
    let chain = build_chain(&mut sim, 3).unwrap();
    sim.add_server(chain.b, "b-rx", 5501).unwrap();
    sim.add_client(
        chain.a,
        "a-tx",
        (chain.b_ip, 5501),
        SimDuration::from_millis(60),
        SimDuration::ZERO,
    )
    .unwrap();
    let out = sim.run(SimDuration::from_millis(90)).unwrap();
    let bw = out.servers[0].mbit_per_sec();
    assert!((bw - 941.0).abs() < 30.0, "through 3 hops: {bw:.0} Mbit/s");
    assert_eq!(out.switch_stats.len(), 3);
    for (i, s) in out.switch_stats.iter().enumerate() {
        assert!(s.forwarded > 0, "switch {i} idle: {s:?}");
    }
}

/// Broadcast/ARP across a shared segment (the satellite requirement):
/// with 4 stacks on one fabric, a full mesh of traffic resolves every
/// host's MAC at every other host, the fabric learns all stations, and no
/// frame is ever delivered twice to the same host.
#[test]
fn arp_resolves_across_a_switched_segment_without_duplicates() {
    let n = 4;
    let port = 9100;
    let mut seg = Lan::new(n);
    let mut rx_fds = Vec::with_capacity(n);
    for i in 0..n {
        let pay = seg.app_buffer(i);
        let (stack, mem) = seg.stack_and_mem(i);
        let rfd = stack.ff_socket(SockType::Dgram).unwrap();
        stack.ff_bind(rfd, port).unwrap();
        rx_fds.push(rfd);
        // One datagram to every other host, each unique by its
        // (sender, receiver) payload: a full mesh of ARP resolutions.
        let tfd = stack.ff_socket(SockType::Dgram).unwrap();
        for j in (0..n).filter(|&j| j != i) {
            let dgram = [b"mesh:".as_slice(), &[i as u8, j as u8]].concat();
            mem.write(&pay, pay.base(), &dgram).unwrap();
            let to = (Lan::ip(j), port);
            stack
                .ff_sendto(mem, tfd, &pay, dgram.len() as u64, to)
                .unwrap();
        }
    }
    let mut got = vec![Vec::new(); n];
    for _ in 0..4_000 {
        seg.tick();
        for (i, &rfd) in rx_fds.iter().enumerate() {
            let sink = seg.app_buffer(i);
            let (stack, mem) = seg.stack_and_mem(i);
            while let Ok((len, _from)) = stack.ff_recvfrom(mem, rfd, &sink) {
                got[i].push(mem.read_vec(&sink, sink.base(), len).unwrap());
            }
        }
        if got.iter().all(|g| g.len() >= n - 1) && seg.quiesced() {
            break;
        }
    }

    // Every datagram arrived exactly once.
    for (i, inbox) in got.iter().enumerate() {
        assert_eq!(inbox.len(), n - 1, "host {i} inbox: {inbox:?}");
    }
    // Every node resolved every other node's real MAC.
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let mac = seg.stack(i).arp_cache_mut().lookup(Lan::ip(j));
                assert_eq!(
                    mac,
                    Some(MacAddr::local(j as u8 + 1)),
                    "host {i} → host {j}"
                );
            }
        }
    }
    // The fabric learned all stations.
    assert_eq!(seg.fabric().stations(), n);
    let stats = seg.fabric().stats();
    assert!(stats.flooded > 0, "ARP requests flooded: {stats:?}");
    assert!(stats.forwarded > 0, "replies + data unicast: {stats:?}");
    assert_eq!(stats.dropped, 0, "an idle segment drops nothing");

    // No duplicate delivery: the fabric never hands the same bytes to the
    // same host twice (every mesh frame is unique by construction).
    let mut seen = std::collections::HashSet::new();
    for d in &seg.deliveries {
        assert!(
            seen.insert((d.host, d.bytes.clone())),
            "duplicate delivery to host {} at {} ns",
            d.host,
            d.at_ns
        );
    }

    // Broadcast ARP requests reached every host except the sender: each
    // of the n hosts sent n-1 requests, flooded to n-1 ports each.
    let arp_broadcasts = seg
        .deliveries
        .iter()
        .filter(|d| d.bytes[0..6] == [0xFF; 6] && d.bytes[12..14] == [0x08, 0x06])
        .count();
    assert_eq!(arp_broadcasts, n * (n - 1) * (n - 1));
}
