//! Shared support for the root integration tests.
//!
//! * Seeded inputs: [`rng`], [`seeded_bytes`].
//! * Run checks: the pinned `NetSim` trace digests, one named const per
//!   scenario, checked through [`assert_digest`] (which prints the digest
//!   it got, so an intended re-pin is one test run), and
//!   [`assert_same_run`], the one comparison of two runs.
//! * [`stack_pair`] and [`pump`]: two stacks, frames handed across by hand.
//! * [`Lan`]: `n` stacks on one switch, ticked in 2 µs steps, for the
//!   TCP/UDP/ARP tests that make their own `ff_*` calls between ticks.
//!   Determinism tests run the real node loop (`ScenarioSpec::run`).

#![allow(dead_code)]

use capnet::{SimOutcome, TraceDigest};
use cheri::{Capability, Perms, TaggedMemory};
use fstack::ether::EthHdr;
use fstack::ip::Ipv4Hdr;
use fstack::tcp::TcpSegment;
use fstack::{FStack, StackConfig};
use simkern::rng::SimRng;
use simkern::{CostModel, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use updk::nic::MacAddr;
use updk::switch::LinkFabric;
use updk::wire::{Frame, ImpairmentStats, Impairments};

/// `ScenarioSpec::star(8)`, 40 ms, seed 21 (`tests/topology.rs`,
/// `tests/parallel_determinism.rs`).
pub const STAR8_DIGEST: u64 = 0x7058_1cb8_9ec9_993f;
/// `ScenarioSpec::dumbbell(2)`, 30 ms, seed 5, any congestion control
/// without loss (`tests/topology.rs`, `tests/tcp_protocol_scenarios.rs`).
pub const DUMBBELL2_DIGEST: u64 = 0x2f5c_6d13_5c37_4ec0;
/// The 2 %-lossy CUBIC + SACK 2-leaf star (`tests/tcp_protocol_scenarios.rs`).
pub const LOSSY_CUBIC_SACK_STAR_DIGEST: u64 = 0xf43a_92cb_6aa9_ae23;
/// The 1 %-lossy Reno-vs-CUBIC dumbbell (`tests/tcp_protocol_scenarios.rs`).
pub const RENO_VS_CUBIC_DUMBBELL_DIGEST: u64 = 0x989e_c990_e31a_738b;
/// The mixed-kind hub of `tests/app_order.rs`: ideal, charged, and
/// crashed and restarted.
pub const MIXED_HUB_GATED_DIGEST: u64 = 0x6bb0_fbd4_8693_e59f;
pub const MIXED_HUB_CHARGED_DIGEST: u64 = 0xc97c_1a6a_ab7a_750a;
pub const MIXED_HUB_RESTART_DIGEST: u64 = 0x4fa6_be8f_0852_3e5e;
/// `ScenarioSpec::star(16)` and `star(64)`, 40 ms, seed 7 (`tests/app_turn.rs`).
pub const STAR16_DIGEST: u64 = 0xb112_c6cf_dc6e_c447;
pub const STAR64_DIGEST: u64 = 0x18c1_7eda_ee2f_5833;
/// The same stars with every host charged 200 ns per `ff_*` call.
pub const STAR16_CHARGED_DIGEST: u64 = 0x903a_1040_008a_1978;
pub const STAR64_CHARGED_DIGEST: u64 = 0xe32a_aef6_385c_b73e;
/// The keep-alive httpd star at 350 µs and 4 ms think time
/// (`tests/httpd_churn.rs`).
pub const KEEPALIVE_FEW_OPEN_DIGEST: u64 = 0x1ccc_c70f_5fc3_2c1b;
pub const KEEPALIVE_MANY_OPEN_DIGEST: u64 = 0x0a9d_54b9_5072_ee65;
/// Figs. 4–6: every kind's `Summary` and removed fraction at 4 000
/// iterations, seed 42, `CostModel::morello()`, folded in
/// `ScenarioKind::all()` order (`tests/experiments_reproduce_paper.rs`).
pub const FIGS_4_6_DIGEST: u64 = 0x06a4_4379_03c8_8981;

/// Asserts that `trace` carries the pinned digest `want`, naming the
/// scenario and printing the digest it got.
pub fn assert_digest(what: &str, trace: &TraceDigest, want: u64) {
    assert_eq!(
        trace.digest, want,
        "{what}: got {:#018x}, pinned {want:#018x}",
        trace.digest
    );
}

/// Asserts that two runs simulated the same world: every [`SimOutcome`]
/// field the model produces. It leaves out what describes the engines that
/// ran it (`workers`, `lookahead_ns`, `rounds`, `calendar`) and `events`:
/// a sharded run executes each fault on every shard, so a faulted run's
/// event total depends on the shard plan. Callers that compare unfaulted
/// runs check `events` beside this.
pub fn assert_same_run(a: &SimOutcome, b: &SimOutcome, what: &str) {
    assert_eq!(a.trace, b.trace, "{what}: wire trace");
    assert_eq!(a.servers, b.servers, "{what}: server reports");
    assert_eq!(a.clients, b.clients, "{what}: client reports");
    assert_eq!(a.http_servers, b.http_servers, "{what}: http servers");
    assert_eq!(a.http_fleets, b.http_fleets, "{what}: http fleets");
    assert_eq!(a.chaos, b.chaos, "{what}: chaos reports");
    assert_eq!(a.ended_at, b.ended_at, "{what}: final instant");
    assert_eq!(a.horizon, b.horizon, "{what}: horizon");
    assert_eq!(a.counters, b.counters, "{what}: event counters");
    assert_eq!(a.port_stats, b.port_stats, "{what}: port stats");
    assert_eq!(a.stack_stats, b.stack_stats, "{what}: stack stats");
    assert_eq!(a.switch_stats, b.switch_stats, "{what}: switch stats");
    assert_eq!(a.mutex_stats, b.mutex_stats, "{what}: mutex stats");
    assert_eq!(a.impairment_stats, b.impairment_stats, "{what}: wire");
    assert_eq!(a.fault_stats, b.fault_stats, "{what}: fault counters");
}

/// A deterministic RNG for test inputs.
pub fn rng(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}

/// `len` pseudo-random bytes fully determined by `seed`.
pub fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut r = rng(seed);
    (0..len).map(|_| r.next_u64() as u8).collect()
}

/// The addresses of [`stack_pair`]'s two stacks.
pub const IP_A: Ipv4Addr = Ipv4Addr::new(10, 5, 0, 1);
pub const IP_B: Ipv4Addr = Ipv4Addr::new(10, 5, 0, 2);

/// Two stacks, `a` at [`IP_A`] and `b` at [`IP_B`], each with the other's
/// MAC in its ARP cache.
pub fn stack_pair() -> (FStack, FStack) {
    let mut a = FStack::new(StackConfig::new("a", MacAddr::local(1), IP_A));
    let mut b = FStack::new(StackConfig::new("b", MacAddr::local(2), IP_B));
    a.arp_cache_mut().insert_static(IP_B, MacAddr::local(2));
    b.arp_cache_mut().insert_static(IP_A, MacAddr::local(1));
    (a, b)
}

/// Hands every frame `a` and `b` owe across at `now`, round after round,
/// until both are quiet (at most 6 rounds).
pub fn pump(now: SimTime, a: &mut FStack, b: &mut FStack) {
    for _ in 0..6 {
        let fa = a.poll_tx(now);
        let fb = b.poll_tx(now);
        if fa.is_empty() && fb.is_empty() {
            break;
        }
        for f in fa {
            b.input_buf(now, &f);
        }
        for f in fb {
            a.input_buf(now, &f);
        }
    }
}

/// How far [`Lan::tick`] advances virtual time.
const TICK: SimDuration = SimDuration::from_micros(2);
/// One-way cable latency, host to switch and switch to host.
const WIRE_LATENCY: SimDuration = SimDuration::from_micros(1);
/// Each host's memory: one app buffer.
const APP_BYTES: u64 = 16 * 1024;

/// One frame handed to a host's stack: when, to which host, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    pub at_ns: u64,
    pub host: usize,
    pub bytes: Vec<u8>,
}

/// Where a frame on a cable is going: a switch port or a host's stack.
enum Hop {
    Switch(usize),
    Host(usize),
}

/// `n` stacks on one [`LinkFabric`] learning switch, host `i` on port `i`
/// at [`Lan::ip`]`(i)` with MAC `local(i + 1)`; ARP resolves over the
/// wire. Each [`Lan::tick`] polls every stack's transmit path, moves frames
/// host → switch → host by arrival instant and hands each arrival to the
/// stack. Impairments, drawn from the seed, apply on the host → switch hop.
pub struct Lan {
    hosts: Vec<(FStack, TaggedMemory)>,
    fabric: LinkFabric,
    costs: CostModel,
    impairments: Impairments,
    rng: SimRng,
    pub now: SimTime,
    /// Frames on a cable, by `(arrival, schedule order)`.
    in_flight: BTreeMap<(SimTime, u64), (Hop, Frame)>,
    next_seq: u64,
    /// Every frame handed to a stack, in delivery order.
    pub deliveries: Vec<Delivery>,
    pub wire_stats: ImpairmentStats,
    /// Partitions one TCP connection: frames from or to this TCP port
    /// vanish on the cable while every other flow keeps its wire.
    pub blackhole_tcp_port: Option<u16>,
}

impl Lan {
    /// Host `i`'s address: `10.88.0.(i + 1)`.
    pub fn ip(i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 88, 0, i as u8 + 1)
    }

    /// `n` hosts on ideal cables.
    pub fn new(n: usize) -> Self {
        Self::impaired(n, 0, Impairments::default())
    }

    /// `n` hosts whose cables draw `impairments` from `seed`.
    pub fn impaired(n: usize, seed: u64, impairments: Impairments) -> Self {
        let hosts = (0..n)
            .map(|i| {
                let mac = MacAddr::local(i as u8 + 1);
                let stack = FStack::new(StackConfig::new(format!("h{i}"), mac, Self::ip(i)));
                (stack, TaggedMemory::new(APP_BYTES))
            })
            .collect();
        Lan {
            hosts,
            fabric: LinkFabric::new(n, LinkFabric::DEFAULT_QUEUE),
            costs: CostModel::morello(),
            impairments,
            rng: rng(seed),
            now: SimTime::from_micros(5),
            in_flight: BTreeMap::new(),
            next_seq: 0,
            deliveries: Vec::new(),
            wire_stats: ImpairmentStats::default(),
            blackhole_tcp_port: None,
        }
    }

    pub fn stack(&mut self, i: usize) -> &mut FStack {
        &mut self.hosts[i].0
    }

    /// Host `i`'s stack and memory, for `ff_*` calls that take both.
    pub fn stack_and_mem(&mut self, i: usize) -> (&mut FStack, &mut TaggedMemory) {
        let (stack, mem) = &mut self.hosts[i];
        (stack, mem)
    }

    /// A `Perms::data()` capability over host `i`'s app buffer.
    pub fn app_buffer(&self, i: usize) -> Capability {
        let root = self.hosts[i].1.root_cap();
        root.try_restrict_perms(Perms::data()).unwrap()
    }

    pub fn fabric(&self) -> &LinkFabric {
        &self.fabric
    }

    /// `true` once no frame is on a cable.
    pub fn quiesced(&self) -> bool {
        self.in_flight.is_empty()
    }

    fn send(&mut self, hop: Hop, at: SimTime, frame: Frame) {
        self.in_flight.insert((at, self.next_seq), (hop, frame));
        self.next_seq += 1;
    }

    fn blackholed(&self, frame: &[u8]) -> bool {
        let Some(dark) = self.blackhole_tcp_port else {
            return false;
        };
        let tcp = EthHdr::parse(frame)
            .and_then(|(_, l3)| Ipv4Hdr::parse(l3))
            .and_then(|(ip, l4)| TcpSegment::parse(ip.src, ip.dst, l4));
        tcp.is_some_and(|seg| seg.src_port == dark || seg.dst_port == dark)
    }

    /// One round: every stack transmits, then every frame whose arrival
    /// instant has come moves one hop, in `(arrival, schedule order)`.
    pub fn tick(&mut self) {
        let now = self.now;
        let mut tx = Vec::new();
        for i in 0..self.hosts.len() {
            self.hosts[i].0.poll_tx_into(now, &mut tx);
            for fb in tx.drain(..) {
                let frame = Frame::from_buf(fb);
                if self.blackholed(frame.bytes()) {
                    continue;
                }
                let plan = self.impairments.plan(&mut self.rng, now + WIRE_LATENCY);
                self.wire_stats.absorb(plan.stats);
                for (at, corrupted) in plan.deliveries {
                    let copy = if corrupted {
                        frame.corrupted(&mut self.rng)
                    } else {
                        frame.clone()
                    };
                    self.send(Hop::Switch(i), at, copy);
                }
            }
        }

        let mut egress = Vec::new();
        while let Some(first) = self.in_flight.first_entry() {
            if first.key().0 > now {
                break;
            }
            let ((at, _), (hop, frame)) = first.remove_entry();
            match hop {
                Hop::Switch(port) => {
                    self.fabric
                        .ingress_into(port, at, frame, &self.costs, &mut egress);
                    for out in egress.drain(..) {
                        self.send(Hop::Host(out.port), out.departure + WIRE_LATENCY, out.frame);
                    }
                }
                Hop::Host(host) => {
                    self.deliveries.push(Delivery {
                        at_ns: at.as_nanos(),
                        host,
                        bytes: frame.bytes().to_vec(),
                    });
                    self.hosts[host].0.input_buf(now, frame.buf());
                }
            }
        }
        self.now += TICK;
    }
}
