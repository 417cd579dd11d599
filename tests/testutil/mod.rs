//! Shared support for the root integration tests.
//!
//! Three pieces, matching what deterministic end-to-end suites need:
//!
//! * **seeded RNG helpers** — [`rng`] and [`seeded_bytes`] wrap
//!   [`SimRng::seed_from_u64`] so test inputs derive from one `u64` seed;
//! * **a two-host topology builder** — [`TwoHost`] wires two full stacks
//!   (`FStack` over `EthDev` over capability-tagged packet memory) back to
//!   back over an optionally impaired cable, and drives both poll-mode main
//!   loops tick by tick;
//! * **packet-capture assertions** — every frame delivery is recorded in a
//!   [`Trace`]; [`Trace::assert_identical`] pinpoints the first divergence
//!   (tick, direction, byte offset) instead of just failing.
//!
//! All randomness in a `TwoHost` run flows from the constructor seed, so a
//! run is a pure function of `(seed, impairments, workload)` — which is the
//! property `tests/harness_determinism.rs` locks in.
//!
//! A fourth piece, [`SwitchedSegment`], generalizes the builder from a
//! cable to a shared L2 segment: N full stacks on one
//! [`updk::switch::LinkFabric`] learning switch, every delivery recorded,
//! for broadcast/ARP and flood-behavior suites.
//!
//! Last, the pinned `NetSim` trace digests (`SimOutcome::trace`): one named
//! const per scenario, checked through [`assert_digest`]. A digest moves
//! only with a change that *intends* to alter wire behaviour (or the
//! digest itself), and the assertion prints the value it got, so such a
//! re-pin is one test run.

#![allow(dead_code)]

use capnet::TraceDigest;
use cheri::{Capability, Perms, TaggedMemory};
use chos::Errno;
use fstack::ether::EthHdr;
use fstack::ip::Ipv4Hdr;
use fstack::loop_::iterate;
use fstack::socket::SockType;
use fstack::tcp::TcpSegment;
use fstack::{FStack, StackConfig};
use simkern::rng::SimRng;
use simkern::{CostModel, SimDuration, SimTime};
use std::net::Ipv4Addr;
use updk::kmod::{BindingRegistry, PciAddress};
use updk::nic::{MacAddr, NicModel};
use updk::switch::LinkFabric;
use updk::wire::{Frame, ImpairmentStats, Impairments};
use updk::EthDev;

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
/// The mixed-kind hub of `tests/app_order.rs`: gated, charged, and
/// crashed and restarted.
pub const MIXED_HUB_GATED_DIGEST: u64 = 0x6bb0_fbd4_8693_e59f;
pub const MIXED_HUB_CHARGED_DIGEST: u64 = 0xc97c_1a6a_ab7a_750a;
pub const MIXED_HUB_RESTART_DIGEST: u64 = 0x4fa6_be8f_0852_3e5e;
/// `ScenarioSpec::star(16)` and `star(64)`, 40 ms, seed 7 (`tests/app_turn.rs`).
pub const STAR16_DIGEST: u64 = 0xb112_c6cf_dc6e_c447;
pub const STAR64_DIGEST: u64 = 0x18c1_7eda_ee2f_5833;
/// The keep-alive httpd star at 350 µs and 4 ms think time
/// (`tests/httpd_churn.rs`).
pub const KEEPALIVE_FEW_OPEN_DIGEST: u64 = 0x1ccc_c70f_5fc3_2c1b;
pub const KEEPALIVE_MANY_OPEN_DIGEST: u64 = 0x0a9d_54b9_5072_ee65;

/// Asserts that `trace` carries the pinned digest `want`, naming the
/// scenario and printing the digest it got.
pub fn assert_digest(what: &str, trace: &TraceDigest, want: u64) {
    assert_eq!(
        trace.digest, want,
        "{what}: got {:#018x}, pinned {want:#018x}",
        trace.digest
    );
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

/// Which way a frame crossed the cable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    AtoB,
    BtoA,
}

/// One recorded frame delivery: what arrived, where, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub at_ns: u64,
    pub dir: Dir,
    pub bytes: Vec<u8>,
}

/// The byte-exact record of every frame delivered over a [`TwoHost`] run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
}

impl Trace {
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// FNV-1a over every event (instant, direction and payload bytes), so
    /// two traces compare with one `u64`.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for ev in &self.events {
            for b in ev.at_ns.to_le_bytes() {
                eat(b);
            }
            eat(match ev.dir {
                Dir::AtoB => 0xA,
                Dir::BtoA => 0xB,
            });
            for b in (ev.bytes.len() as u32).to_le_bytes() {
                eat(b);
            }
            for &b in &ev.bytes {
                eat(b);
            }
        }
        h
    }

    /// Asserts byte-identical traces, reporting the first divergence (event
    /// index, then byte offset within the frame) on failure.
    pub fn assert_identical(&self, other: &Trace) {
        let n = self.events.len().min(other.events.len());
        for i in 0..n {
            let (a, b) = (&self.events[i], &other.events[i]);
            assert_eq!(
                (a.at_ns, a.dir),
                (b.at_ns, b.dir),
                "trace diverges at event {i}: {:?} vs {:?}",
                (a.at_ns, a.dir, a.bytes.len()),
                (b.at_ns, b.dir, b.bytes.len()),
            );
            if a.bytes != b.bytes {
                let off = a
                    .bytes
                    .iter()
                    .zip(&b.bytes)
                    .position(|(x, y)| x != y)
                    .unwrap_or(a.bytes.len().min(b.bytes.len()));
                panic!(
                    "trace diverges at event {i}, byte {off}: \
                     frame lengths {} vs {}, bytes {:?} vs {:?}",
                    a.bytes.len(),
                    b.bytes.len(),
                    a.bytes.get(off),
                    b.bytes.get(off),
                );
            }
        }
        assert_eq!(
            self.events.len(),
            other.events.len(),
            "traces agree on the first {n} events but have different lengths"
        );
    }
}

/// How far each tick advances virtual time.
const TICK: SimDuration = SimDuration::from_micros(2);
/// One-way cable latency.
const WIRE_LATENCY: SimDuration = SimDuration::from_micros(1);
/// Per-host arena size and packet-pool layout (mirrors the root tests).
const MEM_BYTES: u64 = 1 << 21;
const POOL_BASE: u64 = 4096;
const POOL_BYTES: u64 = 1 << 19;
const APP_BASE: u64 = 1 << 20;
const APP_BYTES: u64 = 16 * 1024;

struct Host {
    stack: FStack,
    dev: EthDev,
    mem: TaggedMemory,
}

/// One side of the topology, as an index (`A` is the client side by
/// convention in the workload helpers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    A,
    B,
}

/// A frame copy scheduled to arrive at one host.
struct InFlight {
    at: SimTime,
    seq: u64,
    dir: Dir,
    frame: Frame,
}

/// Two full stacks cabled back to back, every layer in between real:
/// `ff_*` API → TCP/UDP → IP → Ethernet → poll-mode driver → mempool-backed
/// mbufs in capability-tagged memory → (impaired) wire.
pub struct TwoHost {
    a: Host,
    b: Host,
    costs: CostModel,
    pub now: SimTime,
    impairments: Impairments,
    rng: SimRng,
    in_flight: Vec<InFlight>,
    next_seq: u64,
    pub trace: Trace,
    pub wire_stats: ImpairmentStats,
    /// Partition one TCP connection: frames either host sends from or to
    /// this TCP port vanish on the cable (its peer "goes silent") while
    /// every other flow keeps its ideal wire.
    pub blackhole_tcp_port: Option<u16>,
}

/// The TCP `(source, destination)` ports of an Ethernet/IPv4 frame.
fn tcp_ports(frame: &[u8]) -> Option<(u16, u16)> {
    let (_, l3) = EthHdr::parse(frame)?;
    let (ip, l4) = Ipv4Hdr::parse(l3)?;
    let seg = TcpSegment::parse(ip.src, ip.dst, l4)?;
    Some((seg.src_port, seg.dst_port))
}

pub const IP_A: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 1);
pub const IP_B: Ipv4Addr = Ipv4Addr::new(10, 77, 0, 2);

impl TwoHost {
    /// An ideal cable: determinism should not depend on the seed at all.
    pub fn new(seed: u64) -> Self {
        Self::with_impairments(seed, Impairments::default())
    }

    /// A degraded cable whose loss/corruption/duplication/reordering draws
    /// all come from `seed`.
    pub fn with_impairments(seed: u64, impairments: Impairments) -> Self {
        let costs = CostModel::morello();
        let mut kmod = BindingRegistry::new();
        let mut mk = |bus: u8| {
            let addr = PciAddress::new(bus, 0, 0);
            kmod.discover(addr, "testutil nic");
            kmod.bind_userspace(addr).unwrap();
            let mut dev = EthDev::new(addr, NicModel::Host, CostModel::morello());
            let mut mem = TaggedMemory::new(MEM_BYTES);
            let pool = mem.root_cap().try_restrict(POOL_BASE, POOL_BYTES).unwrap();
            dev.configure_port(0, &mut mem, pool, 256).unwrap();
            (dev, mem)
        };
        let (dev_a, mem_a) = mk(1);
        let (dev_b, mem_b) = mk(2);
        let mut a = Host {
            stack: FStack::new(StackConfig::new("a", dev_a.mac(0), IP_A)),
            dev: dev_a,
            mem: mem_a,
        };
        let mut b = Host {
            stack: FStack::new(StackConfig::new("b", dev_b.mac(0), IP_B)),
            dev: dev_b,
            mem: mem_b,
        };
        a.dev.start(&kmod).unwrap();
        b.dev.start(&kmod).unwrap();
        TwoHost {
            a,
            b,
            costs,
            now: SimTime::from_micros(5),
            impairments,
            rng: rng(seed),
            in_flight: Vec::new(),
            next_seq: 0,
            trace: Trace::default(),
            wire_stats: ImpairmentStats::default(),
            blackhole_tcp_port: None,
        }
    }

    fn host(&mut self, side: Side) -> &mut Host {
        match side {
            Side::A => &mut self.a,
            Side::B => &mut self.b,
        }
    }

    pub fn stack(&mut self, side: Side) -> &mut FStack {
        &mut self.host(side).stack
    }

    /// Both the stack and its backing memory, for `ff_*` calls that take
    /// the arena by `&mut` alongside the stack.
    pub fn stack_and_mem(&mut self, side: Side) -> (&mut FStack, &mut TaggedMemory) {
        let h = self.host(side);
        (&mut h.stack, &mut h.mem)
    }

    pub fn mem(&mut self, side: Side) -> &mut TaggedMemory {
        &mut self.host(side).mem
    }

    /// A `Perms::data()` capability over the host's app-buffer region.
    pub fn app_buffer(&mut self, side: Side) -> Capability {
        self.host(side)
            .mem
            .root_cap()
            .try_restrict(APP_BASE, APP_BYTES)
            .unwrap()
            .try_restrict_perms(Perms::data())
            .unwrap()
    }

    fn schedule(&mut self, dir: Dir, frame: Frame, departure: SimTime) {
        if let (Some(dark), Some((src, dst))) = (self.blackhole_tcp_port, tcp_ports(frame.bytes()))
        {
            if src == dark || dst == dark {
                return;
            }
        }
        let nominal = departure + WIRE_LATENCY;
        let plan = self.impairments.plan(&mut self.rng, nominal);
        self.wire_stats.absorb(plan.stats);
        for (at, corrupted) in plan.deliveries {
            let frame = if corrupted {
                frame.corrupted(&mut self.rng)
            } else {
                frame.clone()
            };
            self.in_flight.push(InFlight {
                at,
                seq: self.next_seq,
                dir,
                frame,
            });
            self.next_seq += 1;
        }
    }

    /// One round: run both main loops, put their TX frames on the wire, and
    /// deliver (and record) everything whose arrival instant has come.
    pub fn tick(&mut self) {
        let now = self.now;
        let out_a = iterate(
            &mut self.a.stack,
            &mut self.a.dev,
            0,
            &mut self.a.mem,
            now,
            &self.costs,
        )
        .unwrap();
        for (f, dep) in out_a.tx {
            self.schedule(Dir::AtoB, f, dep);
        }
        let out_b = iterate(
            &mut self.b.stack,
            &mut self.b.dev,
            0,
            &mut self.b.mem,
            now,
            &self.costs,
        )
        .unwrap();
        for (f, dep) in out_b.tx {
            self.schedule(Dir::BtoA, f, dep);
        }

        // Deliver in (arrival, schedule-order) order so late (reordered)
        // copies land behind frames sent after them, deterministically.
        self.in_flight.sort_by_key(|p| (p.at, p.seq));
        while let Some(first) = self.in_flight.first() {
            if first.at > now {
                break;
            }
            let p = self.in_flight.remove(0);
            self.trace.events.push(TraceEvent {
                at_ns: p.at.as_nanos(),
                dir: p.dir,
                bytes: p.frame.bytes().to_vec(),
            });
            match p.dir {
                Dir::AtoB => self.b.dev.deliver(0, p.at, p.frame),
                Dir::BtoA => self.a.dev.deliver(0, p.at, p.frame),
            }
        }
        self.now += TICK;
    }

    /// Drives a TCP bulk transfer of `total` bytes of seeded payload from A
    /// to B (server on `port`), for at most `max_ticks` rounds. Returns the
    /// bytes B received, which equal the bytes sent iff TCP recovered from
    /// whatever the wire did.
    pub fn run_tcp_transfer(&mut self, port: u16, total: u64, max_ticks: usize) -> u64 {
        let lfd = self.b.stack.ff_socket(SockType::Stream).unwrap();
        self.b.stack.ff_bind(lfd, port).unwrap();
        self.b.stack.ff_listen(lfd, 4).unwrap();
        let cfd = self.a.stack.ff_socket(SockType::Stream).unwrap();
        let now = self.now;
        self.a.stack.ff_connect(cfd, (IP_B, port), now).unwrap();

        let pay = self.app_buffer(Side::A);
        let pattern = seeded_bytes(0x5EED_0000 | u64::from(port), APP_BYTES as usize);
        self.a.mem.write(&pay, pay.base(), &pattern).unwrap();
        let sink = self.app_buffer(Side::B);

        let mut accepted = None;
        let mut wrote = 0u64;
        let mut closed = false;
        let mut received = 0u64;
        for _ in 0..max_ticks {
            self.tick();
            if accepted.is_none() {
                accepted = self.b.stack.ff_accept(lfd).ok();
            }
            if wrote < total {
                let want = (total - wrote).min(pay.len());
                match self.a.stack.ff_write(&mut self.a.mem, cfd, &pay, want) {
                    Ok(n) => wrote += n,
                    Err(Errno::EAGAIN) | Err(Errno::EPIPE) => {}
                    Err(e) => panic!("ff_write: {e}"),
                }
            } else if !closed {
                self.a.stack.ff_close(cfd).unwrap();
                closed = true;
            }
            if let Some(fd) = accepted {
                loop {
                    match self.b.stack.ff_read(&mut self.b.mem, fd, &sink, sink.len()) {
                        Ok(0) => break,
                        Ok(n) => received += n,
                        Err(_) => break,
                    }
                }
            }
            if received >= total && closed {
                break;
            }
        }
        received
    }

    /// Sends one seeded UDP datagram per tick from A to B (bound on `port`)
    /// and drains B's socket every tick. Returns the datagrams B received,
    /// in arrival order.
    pub fn run_udp_burst(&mut self, port: u16, count: usize, max_ticks: usize) -> Vec<Vec<u8>> {
        let sfd = self.b.stack.ff_socket(SockType::Dgram).unwrap();
        self.b.stack.ff_bind(sfd, port).unwrap();
        let cfd = self.a.stack.ff_socket(SockType::Dgram).unwrap();

        let pay = self.app_buffer(Side::A);
        let sink = self.app_buffer(Side::B);
        let mut sent = 0usize;
        let mut got = Vec::new();
        for _ in 0..max_ticks {
            if sent < count {
                let dgram = seeded_bytes(0xD6_0000 + sent as u64, 256 + (sent % 512));
                self.a.mem.write(&pay, pay.base(), &dgram).unwrap();
                self.a
                    .stack
                    .ff_sendto(&mut self.a.mem, cfd, &pay, dgram.len() as u64, (IP_B, port))
                    .unwrap();
                sent += 1;
            }
            self.tick();
            while let Ok((n, _from)) = self.b.stack.ff_recvfrom(&mut self.b.mem, sfd, &sink) {
                got.push(self.b.mem.read_vec(&sink, sink.base(), n).unwrap());
            }
            if sent == count && self.in_flight.is_empty() && got.len() >= count {
                break;
            }
        }
        got
    }
}

/// One recorded delivery on a [`SwitchedSegment`]: when, to which host,
/// and the exact frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegDelivery {
    pub at_ns: u64,
    pub host: usize,
    pub bytes: Vec<u8>,
}

/// N full stacks on one [`LinkFabric`] learning switch: host `i` sits on
/// fabric port `i`, every layer in between is real (as in [`TwoHost`]),
/// and every frame the fabric delivers to a host is recorded. Ideal
/// cables; the fabric's own queues and flooding are the object under test.
pub struct SwitchedSegment {
    hosts: Vec<Host>,
    macs: Vec<MacAddr>,
    fabric: LinkFabric,
    costs: CostModel,
    pub now: SimTime,
    /// Frames in flight toward the switch: `(arrival, seq, ingress port)`.
    to_switch: Vec<(SimTime, u64, usize, Frame)>,
    /// Frames in flight from the switch: `(arrival, seq, host)`.
    to_host: Vec<(SimTime, u64, usize, Frame)>,
    next_seq: u64,
    /// Every frame handed to a host NIC, in delivery order.
    pub deliveries: Vec<SegDelivery>,
}

impl SwitchedSegment {
    /// Host `i`'s address: `10.88.0.(i + 1)`.
    pub fn ip(i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, 88, 0, (i + 1) as u8)
    }

    /// Builds `n` hosts on an `n`-port fabric.
    pub fn new(n: usize) -> Self {
        assert!((2..=200).contains(&n), "segment size out of range: {n}");
        let costs = CostModel::morello();
        let mut kmod = BindingRegistry::new();
        let mut hosts = Vec::with_capacity(n);
        let mut macs = Vec::with_capacity(n);
        for i in 0..n {
            let addr = PciAddress::new((i + 1) as u8, 0, 0);
            kmod.discover(addr, "segment nic");
            kmod.bind_userspace(addr).unwrap();
            let mut dev = EthDev::new(addr, NicModel::Host, CostModel::morello());
            let mut mem = TaggedMemory::new(MEM_BYTES);
            let pool = mem.root_cap().try_restrict(POOL_BASE, POOL_BYTES).unwrap();
            dev.configure_port(0, &mut mem, pool, 256).unwrap();
            dev.start(&kmod).unwrap();
            macs.push(dev.mac(0));
            let stack = FStack::new(StackConfig::new(format!("h{i}"), dev.mac(0), Self::ip(i)));
            hosts.push(Host { stack, dev, mem });
        }
        SwitchedSegment {
            hosts,
            macs,
            fabric: LinkFabric::new(n, LinkFabric::DEFAULT_QUEUE),
            costs,
            now: SimTime::from_micros(5),
            to_switch: Vec::new(),
            to_host: Vec::new(),
            next_seq: 0,
            deliveries: Vec::new(),
        }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Segments are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Host `i`'s stack.
    pub fn stack(&mut self, i: usize) -> &mut FStack {
        &mut self.hosts[i].stack
    }

    /// Host `i`'s NIC MAC.
    pub fn mac(&self, i: usize) -> MacAddr {
        self.macs[i]
    }

    /// The fabric under the segment.
    pub fn fabric(&self) -> &LinkFabric {
        &self.fabric
    }

    /// A `Perms::data()` capability over host `i`'s app-buffer region.
    pub fn app_buffer(&mut self, i: usize) -> Capability {
        self.hosts[i]
            .mem
            .root_cap()
            .try_restrict(APP_BASE, APP_BYTES)
            .unwrap()
            .try_restrict_perms(Perms::data())
            .unwrap()
    }

    /// Whether host `i` has host `j`'s MAC in its ARP cache.
    pub fn resolved(&mut self, i: usize, j: usize) -> bool {
        let want = self.macs[j];
        self.hosts[i].stack.arp_cache_mut().lookup(Self::ip(j)) == Some(want)
    }

    /// One round: run every host's main loop, move frames host → fabric →
    /// host(s) respecting each hop's arrival instant, record deliveries.
    pub fn tick(&mut self) {
        let now = self.now;
        for i in 0..self.hosts.len() {
            let h = &mut self.hosts[i];
            let out = iterate(&mut h.stack, &mut h.dev, 0, &mut h.mem, now, &self.costs).unwrap();
            for (frame, dep) in out.tx {
                self.to_switch
                    .push((dep + WIRE_LATENCY, self.next_seq, i, frame));
                self.next_seq += 1;
            }
        }

        // Fabric ingress for everything that has reached it, in arrival
        // order (seq breaks ties deterministically).
        self.to_switch.sort_by_key(|e| (e.0, e.1));
        while let Some(first) = self.to_switch.first() {
            if first.0 > now {
                break;
            }
            let (at, _, port, frame) = self.to_switch.remove(0);
            for tx in self.fabric.ingress(port, at, frame, &self.costs) {
                self.to_host.push((
                    tx.departure + WIRE_LATENCY,
                    self.next_seq,
                    tx.port,
                    tx.frame,
                ));
                self.next_seq += 1;
            }
        }

        // Host deliveries that have arrived.
        self.to_host.sort_by_key(|e| (e.0, e.1));
        while let Some(first) = self.to_host.first() {
            if first.0 > now {
                break;
            }
            let (at, _, host, frame) = self.to_host.remove(0);
            self.deliveries.push(SegDelivery {
                at_ns: at.as_nanos(),
                host,
                bytes: frame.bytes().to_vec(),
            });
            self.hosts[host].dev.deliver(0, at, frame);
        }
        self.now += TICK;
    }

    /// `true` once nothing is in flight in either direction.
    pub fn quiesced(&self) -> bool {
        self.to_switch.is_empty() && self.to_host.is_empty()
    }

    /// Every host sends one UDP datagram to every other host (bound on
    /// `port`), forcing a full mesh of ARP resolutions, then runs up to
    /// `max_ticks`. Returns the datagrams each host received.
    pub fn mesh_udp(&mut self, port: u16, max_ticks: usize) -> Vec<Vec<Vec<u8>>> {
        let n = self.hosts.len();
        let mut rx_fds = Vec::with_capacity(n);
        let mut tx_fds = Vec::with_capacity(n);
        for i in 0..n {
            let rfd = self.hosts[i].stack.ff_socket(SockType::Dgram).unwrap();
            self.hosts[i].stack.ff_bind(rfd, port).unwrap();
            rx_fds.push(rfd);
            tx_fds.push(self.hosts[i].stack.ff_socket(SockType::Dgram).unwrap());
        }
        for (i, &tfd) in tx_fds.iter().enumerate() {
            let pay = self.app_buffer(i);
            for j in 0..n {
                if i == j {
                    continue;
                }
                // Payload encodes (sender, receiver) so every frame on the
                // segment is unique.
                let dgram = [b"mesh:".as_slice(), &[i as u8, j as u8]].concat();
                let h = &mut self.hosts[i];
                h.mem.write(&pay, pay.base(), &dgram).unwrap();
                h.stack
                    .ff_sendto(
                        &mut h.mem,
                        tfd,
                        &pay,
                        dgram.len() as u64,
                        (Self::ip(j), port),
                    )
                    .unwrap();
            }
        }
        let mut got = vec![Vec::new(); n];
        for _ in 0..max_ticks {
            self.tick();
            for (i, &rfd) in rx_fds.iter().enumerate() {
                let sink = self.app_buffer(i);
                loop {
                    let h = &mut self.hosts[i];
                    match h.stack.ff_recvfrom(&mut h.mem, rfd, &sink) {
                        Ok((nbytes, _from)) => {
                            let d = self.hosts[i]
                                .mem
                                .read_vec(&sink, sink.base(), nbytes)
                                .unwrap();
                            got[i].push(d);
                        }
                        Err(_) => break,
                    }
                }
            }
            let done = got.iter().all(|g| g.len() >= n - 1);
            if done && self.quiesced() {
                break;
            }
        }
        got
    }
}
