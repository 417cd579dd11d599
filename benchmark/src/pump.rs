//! The layer pump: a benchmark-owned two-host main loop with a span around
//! every call into a layer.
//!
//! Built, like `tests/testutil::TwoHost`, only from public calls —
//! `EthDev::rx_burst_shared` → `FStack::input_buf` → `EthDev::free_mbuf` →
//! application (`ff_write`/`ff_read`, or `HttpServerApp::step`) →
//! `FStack::poll_tx` → mbuf staging + `EthDev::tx_burst_shared` →
//! `EthDev::deliver` — so the per-layer host time of the datapath can be
//! read without instrumenting the crates. Five shapes run on it, each
//! mirroring the workload whose ledger it feeds (see [`Shape`]).
//!
//! What it cannot see is `NetSim`'s own node loop (event dispatch, parking,
//! dirty-fd routing, digest folding): that is what
//! `core.unattributed_share` is for.

use crate::json::Value;
use crate::trace::{Name, NameTotals, Tracer};
use capnet_httpd::http::{build_request, parse_response, RespParse};
use capnet_httpd::{HttpServerApp, HttpServerConfig, HTTPD_PORT};
use cheri::{Capability, Perms, TaggedMemory};
use chos::errno::Errno;
use chos::fdtable::Fd;
use fstack::socket::SockType;
use fstack::{CcAlgo, EpollFlags, FStack, StackConfig};
use simkern::{CostModel, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::time::Instant;
use updk::wire::{Frame, Impairments};
use updk::{BindingRegistry, EthDev, NicModel, PciAddress};

/// Arena layout per host — the sizes `NetSim` gives each node.
const MEM_BYTES: u64 = 4 << 20;
const POOL_BASE: u64 = 4096;
const POOL_BYTES: u64 = 1 << 20;
const APP_BASE: u64 = 2 << 20;
const APP_BYTES: u64 = 16 * 1024;
/// One-way cable latency.
const WIRE_LATENCY: SimDuration = SimDuration::from_micros(1);
/// RX burst size, as in `fstack::loop_::rx_phase`.
const RX_BURST: usize = 32;

const IP: [Ipv4Addr; 2] = [Ipv4Addr::new(10, 77, 0, 1), Ipv4Addr::new(10, 77, 0, 2)];
/// Host index of the client / sender.
const A: usize = 0;
/// Host index of the server / receiver.
const B: usize = 1;

/// One full stack: `ff_*` API over TCP/IP over a poll-mode port over
/// capability-tagged packet memory.
pub struct Host {
    pub stack: FStack,
    pub dev: EthDev,
    pub mem: TaggedMemory,
    /// `Perms::data()` capability over the host's application buffer.
    pub app_buf: Capability,
}

/// Two hosts on a cable, driven tick by tick.
pub struct Pump {
    hosts: [Host; 2],
    now: SimTime,
    tick: SimDuration,
    /// Frames in flight *towards* host `i`, in arrival order.
    wire: [VecDeque<(SimTime, Frame)>; 2],
    impairments: Impairments,
    rng: SimRng,
    tr: Tracer,
    /// Frames handed to a NIC by the wire.
    delivered: u64,
    /// Frames the impaired wire dropped.
    lost: u64,
    /// Set by a turn that moved a frame or whose app progressed.
    busy: bool,
}

/// Per-connection protocol knobs of a pump.
#[derive(Debug, Clone, Copy)]
struct Proto {
    cc: Option<CcAlgo>,
    sack: bool,
}

impl Pump {
    fn new(
        seed: u64,
        tick: SimDuration,
        impairments: Impairments,
        proto: Proto,
        tracer: Tracer,
    ) -> Result<Pump, String> {
        let mut kmod = BindingRegistry::new();
        let mut mk = |i: usize| -> Result<Host, String> {
            let addr = PciAddress::new(i as u8 + 1, 0, 0);
            kmod.discover(addr, "pump nic");
            kmod.bind_userspace(addr).map_err(|e| e.to_string())?;
            let mut dev = EthDev::new(addr, NicModel::Host, CostModel::morello());
            let mut mem = TaggedMemory::new(MEM_BYTES);
            let pool = mem
                .root_cap()
                .try_restrict(POOL_BASE, POOL_BYTES)
                .map_err(|e| e.to_string())?;
            dev.configure_port(0, &mut mem, pool, 512)
                .map_err(|e| e.to_string())?;
            dev.start(&kmod).map_err(|e| e.to_string())?;
            let app_buf = mem
                .root_cap()
                .try_restrict(APP_BASE, APP_BYTES)
                .and_then(|c| c.try_restrict_perms(Perms::data()))
                .map_err(|e| e.to_string())?;
            let mut cfg =
                StackConfig::new(format!("pump{i}"), dev.mac(0), IP[i]).with_sack(proto.sack);
            if let Some(cc) = proto.cc {
                cfg = cfg.with_cc(cc);
            }
            Ok(Host {
                stack: FStack::new(cfg),
                dev,
                mem,
                app_buf,
            })
        };
        let hosts = [mk(A)?, mk(B)?];
        Ok(Pump {
            hosts,
            now: SimTime::from_micros(5),
            tick,
            wire: [VecDeque::new(), VecDeque::new()],
            impairments,
            rng: SimRng::seed_from_u64(seed),
            tr: tracer,
            delivered: 0,
            lost: 0,
            busy: false,
        })
    }

    /// One main-loop turn of host `side`: RX ring → stack → `app` → stack
    /// → TX ring → wire. `app` returns whether it changed anything.
    fn turn(
        &mut self,
        side: usize,
        mut app: impl FnMut(&mut Host, &mut Tracer, SimTime) -> Result<bool, String>,
    ) -> Result<(), String> {
        let now = self.now;
        let tr = &mut self.tr;
        let host = &mut self.hosts[side];
        let turn = tr.enter(Name::Turn, 0);

        let s = tr.enter(Name::RxBurst, 0);
        let rx = host
            .dev
            .rx_burst_shared(0, now, RX_BURST, &mut host.mem)
            .map_err(|e| e.to_string())?;
        tr.exit(s);
        self.busy |= !rx.is_empty();
        for (mbuf, frame) in rx {
            let s = tr.enter(Name::InputBuf, 0);
            host.stack.input_buf(now, frame.buf());
            tr.exit(s);
            let s = tr.enter(Name::FreeMbuf, 0);
            host.dev.free_mbuf(0, mbuf);
            tr.exit(s);
        }

        let s = tr.enter(Name::App, 0);
        self.busy |= app(host, tr, now)?;
        tr.exit(s);

        let s = tr.enter(Name::PollTx, 0);
        let out = host.stack.poll_tx(now);
        tr.exit(s);
        if !out.is_empty() {
            self.busy = true;
            // Staging (the capability-checked DMA write into packet
            // memory) belongs to the TX burst, as in `loop_::tx_phase`.
            let s = tr.enter(Name::TxBurst, 0);
            let mut batch = Vec::with_capacity(out.len());
            for fb in out {
                let mut m = host.dev.alloc_mbuf(0).map_err(|e| e.to_string())?;
                m.set_data(&mut host.mem, &fb).map_err(|e| e.to_string())?;
                batch.push((m, Frame::from_buf(fb)));
            }
            let sent = host
                .dev
                .tx_burst_shared(0, now, batch)
                .map_err(|e| e.to_string())?;
            tr.exit(s);
            for (frame, departure) in sent {
                let plan = self
                    .impairments
                    .plan(&mut self.rng, departure + WIRE_LATENCY);
                self.lost += plan.stats.lost;
                for (at, corrupted) in plan.deliveries {
                    // The pump's impaired shape is loss-only, so arrival
                    // order is departure order and a FIFO is exact.
                    debug_assert!(!corrupted);
                    self.wire[1 - side].push_back((at, frame.clone()));
                }
            }
        }
        tr.exit(turn);
        Ok(())
    }

    /// Hands every frame whose arrival instant has come to its NIC.
    fn deliver_due(&mut self) {
        let now = self.now;
        if !self
            .wire
            .iter()
            .any(|q| q.front().is_some_and(|(at, _)| *at <= now))
        {
            return;
        }
        let root = self.tr.enter(Name::Wire, 0);
        for dst in [A, B] {
            while self.wire[dst].front().is_some_and(|(at, _)| *at <= now) {
                let (at, frame) = self.wire[dst].pop_front().expect("front checked");
                let s = self.tr.enter(Name::Deliver, 0);
                self.hosts[dst].dev.deliver(0, at, frame);
                self.tr.exit(s);
                self.delivered += 1;
            }
        }
        self.tr.exit(root);
    }

    /// Advances virtual time by one tick — or, when nothing moved this
    /// tick and nothing is in flight, straight to the next protocol or
    /// application deadline (an RTO wait is hundreds of idle ticks).
    fn advance(&mut self, app_deadline: Option<SimTime>) {
        let next = self.now + self.tick;
        let quiet = !self.busy
            && self.wire.iter().all(VecDeque::is_empty)
            && self.hosts.iter().all(|h| h.dev.rx_pending(0) == 0);
        self.busy = false;
        if quiet {
            let deadline = self
                .hosts
                .iter_mut()
                .filter_map(|h| h.stack.next_timer_deadline())
                .chain(app_deadline)
                .min();
            if let Some(d) = deadline {
                self.now = d.max(next);
                return;
            }
        }
        self.now = next;
    }
}

/// The pump shapes, each reported under the workload it mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Bulk transfer on an ideal cable — `paper_s2c_bulk`, `star128_*`.
    Bulk,
    /// Bulk with 2 % loss, Cubic and SACK — `lossy_wan_sack`.
    Lossy,
    /// Request/response over N established keep-alive connections —
    /// `httpd_keepalive`.
    KeepAlive(usize),
    /// Connect, GET, close at the churn workload's per-leaf arrival rate —
    /// `httpd_churn`.
    Churn,
}

impl Shape {
    pub fn label(self) -> String {
        match self {
            Shape::Bulk => "bulk".into(),
            Shape::Lossy => "lossy".into(),
            Shape::KeepAlive(n) => format!("keepalive_n{n}"),
            Shape::Churn => "churn".into(),
        }
    }
}

/// What one pump run measured.
#[derive(Debug, Clone)]
pub struct ShapeRun {
    pub shape: Shape,
    /// Host time of the main loop (set-up excluded).
    pub wall_ns: u64,
    /// Virtual time the loop covered.
    pub sim_ns: u64,
    /// Frames the wire handed to a NIC.
    pub frames: u64,
    pub lost: u64,
    /// Operations completed: payload bytes (bulk shapes), requests
    /// (keep-alive), connections (churn).
    pub ops: u64,
    /// Per-name totals, indexed like [`Name::ALL`]; all zero untraced.
    pub totals: [NameTotals; Name::ALL.len()],
    pub spans: usize,
    pub spans_dropped: u64,
    /// The first [`SPAN_HEAD`] spans as recorded, for the results file.
    pub span_head: Value,
    /// `ff_epoll_wait_into` over the server's N connections, ns per call
    /// (keep-alive shapes only).
    pub epoll_wait_ns: Option<f64>,
}

impl ShapeRun {
    pub fn total(&self, name: Name) -> NameTotals {
        self.totals[name as usize]
    }
}

/// Spans of each traced run written to the results file.
const SPAN_HEAD: usize = 64;

/// How much work each shape does at scale 1.
const BULK_BYTES: u64 = 64 << 20;
const LOSSY_BYTES: u64 = 16 << 20;
const KEEPALIVE_REQUESTS: u64 = 40_000;
const CHURN_CONNS: u64 = 8_000;
/// Keep-alive requests in flight at once (bounded by the packet pools).
const KEEPALIVE_WINDOW: usize = 32;
/// Virtual gap between churn arrivals: 16 000 conn/s, one leaf's rate.
const CHURN_GAP: SimDuration = SimDuration::from_nanos(62_500);

/// Runs `shape` once, with spans when `traced`, at `1/scale` of its size.
///
/// # Errors
///
/// A driver or socket failure, or an output check that did not hold (the
/// receiver must get exactly what was sent; every request a 200).
pub fn run(shape: Shape, seed: u64, scale: u64, traced: bool) -> Result<ShapeRun, String> {
    let scale = scale.max(1);
    match shape {
        Shape::Bulk => bulk(shape, seed, BULK_BYTES / scale, traced),
        Shape::Lossy => bulk(shape, seed, LOSSY_BYTES / scale, traced),
        Shape::KeepAlive(n) => keepalive(shape, seed, n, KEEPALIVE_REQUESTS / scale, traced),
        Shape::Churn => churn(shape, seed, CHURN_CONNS / scale, traced),
    }
}

fn finish(shape: Shape, p: Pump, t0: Instant, start: SimTime, ops: u64) -> ShapeRun {
    ShapeRun {
        shape,
        wall_ns: t0.elapsed().as_nanos() as u64,
        sim_ns: (p.now - start).as_nanos(),
        frames: p.delivered,
        lost: p.lost,
        ops,
        totals: p.tr.totals(),
        spans: p.tr.recorded(),
        span_head: p.tr.head_json(SPAN_HEAD),
        spans_dropped: p.tr.dropped(),
        epoll_wait_ns: None,
    }
}

/// `Ok(n)`/would-block as `Some(n)`/`None`; anything else is an error.
fn nonblocking(r: Result<u64, Errno>, what: &str) -> Result<Option<u64>, String> {
    match r {
        Ok(n) => Ok(Some(n)),
        Err(Errno::EAGAIN) => Ok(None),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

fn bulk(shape: Shape, seed: u64, total: u64, traced: bool) -> Result<ShapeRun, String> {
    let lossy = shape == Shape::Lossy;
    let (imp, proto) = if lossy {
        (
            Impairments::lossy(20),
            Proto {
                cc: Some(CcAlgo::Cubic),
                sack: true,
            },
        )
    } else {
        (
            Impairments::default(),
            Proto {
                cc: None,
                sack: false,
            },
        )
    };
    // ~1.5 frames per 1448 payload bytes (data + ACK), ~7 spans a frame,
    // plus three per turn; generous so nothing is dropped.
    let cap = (total / 1448 * 16 + (1 << 20)) as usize;
    let mut p = Pump::new(
        seed,
        SimDuration::from_micros(10),
        imp,
        proto,
        Tracer::new(traced, cap),
    )?;

    let port = 5201;
    let lfd = p.hosts[B]
        .stack
        .ff_socket(SockType::Stream)
        .map_err(|e| e.to_string())?;
    p.hosts[B]
        .stack
        .ff_bind(lfd, port)
        .map_err(|e| e.to_string())?;
    p.hosts[B]
        .stack
        .ff_listen(lfd, 4)
        .map_err(|e| e.to_string())?;
    let cfd = p.hosts[A]
        .stack
        .ff_socket(SockType::Stream)
        .map_err(|e| e.to_string())?;
    let now = p.now;
    p.hosts[A]
        .stack
        .ff_connect(cfd, (IP[B], port), now)
        .map_err(|e| e.to_string())?;
    // A seeded pattern, so the receiver-side byte sum is an output check.
    let pattern: Vec<u8> = {
        let mut r = SimRng::seed_from_u64(seed ^ 0xB01C);
        (0..APP_BYTES).map(|_| r.next_u64() as u8).collect()
    };
    {
        let h = &mut p.hosts[A];
        h.mem
            .write(&h.app_buf, h.app_buf.base(), &pattern)
            .map_err(|e| e.to_string())?;
    }

    let (mut wrote, mut received, mut closed) = (0u64, 0u64, false);
    let mut accepted: Option<Fd> = None;
    let (mut sum_sent, mut sum_got) = (0u64, 0u64);
    let byte_sum = |bytes: &[u8]| bytes.iter().map(|&b| u64::from(b)).sum::<u64>();
    // 2 % loss can cost a few RTOs; an ideal cable needs ~1 tick a frame.
    let max_ticks = total / 1448 * 40 + 2_000_000;
    let start = p.now;
    let t0 = Instant::now();
    for _ in 0..max_ticks {
        p.turn(A, |h, tr, _| {
            if wrote < total {
                let want = (total - wrote).min(APP_BYTES);
                let s = tr.enter(Name::FfWrite, 0);
                let r = h.stack.ff_write(&mut h.mem, cfd, &h.app_buf, want);
                tr.exit(s);
                match r {
                    Ok(n) => {
                        sum_sent += byte_sum(&pattern[..n as usize]);
                        wrote += n;
                        Ok(true)
                    }
                    // Not yet established, or the send buffer is full.
                    Err(Errno::EAGAIN) | Err(Errno::EPIPE) => Ok(false),
                    Err(e) => Err(format!("ff_write: {e}")),
                }
            } else if !closed {
                let s = tr.enter(Name::Close, 0);
                h.stack.ff_close(cfd).map_err(|e| e.to_string())?;
                tr.exit(s);
                closed = true;
                Ok(true)
            } else {
                Ok(false)
            }
        })?;
        p.turn(B, |h, tr, _| {
            if accepted.is_none() {
                accepted = h.stack.ff_accept(lfd).ok();
            }
            let Some(fd) = accepted else {
                return Ok(false);
            };
            let mut moved = false;
            loop {
                let s = tr.enter(Name::FfRead, 0);
                let r = h.stack.ff_read(&mut h.mem, fd, &h.app_buf, APP_BYTES);
                tr.exit(s);
                match nonblocking(r, "ff_read")? {
                    Some(n) if n > 0 => {
                        let got = h
                            .mem
                            .view(&h.app_buf, h.app_buf.base(), n)
                            .map_err(|e| e.to_string())?;
                        sum_got += byte_sum(got);
                        received += n;
                        moved = true;
                    }
                    _ => break,
                }
            }
            Ok(moved)
        })?;
        p.deliver_due();
        if received >= total && closed {
            break;
        }
        p.advance(None);
    }
    let run = finish(shape, p, t0, start, received);
    if received != total || sum_got != sum_sent {
        return Err(format!(
            "{}: sent {wrote} B (sum {sum_sent}), received {received} B (sum {sum_got})",
            shape.label()
        ));
    }
    if lossy && run.lost == 0 {
        return Err("lossy: the impaired wire lost nothing".into());
    }
    Ok(run)
}

/// A client-side HTTP connection of the keep-alive and churn shapes.
struct ClientConn {
    fd: Fd,
    inbuf: Vec<u8>,
    /// Request id of the request in flight (0 = idle).
    req: u32,
}

/// Reads what is ready on `c` and reports whether a full response is in.
fn read_response(h: &mut Host, tr: &mut Tracer, c: &mut ClientConn) -> Result<bool, String> {
    loop {
        let s = tr.enter(Name::FfRead, c.req);
        let r = h.stack.ff_read(&mut h.mem, c.fd, &h.app_buf, APP_BYTES);
        tr.exit(s);
        match nonblocking(r, "client ff_read")? {
            Some(n) if n > 0 => {
                let got = h
                    .mem
                    .view(&h.app_buf, h.app_buf.base(), n)
                    .map_err(|e| e.to_string())?;
                c.inbuf.extend_from_slice(got);
            }
            _ => break,
        }
    }
    match parse_response(&c.inbuf) {
        RespParse::Complete {
            status, consumed, ..
        } => {
            if status != 200 {
                return Err(format!("request {} answered {status}", c.req));
            }
            c.inbuf.drain(..consumed);
            Ok(true)
        }
        RespParse::Partial => Ok(false),
        RespParse::Bad => Err(format!("request {}: malformed response", c.req)),
    }
}

/// Stages `request` in the app buffer and writes it on `fd`.
fn send_request(
    h: &mut Host,
    tr: &mut Tracer,
    fd: Fd,
    req: u32,
    request: &[u8],
) -> Result<bool, String> {
    h.mem
        .write(&h.app_buf, h.app_buf.base(), request)
        .map_err(|e| e.to_string())?;
    let s = tr.enter(Name::FfWrite, req);
    let r = h
        .stack
        .ff_write(&mut h.mem, fd, &h.app_buf, request.len() as u64);
    tr.exit(s);
    match r {
        Ok(n) if n == request.len() as u64 => Ok(true),
        Ok(n) => Err(format!("request {req}: short write of {n} B")),
        // Handshake still in flight.
        Err(Errno::EAGAIN) | Err(Errno::EPIPE) => Ok(false),
        Err(e) => Err(format!("client ff_write: {e}")),
    }
}

fn server_turn(p: &mut Pump, server: &mut HttpServerApp) -> Result<(), String> {
    p.turn(B, |h, tr, now| {
        let s = tr.enter(Name::ServerStep, 0);
        let out = server.step(&mut h.stack, &mut h.mem, now);
        tr.exit(s);
        out.map(|o| o.progressed)
            .map_err(|e| format!("server step: {e}"))
    })
}

fn start_server(p: &mut Pump) -> Result<HttpServerApp, String> {
    let h = &mut p.hosts[B];
    HttpServerApp::start(
        &mut h.stack,
        "pump-httpd",
        HTTPD_PORT,
        h.app_buf,
        HttpServerConfig::default(),
    )
    .map_err(|e| e.to_string())
}

fn keepalive(
    shape: Shape,
    seed: u64,
    conns: usize,
    requests: u64,
    traced: bool,
) -> Result<ShapeRun, String> {
    let cap = (requests * 64 + (1 << 20)) as usize;
    let proto = Proto {
        cc: None,
        sack: false,
    };
    let mut p = Pump::new(
        seed,
        SimDuration::from_micros(10),
        Impairments::default(),
        proto,
        Tracer::new(false, 0),
    )?;
    let mut server = start_server(&mut p)?;
    let mut request = Vec::new();
    build_request("/", false, &mut request);

    // Establish the N connections untraced and untimed, a listen backlog's
    // worth at a time: the shape measures serving over them, not opening
    // them (that is the churn shape).
    let mut pool: Vec<ClientConn> = Vec::with_capacity(conns);
    let mut opening: Vec<Fd> = Vec::new();
    let mut guard = 0u64;
    while server.connections() < conns {
        guard += 1;
        if guard > 4_000_000 {
            return Err(format!(
                "{}: only {} of {conns} connections established",
                shape.label(),
                server.connections()
            ));
        }
        p.turn(A, |h, _, now| {
            let mut moved = false;
            while pool.len() + opening.len() < conns && opening.len() < KEEPALIVE_WINDOW {
                let fd = h
                    .stack
                    .ff_socket(SockType::Stream)
                    .map_err(|e| e.to_string())?;
                h.stack
                    .ff_connect(fd, (IP[B], HTTPD_PORT), now)
                    .map_err(|e| e.to_string())?;
                opening.push(fd);
                moved = true;
            }
            opening.retain(|&fd| {
                let up = h.stack.readiness(fd).contains(EpollFlags::OUT);
                if up {
                    pool.push(ClientConn {
                        fd,
                        inbuf: Vec::new(),
                        req: 0,
                    });
                }
                !up
            });
            Ok(moved)
        })?;
        server_turn(&mut p, &mut server)?;
        p.deliver_due();
        p.advance(None);
    }

    // The measured part: a closed loop of KEEPALIVE_WINDOW requests in
    // flight, walking round-robin over all N connections.
    p.tr = Tracer::new(traced, cap);
    let (mut sent, mut done) = (0u64, 0u64);
    let mut cursor = 0usize;
    let mut in_flight: Vec<usize> = Vec::with_capacity(KEEPALIVE_WINDOW);
    let max_ticks = requests * 50 + 1_000_000;
    let start = p.now;
    let t0 = Instant::now();
    for _ in 0..max_ticks {
        p.turn(A, |h, tr, _| {
            let mut moved = false;
            let mut i = 0;
            while i < in_flight.len() {
                let c = &mut pool[in_flight[i]];
                if read_response(h, tr, c)? {
                    c.req = 0;
                    done += 1;
                    in_flight.swap_remove(i);
                    moved = true;
                } else {
                    i += 1;
                }
            }
            while sent < requests && in_flight.len() < KEEPALIVE_WINDOW.min(conns) {
                let idx = cursor % conns;
                cursor += 1;
                if pool[idx].req != 0 {
                    continue;
                }
                let req = (sent + 1) as u32;
                if !send_request(h, tr, pool[idx].fd, req, &request)? {
                    return Err(format!(
                        "request {req}: established connection not writable"
                    ));
                }
                pool[idx].req = req;
                in_flight.push(idx);
                sent += 1;
                moved = true;
            }
            Ok(moved)
        })?;
        server_turn(&mut p, &mut server)?;
        p.deliver_due();
        if done >= requests {
            break;
        }
        p.advance(None);
    }
    if done != requests {
        return Err(format!(
            "{}: {done} of {requests} requests answered",
            shape.label()
        ));
    }
    if server.connections() != conns {
        return Err(format!(
            "{}: {} of {conns} connections still open",
            shape.label(),
            server.connections()
        ));
    }

    // With the N connections still established: what one readiness scan
    // over them costs (the server's own epoll fd is private, so an equal
    // set is registered on a second one).
    let epoll_wait_ns = {
        let fds: Vec<Fd> = server.conn_fds().to_vec();
        let stack = &mut p.hosts[B].stack;
        let epfd = stack.ff_epoll_create();
        for fd in fds {
            stack
                .ff_epoll_ctl_add(epfd, fd, EpollFlags::IN | EpollFlags::OUT)
                .map_err(|e| e.to_string())?;
        }
        let mut events = Vec::new();
        crate::probes::ns_per_op(2_000, || {
            stack
                .ff_epoll_wait_into(epfd, &mut events)
                .expect("epoll fd was just created");
            std::hint::black_box(events.len());
        })
    };
    let mut run = finish(shape, p, t0, start, done);
    run.epoll_wait_ns = Some(epoll_wait_ns);
    Ok(run)
}

fn churn(shape: Shape, seed: u64, conns: u64, traced: bool) -> Result<ShapeRun, String> {
    let cap = (conns * 160 + (1 << 20)) as usize;
    let proto = Proto {
        cc: None,
        sack: false,
    };
    let mut p = Pump::new(
        seed,
        SimDuration::from_nanos(12_500),
        Impairments::default(),
        proto,
        Tracer::new(traced, cap),
    )?;
    let mut server = start_server(&mut p)?;
    let mut request = Vec::new();
    build_request("/", true, &mut request);

    /// Where one churn connection is in its life.
    enum Stage {
        /// SYN sent; the GET goes out once the socket is writable.
        Opening,
        /// GET sent; waiting for the whole response.
        Waiting,
    }
    let mut open: Vec<(ClientConn, Stage)> = Vec::new();
    let (mut launched, mut done) = (0u64, 0u64);
    let mut next_arrival = p.now;
    let max_ticks = conns * 200 + 1_000_000;
    let start = p.now;
    let t0 = Instant::now();
    for _ in 0..max_ticks {
        p.turn(A, |h, tr, now| {
            let mut moved = false;
            // Open loop in virtual time: arrivals are due on a schedule
            // and never wait for the previous connection.
            while launched < conns && now >= next_arrival {
                let req = (launched + 1) as u32;
                let s = tr.enter(Name::Connect, req);
                let fd = h
                    .stack
                    .ff_socket(SockType::Stream)
                    .map_err(|e| format!("ff_socket: {e}"))?;
                h.stack
                    .ff_connect(fd, (IP[B], HTTPD_PORT), now)
                    .map_err(|e| format!("ff_connect: {e}"))?;
                tr.exit(s);
                open.push((
                    ClientConn {
                        fd,
                        inbuf: Vec::new(),
                        req,
                    },
                    Stage::Opening,
                ));
                launched += 1;
                next_arrival += CHURN_GAP;
                moved = true;
            }
            let mut i = 0;
            while i < open.len() {
                let (c, stage) = &mut open[i];
                match stage {
                    Stage::Opening => {
                        if h.stack.readiness(c.fd).contains(EpollFlags::OUT)
                            && send_request(h, tr, c.fd, c.req, &request)?
                        {
                            *stage = Stage::Waiting;
                            moved = true;
                        }
                        i += 1;
                    }
                    Stage::Waiting => {
                        if read_response(h, tr, c)? {
                            // Client-active close: TIME_WAIT lands here,
                            // as it does on the fleet's leaves.
                            let s = tr.enter(Name::Close, c.req);
                            h.stack
                                .ff_close(c.fd)
                                .map_err(|e| format!("ff_close: {e}"))?;
                            tr.exit(s);
                            open.swap_remove(i);
                            done += 1;
                            moved = true;
                        } else {
                            i += 1;
                        }
                    }
                }
            }
            Ok(moved)
        })?;
        server_turn(&mut p, &mut server)?;
        p.deliver_due();
        if done >= conns {
            break;
        }
        p.advance((launched < conns).then_some(next_arrival));
    }
    if done != conns {
        return Err(format!("churn: {done} of {conns} connections completed"));
    }
    Ok(finish(shape, p, t0, start, done))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_delivers_every_byte_and_spans_partition_the_loop() {
        let run = run(Shape::Bulk, 7, 256, true).unwrap();
        assert_eq!(run.ops, BULK_BYTES / 256);
        assert!(run.frames > run.ops / 1448, "data frames plus ACKs");
        assert_eq!(run.spans_dropped, 0);
        // Every frame the wire delivered was polled and fed to a stack.
        assert_eq!(run.total(Name::Deliver).calls, run.frames);
        assert_eq!(run.total(Name::InputBuf).calls, run.frames);
        assert_eq!(run.total(Name::FreeMbuf).calls, run.frames);
        // Self times of all names add up to the two roots' durations.
        let self_sum: u64 = run.totals.iter().map(|t| t.self_ns).sum();
        let roots = run.total(Name::Turn).total_ns + run.total(Name::Wire).total_ns;
        assert_eq!(self_sum, roots);
        assert!(roots <= run.wall_ns);
    }

    #[test]
    fn untraced_runs_record_no_spans() {
        let run = run(Shape::Bulk, 7, 512, false).unwrap();
        assert_eq!(run.spans, 0);
        assert!(run.totals.iter().all(|t| t.calls == 0));
        assert!(run.wall_ns > 0 && run.sim_ns > 0);
    }

    #[test]
    fn lossy_recovers_what_the_wire_drops() {
        let run = run(Shape::Lossy, 7, 32, true).unwrap();
        assert!(run.lost > 0);
        assert_eq!(run.ops, LOSSY_BYTES / 32);
    }

    #[test]
    fn keepalive_serves_every_request_over_all_connections() {
        let run = run(Shape::KeepAlive(8), 7, 100, true).unwrap();
        assert_eq!(run.ops, KEEPALIVE_REQUESTS / 100);
        assert!(run.total(Name::ServerStep).calls > 0);
        assert!(run.total(Name::FfWrite).calls >= run.ops);
        assert!(run.epoll_wait_ns.unwrap() > 0.0);
    }

    #[test]
    fn churn_opens_and_closes_every_connection() {
        let run = run(Shape::Churn, 7, 40, true).unwrap();
        assert_eq!(run.ops, CHURN_CONNS / 40);
        assert_eq!(run.total(Name::Connect).calls, run.ops);
        assert_eq!(run.total(Name::Close).calls, run.ops);
    }
}
