//! The open-loop client fleet: one app stands in for thousands of users
//! hitting the serving plane.
//!
//! **Open-loop** means connection arrivals follow their own (Poisson)
//! clock regardless of how the server is coping — the defining property
//! of internet-facing load, and the reason overload shows up as queueing
//! (latency tails, backlog drops) instead of politely slowing the
//! generator down. Arrivals the fleet cannot launch (concurrency cap,
//! socket-table or ephemeral-port exhaustion) are *shed and counted*,
//! never deferred.
//!
//! Every random draw — inter-arrival gaps, think times, the
//! keep-alive/close-per-request mix, path choice, per-connection request
//! budgets — comes from one [`SimRng`] stream, drawn in a fixed order at
//! arrival time, so a run is a pure function of the seed. The
//! exponential sampler avoids libm (`ln`) entirely: IEEE-exact add /
//! multiply / divide only, keeping pinned digests portable across hosts.

use crate::http::{self, RespParse};
use crate::StepOutcome;
use cheri::{Capability, TaggedMemory};
use chos::errno::Errno;
use chos::fdtable::Fd;
use fstack::epoll::EpollFlags;
use fstack::socket::SockType;
use fstack::FStack;
use simkern::rng::SimRng;
use simkern::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

/// Fleet configuration: the load model for one leaf node.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The server to hit.
    pub target: (Ipv4Addr, u16),
    /// Mean connection arrivals per simulated second (Poisson).
    pub rate_per_sec: u64,
    /// Arrivals stop this long after the app starts; the fleet then
    /// drains its open connections and finishes.
    pub open_for: SimDuration,
    /// Base think time between requests on a keep-alive connection;
    /// heavy-tailed via [`SimRng::heavy_tail_ns`] (up to 64× base).
    pub think_ns: u64,
    /// Probability (‰) that a new connection is keep-alive (multiple
    /// requests with think gaps) rather than close-per-request churn.
    pub keep_alive_per_mille: u64,
    /// Request budget an individual keep-alive connection draws from
    /// `1..=requests_per_conn`, uniformly.
    pub requests_per_conn: u32,
    /// Concurrency cap: arrivals beyond this many open connections are
    /// shed (and counted).
    pub max_open: usize,
    /// Request paths, chosen uniformly per request.
    pub paths: Vec<String>,
    /// Probability (‰) that an arrival is a **slow-loris attacker**:
    /// a connection that drip-feeds its request header a few bytes at a
    /// time, withholds the final `CRLF CRLF`, and holds the socket open
    /// until the server sheds it. 0 disables the adversarial mode and
    /// leaves the RNG stream untouched (digest-compatible).
    pub loris_per_mille: u64,
    /// Bytes sent per drip on a loris connection.
    pub loris_drip_bytes: usize,
    /// Gap between drips on a loris connection.
    pub loris_drip_interval: SimDuration,
    /// Per-connection retry budget after a failure (refused, reset,
    /// early EOF, partition timeout, overload 503). 0 disables retries
    /// entirely — and consumes no RNG, keeping pre-retry digests intact.
    pub retry_budget: u32,
    /// Exponential backoff base: attempt `n` waits a uniformly drawn
    /// ("full jitter") delay in `[0, min(cap, base · 2ⁿ))`.
    pub retry_backoff_base: SimDuration,
    /// Ceiling on the backoff window.
    pub retry_backoff_cap: SimDuration,
    /// Probability (‰) that an arrival is a legacy **HTTP/1.0** client:
    /// one request, no `Connection` header, the version's implicit close.
    /// 0 disables the mix and leaves the RNG stream untouched.
    pub http10_per_mille: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            target: (Ipv4Addr::UNSPECIFIED, crate::HTTPD_PORT),
            rate_per_sec: 1000,
            open_for: SimDuration::from_millis(100),
            think_ns: 2_000_000,
            keep_alive_per_mille: 500,
            requests_per_conn: 8,
            max_open: 128,
            paths: vec!["/".to_string()],
            loris_per_mille: 0,
            loris_drip_bytes: 1,
            loris_drip_interval: SimDuration::from_millis(5),
            retry_budget: 0,
            retry_backoff_base: SimDuration::from_millis(2),
            retry_backoff_cap: SimDuration::from_millis(50),
            http10_per_mille: 0,
        }
    }
}

/// A deterministic exponential sample with mean `mean_ns`.
///
/// Uses only IEEE-754-exact operations (`+ - * /` are bit-specified;
/// libm's `ln` is not), so the stream is identical on every host a
/// pinned digest must reproduce on. Decomposes `-ln(u)` as
/// `k·ln2 - ln(v)` with `u = v·2^-k`, `v ∈ [0.5, 1)`, and evaluates
/// `ln(v)` by the artanh series at `w = (v-1)/(v+1)` (|w| ≤ 1/3, four
/// terms ⇒ error ~5e-6 — far inside the model's own noise).
fn exp_sample_ns(rng: &mut SimRng, mean_ns: u64) -> u64 {
    let bits = (rng.next_u64() >> 11) | 1; // 53 bits, nonzero
    let u = bits as f64 * (1.0 / (1u64 << 53) as f64);
    let mut v = u;
    let mut k = 0u32;
    while v < 0.5 {
        v *= 2.0;
        k += 1;
    }
    let w = (v - 1.0) / (v + 1.0);
    let w2 = w * w;
    let ln_v = 2.0 * w * (1.0 + w2 * (1.0 / 3.0 + w2 * (1.0 / 5.0 + w2 * (1.0 / 7.0))));
    let e = f64::from(k) * std::f64::consts::LN_2 - ln_v;
    (e * mean_ns as f64) as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CState {
    /// SYN sent; waiting for writability (or refusal).
    Connecting,
    /// Request bytes staged; pushing them through `ff_write`.
    Sending,
    /// Request fully written; collecting the response.
    Awaiting,
    /// Response done; idle until the think deadline.
    Thinking,
    /// Slow-loris attacker: drip-feeding the header, terminator withheld,
    /// holding the socket open until shed (or the open window closes).
    Dripping,
}

/// One in-flight user connection.
#[derive(Debug)]
struct FleetConn {
    fd: Fd,
    state: CState,
    /// Slow-loris attacker connection (drip-feeds, never completes).
    loris: bool,
    /// Keep-alive (multi-request) vs close-per-request.
    keep_alive: bool,
    /// Legacy HTTP/1.0 client (single request, implicit close).
    http10: bool,
    /// Which attempt this connection is (0 = the original arrival).
    attempt: u32,
    /// Requests still to issue on this connection (incl. the current).
    reqs_left: u64,
    /// Composed request bytes being written.
    out: Vec<u8>,
    out_off: usize,
    /// Response bytes collected so far.
    inbuf: Vec<u8>,
    /// When the current request's send began (latency measurement).
    sent_at: SimTime,
    /// Wake instant while [`CState::Thinking`].
    think_until: SimTime,
    /// Next drip instant while [`CState::Dripping`].
    next_drip: SimTime,
}

/// How a connection failed — decides the counter it lands in and whether
/// the fleet schedules a retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailKind {
    /// RST to our SYN.
    Refused,
    /// Reset after establishment.
    Reset,
    /// Server closed mid-response.
    EofEarly,
    /// TCP gave up retransmitting into a partition (`ETIMEDOUT`).
    Timeout,
    /// Overloaded server answered `503 Retry-After`.
    Http503,
}

/// What became of an attempt to open a connection ([`FleetApp::open_conn`]).
enum Open {
    /// The socket is connecting and has its entry in `conns`.
    Connecting,
    /// No room: `max_open` reached or the socket table full.
    Shed,
    /// No ephemeral port free against the target; the socket was closed.
    NoPort,
}

/// A failed connection waiting out its backoff before relaunch.
#[derive(Debug, Clone, Copy)]
struct Retry {
    /// Relaunch instant (failure time + jittered backoff).
    at: SimTime,
    /// Attempt number the relaunch will carry.
    attempt: u32,
    keep_alive: bool,
    http10: bool,
    /// Request budget to resume with.
    reqs_left: u64,
}

/// The fleet summary: error/shed accounting and the latency population.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Report label.
    pub label: String,
    /// Connections launched (SYN sent).
    pub conns_started: u64,
    /// Connections that ran to an orderly client-side close.
    pub conns_completed: u64,
    /// Requests answered 200.
    pub requests_ok: u64,
    /// Requests answered non-200 (404s, 429s).
    pub non200: u64,
    /// Connections refused (RST to our SYN).
    pub refused: u64,
    /// Connections reset after establishment.
    pub resets: u64,
    /// Server closed mid-response (EOF before a complete response).
    pub eof_early: u64,
    /// Arrivals shed at `ff_connect`: ephemeral range exhausted against
    /// the target (`EADDRNOTAVAIL`) — the port-recycling pressure gauge.
    pub addr_exhausted: u64,
    /// Arrivals shed before connecting (concurrency cap or socket-table
    /// exhaustion).
    pub shed: u64,
    /// Slow-loris attacker connections launched.
    pub loris_conns: u64,
    /// Loris connections the server detected and shed (EOF/reset while
    /// dripping) — the defence working.
    pub loris_shed: u64,
    /// Connections that died because TCP gave up retransmitting into a
    /// partition (`ETIMEDOUT` surfaced through the `ff_*` API).
    pub timeouts: u64,
    /// `503 Service Unavailable` answers received (server overload).
    pub http503: u64,
    /// Relaunches scheduled after failures (each is also counted in
    /// [`FleetReport::conns_started`] when it launches).
    pub retries: u64,
    /// Failures abandoned because the retry budget was exhausted (or the
    /// relaunch itself was shed).
    pub retry_giveups: u64,
    /// Connections that spoke HTTP/1.0 (the legacy-client mix).
    pub http10_conns: u64,
    /// Virtual-time instants (ns since boot) of every 200, sorted — the
    /// recovery-analysis series (time-to-first-success after a heal,
    /// goodput inside a partition window).
    pub ok_at_ns: Vec<u64>,
    /// Per-request latency population (request send → response fully
    /// parsed), nanoseconds, sorted ascending.
    pub latencies_ns: Vec<u64>,
    /// App start to last completion.
    pub elapsed: SimDuration,
}

impl FleetReport {
    /// Nearest-rank percentile of the latency population, in ns
    /// (0 when empty). `p` in `[0, 1]`.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let n = self.latencies_ns.len();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.latencies_ns[rank - 1]
    }

    /// p50 request latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.percentile_ns(0.50) as f64 / 1e3
    }

    /// p99 request latency in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.percentile_ns(0.99) as f64 / 1e3
    }

    /// p99.9 request latency in microseconds.
    pub fn p999_us(&self) -> f64 {
        self.percentile_ns(0.999) as f64 / 1e3
    }

    /// Completed requests per simulated second over `horizon`.
    pub fn requests_per_sec(&self, horizon: SimDuration) -> f64 {
        let secs = horizon.as_nanos() as f64 / 1e9;
        if secs > 0.0 {
            (self.requests_ok + self.non200) as f64 / secs
        } else {
            0.0
        }
    }

    /// Folds many per-leaf reports into one fleet-wide population
    /// (latencies re-sorted; counters summed; elapsed = max).
    pub fn aggregate(label: impl Into<String>, reports: &[FleetReport]) -> FleetReport {
        let mut agg = FleetReport {
            label: label.into(),
            ..FleetReport::default()
        };
        for r in reports {
            agg.conns_started += r.conns_started;
            agg.conns_completed += r.conns_completed;
            agg.requests_ok += r.requests_ok;
            agg.non200 += r.non200;
            agg.refused += r.refused;
            agg.resets += r.resets;
            agg.eof_early += r.eof_early;
            agg.addr_exhausted += r.addr_exhausted;
            agg.shed += r.shed;
            agg.loris_conns += r.loris_conns;
            agg.loris_shed += r.loris_shed;
            agg.timeouts += r.timeouts;
            agg.http503 += r.http503;
            agg.retries += r.retries;
            agg.retry_giveups += r.retry_giveups;
            agg.http10_conns += r.http10_conns;
            agg.ok_at_ns.extend_from_slice(&r.ok_at_ns);
            agg.latencies_ns.extend_from_slice(&r.latencies_ns);
            agg.elapsed = agg.elapsed.max(r.elapsed);
        }
        agg.ok_at_ns.sort_unstable();
        agg.latencies_ns.sort_unstable();
        agg
    }

    /// Connection amplification from retries: launches per original
    /// arrival (1.0 when nothing retried).
    pub fn retry_amplification(&self) -> f64 {
        let originals = self.conns_started.saturating_sub(self.retries);
        if originals == 0 {
            return 1.0;
        }
        self.conns_started as f64 / originals as f64
    }
}

/// The open-loop client fleet application.
#[derive(Debug)]
pub struct FleetApp {
    label: String,
    epfd: Fd,
    /// Capability-bounded scratch for `ff_read`/`ff_write` staging.
    buf: Capability,
    cfg: FleetConfig,
    rng: SimRng,
    started: SimTime,
    /// Next Poisson arrival instant.
    next_arrival: SimTime,
    /// Arrivals stop here.
    open_end: SimTime,
    conns: Vec<FleetConn>,
    /// Failed connections waiting out their backoff (insertion order).
    retry_queue: Vec<Retry>,
    /// [`FleetApp::next_deadline`]: the earliest of the clocks above, which
    /// only [`FleetApp::step`] moves — refreshed at its end (and at start),
    /// so the answer costs nothing per turn or park.
    clock: Option<SimTime>,
    conns_started: u64,
    conns_completed: u64,
    requests_ok: u64,
    non200: u64,
    refused: u64,
    resets: u64,
    eof_early: u64,
    addr_exhausted: u64,
    shed: u64,
    loris_conns: u64,
    loris_shed: u64,
    timeouts: u64,
    http503: u64,
    retries: u64,
    retry_giveups: u64,
    http10_conns: u64,
    ok_at_ns: Vec<u64>,
    latencies_ns: Vec<u64>,
    last_activity: Option<SimTime>,
}

impl FleetApp {
    /// Creates the fleet; the first arrival is scheduled one exponential
    /// gap after `now`.
    ///
    /// `seed` should derive from the scenario seed and this app's
    /// identity so parallel fleets draw independent streams.
    pub fn start(
        label: impl Into<String>,
        stack: &mut FStack,
        buf: Capability,
        cfg: FleetConfig,
        seed: u64,
        now: SimTime,
    ) -> Self {
        let epfd = stack.ff_epoll_create();
        let mut rng = SimRng::seed_from_u64(seed);
        let gap = match 1_000_000_000u64.checked_div(cfg.rate_per_sec) {
            Some(mean) => exp_sample_ns(&mut rng, mean),
            None => u64::MAX / 4,
        };
        let open_end = now + cfg.open_for;
        let mut fleet = FleetApp {
            label: label.into(),
            epfd,
            buf,
            cfg,
            rng,
            started: now,
            next_arrival: now + SimDuration::from_nanos(gap),
            open_end,
            conns: Vec::new(),
            retry_queue: Vec::new(),
            clock: None,
            conns_started: 0,
            conns_completed: 0,
            requests_ok: 0,
            non200: 0,
            refused: 0,
            resets: 0,
            eof_early: 0,
            addr_exhausted: 0,
            shed: 0,
            loris_conns: 0,
            loris_shed: 0,
            timeouts: 0,
            http503: 0,
            retries: 0,
            retry_giveups: 0,
            http10_conns: 0,
            ok_at_ns: Vec::new(),
            latencies_ns: Vec::new(),
            last_activity: None,
        };
        fleet.clock = fleet.earliest_clock();
        fleet
    }

    /// Open connection count.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// The next instant the app acts on its own clock — at or before
    /// `now` exactly when a step now would act without a stack event: the
    /// pending arrival (while the open window lasts), the earliest retry,
    /// think deadline or drip. `None` once all are exhausted — everything
    /// else is wire-driven and the node may park.
    pub fn next_deadline(&self, _now: SimTime) -> Option<SimTime> {
        self.clock
    }

    /// What [`FleetApp::next_deadline`] answers, computed: one walk over
    /// the open connections.
    fn earliest_clock(&self) -> Option<SimTime> {
        let mut d = if self.next_arrival <= self.open_end {
            Some(self.next_arrival)
        } else {
            None
        };
        for r in &self.retry_queue {
            if d.is_none_or(|cur| r.at < cur) {
                d = Some(r.at);
            }
        }
        for c in &self.conns {
            if c.state == CState::Thinking && d.is_none_or(|cur| c.think_until < cur) {
                d = Some(c.think_until);
            }
            if c.state == CState::Dripping && d.is_none_or(|cur| c.next_drip < cur) {
                d = Some(c.next_drip);
            }
        }
        d
    }

    /// The `ff_*` calls of a step that finds no fd changed and no clock
    /// ([`FleetApp::next_deadline`]) due: no arrival or retry launches,
    /// and each open connection makes the one call that finds it
    /// unchanged — the readiness probe of a pending connect, the write
    /// that finds no send space, the read that finds no response bytes,
    /// the attacker's probe for a server-side close — except a thinking
    /// one, which makes none.
    pub fn idle_calls(&self) -> u64 {
        let thinking = |c: &&FleetConn| c.state == CState::Thinking;
        (self.conns.len() - self.conns.iter().filter(thinking).count()) as u64
    }

    /// `true` once arrivals are exhausted and every connection (and
    /// pending retry) drained.
    pub fn is_done(&self, now: SimTime) -> bool {
        now >= self.open_end && self.conns.is_empty() && self.retry_queue.is_empty()
    }

    /// One poll-mode step: launch due arrivals, then advance every
    /// connection whose state can move.
    ///
    /// # Errors
    ///
    /// Unexpected socket errors (EAGAIN and expected failures are
    /// absorbed into the shed/error counters).
    pub fn step(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
    ) -> Result<StepOutcome, Errno> {
        // Every clock lives in state only a step changes; a step that fails
        // part-way has changed some of it too.
        let out = self.run_step(stack, mem, now);
        self.clock = self.earliest_clock();
        out
    }

    /// [`FleetApp::step`] but for the clock.
    fn run_step(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
    ) -> Result<StepOutcome, Errno> {
        let mut out = StepOutcome::default();
        // Open-loop arrivals: consume every due arrival instant, even
        // when the launch sheds — the clock never waits for capacity.
        while self.next_arrival <= now && self.next_arrival <= self.open_end {
            self.launch(stack, now, &mut out)?;
            let mean = 1_000_000_000 / self.cfg.rate_per_sec.max(1);
            let gap = exp_sample_ns(&mut self.rng, mean);
            self.next_arrival += SimDuration::from_nanos(gap.max(1));
        }
        // Relaunch failures whose backoff expired, in the order they were
        // scheduled (a retry that fails again re-enters the queue with
        // its next backoff, processed on a later step).
        let mut r = 0;
        while r < self.retry_queue.len() {
            if self.retry_queue[r].at <= now {
                let retry = self.retry_queue.remove(r);
                self.relaunch(stack, now, retry, &mut out)?;
            } else {
                r += 1;
            }
        }
        // Advance connections (index loop: completions swap_remove).
        let mut i = 0;
        while i < self.conns.len() {
            let keep = self.advance(stack, mem, now, i, &mut out)?;
            if keep {
                i += 1;
            }
        }
        out.finished = self.is_done(now);
        Ok(out)
    }

    /// Launches one arrival: all RNG draws happen first, in fixed order,
    /// so the stream is identical whether or not the launch sheds.
    fn launch(
        &mut self,
        stack: &mut FStack,
        now: SimTime,
        out: &mut StepOutcome,
    ) -> Result<(), Errno> {
        // Loris draw is short-circuited: with the knob at 0 (the default)
        // no RNG value is consumed and the stream — and every pinned
        // digest — is byte-identical to the pre-adversarial fleet.
        let loris =
            self.cfg.loris_per_mille > 0 && self.rng.chance_per_mille(self.cfg.loris_per_mille);
        let keep_alive = self.rng.chance_per_mille(self.cfg.keep_alive_per_mille);
        let reqs = if keep_alive {
            self.rng
                .range_inclusive(1, u64::from(self.cfg.requests_per_conn.max(1)))
        } else {
            1
        };
        // Appended last so enabling the legacy mix leaves every earlier
        // draw in the stream untouched; 0 (the default) draws nothing.
        let http10 =
            self.cfg.http10_per_mille > 0 && self.rng.chance_per_mille(self.cfg.http10_per_mille);
        // HTTP/1.0 clients are one-shot: no keep-alive, single request.
        let keep_alive = keep_alive && !http10;
        let reqs = if http10 { 1 } else { reqs };
        if let Open::Shed = self.open_conn(stack, now, (loris, keep_alive, http10, reqs, 0), out)? {
            self.shed += 1;
        }
        Ok(())
    }

    /// Relaunches one failed connection whose backoff expired: the same
    /// socket/connect path as [`FleetApp::launch`] but with the original
    /// arrival's draws carried over — a retry consumes no RNG beyond the
    /// jitter drawn when it was scheduled.
    fn relaunch(
        &mut self,
        stack: &mut FStack,
        now: SimTime,
        retry: Retry,
        out: &mut StepOutcome,
    ) -> Result<(), Errno> {
        let Retry {
            attempt,
            keep_alive,
            http10,
            reqs_left,
            ..
        } = retry;
        match self.open_conn(
            stack,
            now,
            (false, keep_alive, http10, reqs_left, attempt),
            out,
        )? {
            Open::Connecting => {}
            Open::Shed => {
                self.shed += 1;
                self.retry_giveups += 1;
            }
            // Port pressure is transient; burn another attempt.
            Open::NoPort => self.maybe_retry(attempt, keep_alive, http10, reqs_left, now),
        }
        Ok(())
    }

    /// The socket path of a launch and of a relaunch, given what was drawn
    /// for the connection as `(loris, keep_alive, http10, reqs_left,
    /// attempt)`: `ff_socket`, `ff_connect`, epoll registration, and the
    /// new entry in `conns`. Draws nothing itself.
    fn open_conn(
        &mut self,
        stack: &mut FStack,
        now: SimTime,
        (loris, keep_alive, http10, reqs_left, attempt): (bool, bool, bool, u64, u32),
        out: &mut StepOutcome,
    ) -> Result<Open, Errno> {
        if self.conns.len() >= self.cfg.max_open {
            return Ok(Open::Shed);
        }
        out.ff_calls += 1;
        let fd = match stack.ff_socket(SockType::Stream) {
            Ok(fd) => fd,
            // Socket table exhausted: shed this user.
            Err(Errno::EMFILE) => return Ok(Open::Shed),
            Err(e) => return Err(e),
        };
        out.ff_calls += 1;
        match stack.ff_connect(fd, self.cfg.target, now) {
            Ok(()) => {}
            Err(Errno::EADDRNOTAVAIL) => {
                // Every ephemeral port is quarantined against the target
                // (TIME_WAIT churn) — the exhaustion this workload is
                // built to provoke. Shed cleanly.
                self.addr_exhausted += 1;
                out.ff_calls += 1;
                stack.ff_close(fd)?;
                return Ok(Open::NoPort);
            }
            Err(e) => return Err(e),
        }
        out.ff_calls += 1;
        stack.ff_epoll_ctl_add(self.epfd, fd, EpollFlags::IN | EpollFlags::OUT)?;
        self.conns.push(FleetConn {
            fd,
            state: CState::Connecting,
            loris,
            keep_alive,
            http10,
            attempt,
            reqs_left,
            out: Vec::new(),
            out_off: 0,
            inbuf: Vec::new(),
            sent_at: now,
            think_until: now,
            next_drip: now,
        });
        self.conns_started += 1;
        if loris {
            self.loris_conns += 1;
        }
        if http10 {
            self.http10_conns += 1;
        }
        out.progressed = true;
        self.last_activity = Some(now);
        Ok(Open::Connecting)
    }

    /// Schedules a relaunch after a failure, if the budget allows:
    /// capped exponential backoff with **full jitter** (the delay is
    /// drawn uniformly from `[0, window)` at failure time, so every draw
    /// stays in deterministic schedule order). With the budget at 0 (the
    /// default) nothing is drawn and the RNG stream — and every
    /// pre-retry digest — is untouched.
    fn maybe_retry(
        &mut self,
        attempt: u32,
        keep_alive: bool,
        http10: bool,
        reqs_left: u64,
        now: SimTime,
    ) {
        if self.cfg.retry_budget == 0 {
            return;
        }
        if attempt >= self.cfg.retry_budget {
            self.retry_giveups += 1;
            return;
        }
        let base = self.cfg.retry_backoff_base.as_nanos().max(1);
        let cap = self.cfg.retry_backoff_cap.as_nanos().max(base);
        let window = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
        let delay = self.rng.below(window.max(1));
        self.retry_queue.push(Retry {
            at: now + SimDuration::from_nanos(delay),
            attempt: attempt + 1,
            keep_alive,
            http10,
            reqs_left: reqs_left.max(1),
        });
        self.retries += 1;
    }

    /// Tears down connection `i` after a failure: counts the kind, then
    /// (budget allowing) schedules the relaunch.
    fn fail_conn(
        &mut self,
        stack: &mut FStack,
        i: usize,
        kind: FailKind,
        now: SimTime,
        out: &mut StepOutcome,
    ) -> Result<(), Errno> {
        match kind {
            FailKind::Refused => self.refused += 1,
            FailKind::Reset => self.resets += 1,
            FailKind::EofEarly => self.eof_early += 1,
            FailKind::Timeout => self.timeouts += 1,
            FailKind::Http503 => self.http503 += 1,
        }
        let c = &self.conns[i];
        let (attempt, keep_alive, http10, reqs_left) =
            (c.attempt, c.keep_alive, c.http10, c.reqs_left.max(1));
        // A 503 is an orderly HTTP exchange; the wire-level failures are
        // not.
        self.finish_conn(stack, i, kind == FailKind::Http503, out)?;
        self.maybe_retry(attempt, keep_alive, http10, reqs_left, now);
        Ok(())
    }

    /// Composes the next request on connection `i` and enters
    /// [`CState::Sending`].
    fn compose_request(&mut self, i: usize, now: SimTime) {
        let path_i = self.rng.below(self.cfg.paths.len().max(1) as u64) as usize;
        let c = &mut self.conns[i];
        // `Connection: close` on close-per-request conns and on the last
        // request of a keep-alive budget; the *client* stays the active
        // closer either way (TIME_WAIT lands here, spread over leaves).
        let close = !c.keep_alive || c.reqs_left == 1;
        c.out.clear();
        c.out_off = 0;
        if c.http10 {
            // Legacy client: bare HTTP/1.0, no Connection header — the
            // server must apply the version's implicit close.
            http::build_request10(&self.cfg.paths[path_i], &mut c.out);
        } else {
            http::build_request(&self.cfg.paths[path_i], close, &mut c.out);
        }
        c.state = CState::Sending;
        c.sent_at = now;
    }

    /// Tears down connection `i` after counting its fate. The fd is
    /// closed (orderly unless already dead) and the entry removed.
    fn finish_conn(
        &mut self,
        stack: &mut FStack,
        i: usize,
        completed: bool,
        out: &mut StepOutcome,
    ) -> Result<(), Errno> {
        let c = self.conns.swap_remove(i);
        out.ff_calls += 1;
        stack.ff_close(c.fd)?;
        if completed {
            self.conns_completed += 1;
        }
        out.progressed = true;
        Ok(())
    }

    /// Advances connection `i`'s state machine. Returns `false` when the
    /// entry was removed (caller must not bump its index).
    fn advance(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
        i: usize,
        out: &mut StepOutcome,
    ) -> Result<bool, Errno> {
        let fd = self.conns[i].fd;
        match self.conns[i].state {
            CState::Connecting => {
                let r = stack.readiness(fd);
                out.ff_calls += 1;
                if r.contains(EpollFlags::ERR) {
                    // The SYN died. Probe the errno to tell a refusal
                    // (RST) from a partition (retransmission give-up).
                    out.ff_calls += 1;
                    let kind = match stack.ff_read(mem, fd, &self.buf, self.buf.len()) {
                        Err(Errno::ECONNREFUSED) => FailKind::Refused,
                        Err(Errno::ETIMEDOUT) => FailKind::Timeout,
                        _ => FailKind::Reset,
                    };
                    self.fail_conn(stack, i, kind, now, out)?;
                    return Ok(false);
                }
                if r.contains(EpollFlags::OUT) {
                    self.compose_request(i, now);
                    out.progressed = true;
                    self.last_activity = Some(now);
                    if self.conns[i].loris {
                        // Attacker path: same composed request, but fed a
                        // few bytes at a time with the terminator held back.
                        let c = &mut self.conns[i];
                        c.state = CState::Dripping;
                        c.next_drip = now;
                        return self.drip(stack, mem, now, i, out);
                    }
                    // Fall through to Sending on the next advance call;
                    // push the first bytes immediately.
                    return self.push_request(stack, mem, now, i, out);
                }
                Ok(true)
            }
            CState::Sending => self.push_request(stack, mem, now, i, out),
            CState::Awaiting => self.collect_response(stack, mem, now, i, out),
            CState::Dripping => self.drip(stack, mem, now, i, out),
            CState::Thinking => {
                if self.conns[i].think_until <= now {
                    self.compose_request(i, now);
                    out.progressed = true;
                    return self.push_request(stack, mem, now, i, out);
                }
                Ok(true)
            }
        }
    }

    /// Pushes connection `i`'s pending request bytes; enters
    /// [`CState::Awaiting`] once fully written.
    fn push_request(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
        i: usize,
        out: &mut StepOutcome,
    ) -> Result<bool, Errno> {
        let buf = self.buf;
        loop {
            let c = &mut self.conns[i];
            let pending = c.out.len() - c.out_off;
            if pending == 0 {
                c.state = CState::Awaiting;
                return Ok(true);
            }
            let chunk = pending.min(buf.len() as usize);
            mem.write(&buf, buf.base(), &c.out[c.out_off..c.out_off + chunk])
                .map_err(|_| Errno::EFAULT)?;
            out.ff_calls += 1;
            match stack.ff_write(mem, c.fd, &buf, chunk as u64) {
                Ok(n) => {
                    self.conns[i].out_off += n as usize;
                    out.bytes += n;
                    out.progressed = true;
                    self.last_activity = Some(now);
                }
                Err(Errno::EAGAIN) => return Ok(true),
                Err(Errno::ECONNREFUSED) => {
                    self.fail_conn(stack, i, FailKind::Refused, now, out)?;
                    return Ok(false);
                }
                Err(Errno::ECONNRESET) | Err(Errno::EPIPE) => {
                    self.fail_conn(stack, i, FailKind::Reset, now, out)?;
                    return Ok(false);
                }
                Err(Errno::ETIMEDOUT) => {
                    self.fail_conn(stack, i, FailKind::Timeout, now, out)?;
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One slow-loris turn on connection `i`: detect a server-side shed
    /// (EOF/reset means the idle-header reaper won), otherwise drip the
    /// next few header bytes — never the final `CRLF CRLF` — and hold.
    /// The attacker gives up when the open window closes.
    fn drip(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
        i: usize,
        out: &mut StepOutcome,
    ) -> Result<bool, Errno> {
        let fd = self.conns[i].fd;
        let buf = self.buf;
        // Probe for the server-side close first.
        out.ff_calls += 1;
        match stack.ff_read(mem, fd, &buf, buf.len()) {
            Ok(0) => {
                self.loris_shed += 1;
                self.finish_conn(stack, i, false, out)?;
                return Ok(false);
            }
            Ok(n) => {
                // A response to an unterminated header is unexpected;
                // swallow it and keep holding.
                out.bytes += n;
            }
            Err(Errno::EAGAIN) => {}
            Err(Errno::ECONNRESET) | Err(Errno::ECONNREFUSED) | Err(Errno::ETIMEDOUT) => {
                self.loris_shed += 1;
                self.finish_conn(stack, i, false, out)?;
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
        if now >= self.open_end {
            // Campaign window over: the attacker walks away.
            self.finish_conn(stack, i, false, out)?;
            return Ok(false);
        }
        if self.conns[i].next_drip > now {
            return Ok(true);
        }
        let withheld = 4.min(self.conns[i].out.len());
        let limit = self.conns[i].out.len() - withheld;
        let pending = limit.saturating_sub(self.conns[i].out_off);
        let chunk = pending
            .min(self.cfg.loris_drip_bytes.max(1))
            .min(buf.len() as usize);
        if chunk > 0 {
            let c = &self.conns[i];
            mem.write(&buf, buf.base(), &c.out[c.out_off..c.out_off + chunk])
                .map_err(|_| Errno::EFAULT)?;
            out.ff_calls += 1;
            match stack.ff_write(mem, fd, &buf, chunk as u64) {
                Ok(n) => {
                    self.conns[i].out_off += n as usize;
                    out.bytes += n;
                    out.progressed = true;
                    self.last_activity = Some(now);
                }
                Err(Errno::EAGAIN) => {}
                Err(Errno::ECONNRESET) | Err(Errno::EPIPE) | Err(Errno::ETIMEDOUT) => {
                    self.loris_shed += 1;
                    self.finish_conn(stack, i, false, out)?;
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        // Keep a drip-cadence heartbeat even when out of bytes to send:
        // the wake polls for the server's shed so `is_done` can converge.
        let gap = self.cfg.loris_drip_interval.as_nanos().max(1);
        self.conns[i].next_drip = now + SimDuration::from_nanos(gap);
        Ok(true)
    }

    /// Reads connection `i` until the response completes (or the server
    /// closes early), then closes, thinks, or pipelines the next
    /// request per the connection's budget.
    fn collect_response(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
        i: usize,
        out: &mut StepOutcome,
    ) -> Result<bool, Errno> {
        let fd = self.conns[i].fd;
        let buf = self.buf;
        let mut eof = false;
        loop {
            out.ff_calls += 1;
            match stack.ff_read(mem, fd, &buf, buf.len()) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    let chunk = mem
                        .read_vec(&buf, buf.base(), n)
                        .map_err(|_| Errno::EFAULT)?;
                    self.conns[i].inbuf.extend_from_slice(&chunk);
                    out.bytes += n;
                    out.progressed = true;
                    self.last_activity = Some(now);
                }
                Err(Errno::EAGAIN) => break,
                Err(Errno::ECONNRESET) | Err(Errno::ECONNREFUSED) => {
                    self.fail_conn(stack, i, FailKind::Reset, now, out)?;
                    return Ok(false);
                }
                Err(Errno::ETIMEDOUT) => {
                    self.fail_conn(stack, i, FailKind::Timeout, now, out)?;
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        match http::parse_response(&self.conns[i].inbuf) {
            RespParse::Complete {
                status,
                close,
                consumed,
            } => {
                let latency = (now - self.conns[i].sent_at).as_nanos();
                self.latencies_ns.push(latency);
                if status == 200 {
                    self.requests_ok += 1;
                    self.ok_at_ns.push(now.as_nanos());
                } else {
                    self.non200 += 1;
                }
                out.progressed = true;
                self.last_activity = Some(now);
                if status == 503 {
                    // Overload shed: the server said when to come back;
                    // close now and relaunch after backoff.
                    self.fail_conn(stack, i, FailKind::Http503, now, out)?;
                    return Ok(false);
                }
                let c = &mut self.conns[i];
                c.inbuf.drain(..consumed);
                c.reqs_left = c.reqs_left.saturating_sub(1);
                if c.reqs_left == 0 || !c.keep_alive || close {
                    // Orderly client-side active close: our FIN first,
                    // our TIME_WAIT, our ephemeral port quarantined.
                    self.finish_conn(stack, i, true, out)?;
                    return Ok(false);
                }
                // Think, heavy-tailed, then issue the next request.
                let think = self.rng.heavy_tail_ns(self.cfg.think_ns.max(1));
                let c = &mut self.conns[i];
                c.state = CState::Thinking;
                c.think_until = now + SimDuration::from_nanos(think);
                Ok(true)
            }
            RespParse::Partial => {
                if eof {
                    // Server closed before completing the response.
                    self.fail_conn(stack, i, FailKind::EofEarly, now, out)?;
                    return Ok(false);
                }
                Ok(true)
            }
            RespParse::Bad => {
                self.fail_conn(stack, i, FailKind::EofEarly, now, out)?;
                Ok(false)
            }
        }
    }

    /// Produces the fleet summary at `now` (latencies sorted).
    pub fn report(self, now: SimTime) -> FleetReport {
        let end = self.last_activity.unwrap_or(now).min(now);
        let mut latencies = self.latencies_ns;
        latencies.sort_unstable();
        let mut ok_at = self.ok_at_ns;
        ok_at.sort_unstable();
        FleetReport {
            label: self.label,
            conns_started: self.conns_started,
            conns_completed: self.conns_completed,
            requests_ok: self.requests_ok,
            non200: self.non200,
            refused: self.refused,
            resets: self.resets,
            eof_early: self.eof_early,
            addr_exhausted: self.addr_exhausted,
            shed: self.shed,
            loris_conns: self.loris_conns,
            loris_shed: self.loris_shed,
            timeouts: self.timeouts,
            http503: self.http503,
            retries: self.retries,
            retry_giveups: self.retry_giveups,
            http10_conns: self.http10_conns,
            ok_at_ns: ok_at,
            latencies_ns: latencies,
            elapsed: end - self.started,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri::Perms;
    use fstack::StackConfig;
    use updk::nic::MacAddr;

    /// The clock is computed where it moves: `start` schedules the first
    /// arrival, and a step that launches it names the next one.
    #[test]
    fn every_step_refreshes_the_clock() {
        let mut stack = FStack::new(StackConfig::new(
            "leaf",
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 2),
        ));
        let mut mem = TaggedMemory::new(1 << 16);
        let buf = mem
            .root_cap()
            .try_restrict(0, 4_096)
            .unwrap()
            .try_restrict_perms(Perms::data())
            .unwrap();
        let cfg = FleetConfig {
            target: (Ipv4Addr::new(10, 0, 0, 1), crate::HTTPD_PORT),
            rate_per_sec: 10_000,
            ..FleetConfig::default()
        };
        let mut fleet = FleetApp::start("fleet", &mut stack, buf, cfg, 7, SimTime::ZERO);
        let first = fleet.next_deadline(SimTime::ZERO).expect("an arrival");
        assert!(first > SimTime::ZERO);
        fleet.step(&mut stack, &mut mem, first).unwrap();
        assert_eq!(fleet.connections(), 1);
        let next = fleet.next_deadline(first).expect("the next arrival");
        assert!(next > first, "{next:?} after {first:?}");
        assert_eq!(Some(next), fleet.earliest_clock());
    }

    #[test]
    fn exp_sampler_is_deterministic_and_calibrated() {
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        let xs: Vec<u64> = (0..10_000).map(|_| exp_sample_ns(&mut a, 1_000)).collect();
        let ys: Vec<u64> = (0..10_000).map(|_| exp_sample_ns(&mut b, 1_000)).collect();
        assert_eq!(xs, ys, "same seed, same stream");
        let mean = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        assert!(
            (mean - 1_000.0).abs() < 50.0,
            "exponential mean drifted: {mean}"
        );
        // Memoryless tail: ~36.8% of samples exceed the mean.
        let over = xs.iter().filter(|&&x| x > 1_000).count() as f64 / xs.len() as f64;
        assert!((over - 0.368).abs() < 0.02, "tail mass {over}");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let r = FleetReport {
            latencies_ns: (1..=1000).collect(),
            ..FleetReport::default()
        };
        assert_eq!(r.percentile_ns(0.50), 500);
        assert_eq!(r.percentile_ns(0.99), 990);
        assert_eq!(r.percentile_ns(0.999), 999);
        assert_eq!(r.percentile_ns(1.0), 1000);
        assert_eq!(FleetReport::default().percentile_ns(0.5), 0);
    }

    #[test]
    fn aggregate_folds_populations() {
        let a = FleetReport {
            requests_ok: 3,
            latencies_ns: vec![30, 10],
            ..FleetReport::default()
        };
        let b = FleetReport {
            requests_ok: 2,
            non200: 1,
            latencies_ns: vec![20],
            ..FleetReport::default()
        };
        let agg = FleetReport::aggregate("all", &[a, b]);
        assert_eq!(agg.requests_ok, 5);
        assert_eq!(agg.non200, 1);
        assert_eq!(agg.latencies_ns, vec![10, 20, 30]);
        assert_eq!(agg.requests_per_sec(SimDuration::from_millis(100)), 60.0);
    }
}
