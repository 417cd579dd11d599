//! The HTTP/1.1 server application: accept, parse (pipelined), respond
//! from a static route table, rate-limit per client, bound connection
//! lifetimes.
//!
//! Poll-mode like the iperf apps: the scenario driver calls
//! [`HttpServerApp::step`] when one of the app's fds changed. Server
//! progress is input-driven (accepts, request bytes, ACKs opening send
//! space), so with the idle-header reaper disabled the app needs no
//! timer deadline of its own and a quiescence-aware driver can park the
//! node between bursts; with it enabled, [`HttpServerApp::next_deadline`]
//! tells the driver when the reaper next fires.
//!
//! Close discipline: the server honours `Connection: close` in its
//! response framing but leaves the active close to the client (the
//! `lingering_close` discipline real servers use), so TIME_WAIT lands on
//! the client side — **except** for policy closes (rate-limited requests
//! and connections that exhausted their request budget), which the
//! server initiates itself. Both halves of the 2MSL story get exercised.

use crate::http::{self, ReqParse};
use crate::StepOutcome;
use cheri::{Capability, TaggedMemory};
use chos::errno::Errno;
use chos::fdtable::Fd;
use fstack::epoll::{EpollEvent, EpollFlags};
use fstack::socket::SockType;
use fstack::FStack;
use simkern::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Serving-plane configuration.
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Listen backlog handed to `ff_listen` (incomplete + established).
    pub backlog: usize,
    /// Static routes: `(path, body)`. Unknown paths get a 404.
    pub routes: Vec<(String, Vec<u8>)>,
    /// Requests served per connection before the server closes it
    /// (`Connection: close` on the final response). 0 = unbounded.
    pub max_requests_per_conn: u32,
    /// Token-bucket burst capacity per client IP, in requests.
    /// 0 disables rate limiting.
    pub bucket_capacity: u32,
    /// Token-bucket sustained refill per client IP, requests/second.
    pub bucket_refill_per_sec: u32,
    /// Idle-header-read timeout: a connection that has gone this long
    /// without delivering a byte while the server is still waiting for a
    /// complete request is shed (slow-loris defence). `ZERO` disables.
    pub idle_header_timeout: SimDuration,
    /// Graceful-degradation watermark: accepted connections beyond this
    /// many already open are answered `503 Service Unavailable` (with a
    /// `Retry-After` hint of [`HttpServerConfig::retry_after`]) and
    /// closed, instead of being serviced. 0 disables.
    pub max_conns: usize,
    /// The `Retry-After` delay advertised on overload 503s.
    pub retry_after: SimDuration,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        HttpServerConfig {
            backlog: 64,
            routes: vec![("/".to_string(), b"capnet-httpd\n".to_vec())],
            max_requests_per_conn: 0,
            bucket_capacity: 0,
            bucket_refill_per_sec: 0,
            idle_header_timeout: SimDuration::ZERO,
            max_conns: 0,
            retry_after: SimDuration::from_millis(1000),
        }
    }
}

/// Per-client token bucket, integer millitokens (deterministic: no
/// floats anywhere near the digest).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens_milli: u64,
    last_ns: u64,
}

impl Bucket {
    /// Refills from elapsed time, then tries to spend one request.
    fn allow(&mut self, now_ns: u64, cap_milli: u64, refill_milli_per_sec: u64) -> bool {
        let dt = now_ns.saturating_sub(self.last_ns);
        self.last_ns = now_ns;
        let add = (u128::from(dt) * u128::from(refill_milli_per_sec) / 1_000_000_000) as u64;
        self.tokens_milli = (self.tokens_milli + add).min(cap_milli);
        if self.tokens_milli >= 1000 {
            self.tokens_milli -= 1000;
            true
        } else {
            false
        }
    }
}

/// One accepted connection's state.
#[derive(Debug)]
struct Conn {
    fd: Fd,
    peer: Ipv4Addr,
    /// Received-but-unparsed request bytes (pipelining buffer).
    inbuf: Vec<u8>,
    /// Composed-but-unsent response bytes.
    out: Vec<u8>,
    out_off: usize,
    /// Requests served on this connection.
    served: u32,
    /// Close (server-initiated) once `out` fully flushes.
    close_after_flush: bool,
    /// The epoll registration currently includes `OUT` (it does exactly
    /// while a flush left response bytes behind).
    wants_out: bool,
    /// Last instant a request byte arrived (accept counts); drives the
    /// idle-header-read reaper.
    last_byte: SimTime,
}

/// Aggregate serving counters, surfaced via [`HttpServerApp::report`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HttpServerReport {
    /// Report label.
    pub label: String,
    /// Connections accepted.
    pub accepted: u64,
    /// Requests parsed (including rejected ones).
    pub requests: u64,
    /// 200 responses.
    pub ok: u64,
    /// 404 responses.
    pub not_found: u64,
    /// 429 responses (token bucket empty).
    pub rate_limited: u64,
    /// Connections the server closed by policy (rate limit / request
    /// budget / protocol error).
    pub server_closed: u64,
    /// Connections shed by the idle-header-read timeout (slow-loris
    /// clients holding sockets open with drip-fed partial requests).
    pub idle_shed: u64,
    /// Connections answered `503 Retry-After` at accept because the open
    /// count was over [`HttpServerConfig::max_conns`].
    pub overloaded: u64,
    /// Request payload bytes read.
    pub bytes_in: u64,
    /// Response payload bytes accepted by `ff_write`.
    pub bytes_out: u64,
    /// First-accept to last-activity span.
    pub elapsed: SimDuration,
}

/// [`HttpServerApp::conn_of_fd`] entry of an fd that is no open connection.
const NO_CONN: u32 = u32::MAX;

/// The server application.
#[derive(Debug)]
pub struct HttpServerApp {
    label: String,
    listen_fd: Fd,
    epfd: Fd,
    /// Capability-bounded scratch the app stages `ff_read`/`ff_write`
    /// payloads through (its cVM's own region).
    buf: Capability,
    cfg: HttpServerConfig,
    conns: Vec<Conn>,
    /// fd → index into `conns` ([`NO_CONN`] for fds that are not ours),
    /// kept right across `push` and `swap_remove`.
    conn_of_fd: Vec<u32>,
    buckets: HashMap<Ipv4Addr, Bucket>,
    accepted: u64,
    requests: u64,
    ok: u64,
    not_found: u64,
    rate_limited: u64,
    server_closed: u64,
    idle_shed: u64,
    overloaded: u64,
    bytes_in: u64,
    bytes_out: u64,
    started: Option<SimTime>,
    last_activity: Option<SimTime>,
    /// Reused event vector for the per-turn epoll poll.
    events: Vec<EpollEvent>,
    /// Reused fd list handed to the driver's dirty-routing cache.
    fds: Vec<Fd>,
}

impl HttpServerApp {
    /// Creates the listener on `port` and registers it with epoll.
    ///
    /// # Errors
    ///
    /// Propagates socket-setup failures.
    pub fn start(
        stack: &mut FStack,
        label: impl Into<String>,
        port: u16,
        buf: Capability,
        cfg: HttpServerConfig,
    ) -> Result<Self, Errno> {
        let listen_fd = stack.ff_socket(SockType::Stream)?;
        stack.ff_bind(listen_fd, port)?;
        stack.ff_listen(listen_fd, cfg.backlog)?;
        let epfd = stack.ff_epoll_create();
        stack.ff_epoll_ctl_add(epfd, listen_fd, EpollFlags::IN)?;
        Ok(HttpServerApp {
            label: label.into(),
            listen_fd,
            epfd,
            buf,
            cfg,
            conns: Vec::new(),
            conn_of_fd: Vec::new(),
            buckets: HashMap::new(),
            accepted: 0,
            requests: 0,
            ok: 0,
            not_found: 0,
            rate_limited: 0,
            server_closed: 0,
            idle_shed: 0,
            overloaded: 0,
            bytes_in: 0,
            bytes_out: 0,
            started: None,
            last_activity: None,
            events: Vec::new(),
            fds: Vec::new(),
        })
    }

    /// The open connection fds, for probes and tests: the stack itself
    /// records which application obtained an fd (`FStack::owner_of`).
    pub fn conn_fds(&mut self) -> &[Fd] {
        self.fds.clear();
        self.fds.extend(self.conns.iter().map(|c| c.fd));
        &self.fds
    }

    /// Open connection count.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// One poll-mode step: accept the burst, read + parse + respond on
    /// every ready connection, flush pending responses.
    ///
    /// # Errors
    ///
    /// Unexpected socket errors (EAGAIN is handled internally).
    pub fn step(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
    ) -> Result<StepOutcome, Errno> {
        let mut out = StepOutcome::default();
        self.reap_idle(stack, now, &mut out)?;
        // Accept everything ready (the burst path: the listener's ready
        // queue pops O(1) per accept).
        loop {
            out.ff_calls += 1;
            match stack.ff_accept(self.listen_fd) {
                Ok(fd) => {
                    let peer = stack
                        .remote_addr(fd)
                        .map(|(ip, _)| ip)
                        .unwrap_or(Ipv4Addr::UNSPECIFIED);
                    // Over the graceful-degradation watermark the server
                    // still accepts — leaving the SYN to rot would just
                    // push the client into RTO — but answers a 503 with
                    // a Retry-After hint and closes, shedding the work
                    // while telling the client when to come back.
                    let overloaded =
                        self.cfg.max_conns > 0 && self.conns.len() >= self.cfg.max_conns;
                    let mut conn = Conn {
                        fd,
                        peer,
                        inbuf: Vec::new(),
                        out: Vec::new(),
                        out_off: 0,
                        served: 0,
                        close_after_flush: overloaded,
                        wants_out: overloaded,
                        last_byte: now,
                    };
                    if overloaded {
                        http::build_503(self.cfg.retry_after.as_nanos() / 1_000_000, &mut conn.out);
                        self.overloaded += 1;
                        self.server_closed += 1;
                    }
                    // IN for requests. OUT only while response bytes are
                    // pending (`sync_interest`): an idle established
                    // socket is always writable, so standing OUT interest
                    // would report every open connection on every step.
                    // The 503 connection is born with bytes to flush.
                    stack.ff_epoll_ctl_add(self.epfd, fd, Self::interest(overloaded))?;
                    if self.conn_of_fd.len() <= fd as usize {
                        self.conn_of_fd.resize(fd as usize + 1, NO_CONN);
                    }
                    self.conn_of_fd[fd as usize] = self.conns.len() as u32;
                    self.conns.push(conn);
                    self.accepted += 1;
                    out.progressed = true;
                    self.started.get_or_insert(now);
                    self.last_activity = Some(now);
                }
                Err(Errno::EAGAIN) => break,
                Err(e) => return Err(e),
            }
        }
        // Service ready connections.
        out.ff_calls += 1;
        let mut events = std::mem::take(&mut self.events);
        if let Err(e) = stack.ff_epoll_wait_into(self.epfd, &mut events) {
            self.events = events;
            return Err(e);
        }
        let serviced = self.service_ready(stack, mem, now, &events, &mut out);
        self.events = events;
        serviced?;
        Ok(out)
    }

    /// Sheds connections that have gone [`HttpServerConfig::idle_header_timeout`]
    /// without delivering a byte while the server still owes them nothing
    /// — the slow-loris population drip-feeding partial request headers to
    /// pin sockets open. No-op when the timeout is disabled.
    fn reap_idle(
        &mut self,
        stack: &mut FStack,
        now: SimTime,
        out: &mut StepOutcome,
    ) -> Result<(), Errno> {
        let timeout = self.cfg.idle_header_timeout;
        if timeout == SimDuration::ZERO {
            return Ok(());
        }
        let mut i = 0;
        while i < self.conns.len() {
            let c = &self.conns[i];
            let idle = c.out.len() == c.out_off && !c.close_after_flush;
            if idle && now >= c.last_byte + timeout {
                self.close_conn(stack, i, now, out)?;
                self.idle_shed += 1;
                self.server_closed += 1;
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// The next instant the idle reaper fires: the earliest
    /// `last_byte + timeout` over connections awaiting request bytes.
    /// `None` when the timeout is disabled or nothing is reapable — the
    /// server is then purely input-driven and the node may park.
    pub fn next_deadline(&self, _now: SimTime) -> Option<SimTime> {
        let timeout = self.cfg.idle_header_timeout;
        if timeout == SimDuration::ZERO {
            return None;
        }
        self.conns
            .iter()
            .filter(|c| c.out.len() == c.out_off && !c.close_after_flush)
            .map(|c| c.last_byte + timeout)
            .min()
    }

    /// The `ff_*` calls of a step that finds no fd changed and the idle
    /// reaper ([`HttpServerApp::next_deadline`]) not due: the accept that
    /// returns `EAGAIN` and the epoll wait that reports nothing to serve.
    pub fn idle_calls(&self) -> u64 {
        2
    }

    /// Reads, parses and responds on every connection `events` flagged.
    fn service_ready(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
        events: &[EpollEvent],
        out: &mut StepOutcome,
    ) -> Result<(), Errno> {
        for &ev in events {
            if ev.fd == self.listen_fd {
                continue;
            }
            let i = match self.conn_of_fd.get(ev.fd as usize) {
                Some(&i) if i != NO_CONN => i as usize,
                _ => continue,
            };
            let mut drop_conn = false;
            if ev.events.contains(EpollFlags::IN) || ev.events.contains(EpollFlags::HUP) {
                drop_conn = self.read_and_respond(stack, mem, now, i, out)?;
            }
            // Flush whatever is pending (newly composed responses, or a
            // backlog an earlier EAGAIN left; the ACK that opened send
            // space marked the fd dirty and got us stepped).
            if !drop_conn {
                drop_conn = self.flush(stack, mem, i, out)?;
            }
            if drop_conn {
                self.close_conn(stack, i, now, out)?;
            } else {
                self.sync_interest(stack, i)?;
            }
        }
        Ok(())
    }

    /// The epoll interest of a connection with (`true`) or without
    /// response bytes waiting for send space.
    fn interest(pending_out: bool) -> EpollFlags {
        if pending_out {
            EpollFlags::IN | EpollFlags::OUT
        } else {
            EpollFlags::IN
        }
    }

    /// Makes connection `i`'s write interest follow its pending output:
    /// `IN | OUT` once a flush left bytes behind on `EAGAIN` (the ACK that
    /// opens send space then reports it), back to `IN` when the backlog
    /// has drained. Like the accept-time registration, the `EPOLL_CTL_MOD`
    /// is not an `ff_calls` charge.
    fn sync_interest(&mut self, stack: &mut FStack, i: usize) -> Result<(), Errno> {
        let c = &mut self.conns[i];
        let pending = c.out.len() > c.out_off;
        if pending != c.wants_out {
            c.wants_out = pending;
            stack.ff_epoll_ctl_add(self.epfd, c.fd, Self::interest(pending))?;
        }
        Ok(())
    }

    /// Closes connection `i` (which also drops it from the epoll set) and
    /// forgets it; the connection `swap_remove` moved into its place keeps
    /// a right `conn_of_fd` entry.
    fn close_conn(
        &mut self,
        stack: &mut FStack,
        i: usize,
        now: SimTime,
        out: &mut StepOutcome,
    ) -> Result<(), Errno> {
        let c = self.conns.swap_remove(i);
        self.conn_of_fd[c.fd as usize] = NO_CONN;
        if let Some(moved) = self.conns.get(i) {
            self.conn_of_fd[moved.fd as usize] = i as u32;
        }
        out.ff_calls += 1;
        stack.ff_close(c.fd)?;
        out.progressed = true;
        self.last_activity = Some(now);
        Ok(())
    }

    /// Drains connection `i`'s socket and serves every complete request
    /// in its pipeline buffer. Returns `true` when the connection should
    /// be closed now (EOF, reset, protocol error).
    fn read_and_respond(
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
                    self.conns[i].last_byte = now;
                    self.bytes_in += n;
                    out.bytes += n;
                    out.progressed = true;
                    self.last_activity = Some(now);
                }
                Err(Errno::EAGAIN) => break,
                // The connection is dead (ETIMEDOUT: the peer vanished
                // and the TCB gave up retransmitting): drop it and keep
                // serving the others.
                Err(Errno::ECONNRESET | Errno::ECONNREFUSED | Errno::EPIPE | Errno::ETIMEDOUT) => {
                    return Ok(true);
                }
                Err(e) => return Err(e),
            }
        }
        // Serve the pipeline — unless the connection was condemned before
        // any request was answered (overload 503): bytes arriving after
        // that verdict are drained but never answered.
        let mut consumed = 0;
        if !self.conns[i].close_after_flush || self.conns[i].served > 0 {
            loop {
                let c = &mut self.conns[i];
                match http::parse_request(&c.inbuf[consumed..]) {
                    ReqParse::Complete(req, used) => {
                        consumed += used;
                        let wants_close = req.close;
                        let path = req.path.to_string();
                        self.requests += 1;
                        self.respond(i, &path, wants_close, now);
                        out.progressed = true;
                    }
                    ReqParse::Partial => break,
                    ReqParse::Bad => {
                        self.server_closed += 1;
                        return Ok(true);
                    }
                }
            }
        }
        if consumed > 0 {
            self.conns[i].inbuf.drain(..consumed);
        }
        if eof {
            // Client finished its active close (or sent FIN after its
            // last request): flush what we owe, then close our half.
            let c = &mut self.conns[i];
            if c.out.len() == c.out_off {
                return Ok(true);
            }
            c.close_after_flush = true;
        }
        Ok(false)
    }

    /// Composes the response for one parsed request onto connection
    /// `i`'s out buffer, applying rate limiting and the request budget.
    fn respond(&mut self, i: usize, path: &str, client_close: bool, now: SimTime) {
        let limited = self.cfg.bucket_capacity > 0 && {
            let cap_milli = u64::from(self.cfg.bucket_capacity) * 1000;
            let refill = u64::from(self.cfg.bucket_refill_per_sec) * 1000;
            let peer = self.conns[i].peer;
            let bucket = self.buckets.entry(peer).or_insert(Bucket {
                tokens_milli: cap_milli,
                last_ns: now.as_nanos(),
            });
            !bucket.allow(now.as_nanos(), cap_milli, refill)
        };
        let c = &mut self.conns[i];
        c.served += 1;
        let budget_exhausted =
            self.cfg.max_requests_per_conn > 0 && c.served >= self.cfg.max_requests_per_conn;
        if limited {
            // Over-rate clients get a 429 and a server-initiated close:
            // backpressure plus churn, the overload shape we measure.
            http::build_response(429, "Too Many Requests", b"", true, &mut c.out);
            c.close_after_flush = true;
            self.rate_limited += 1;
            self.server_closed += 1;
            return;
        }
        let close = client_close || budget_exhausted;
        let body = self
            .cfg
            .routes
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, b)| b.as_slice());
        match body {
            Some(b) => {
                http::build_response(200, "OK", b, close, &mut c.out);
                self.ok += 1;
            }
            None => {
                http::build_response(404, "Not Found", b"", close, &mut c.out);
                self.not_found += 1;
            }
        }
        if budget_exhausted && !client_close {
            // The request budget is a server policy: announce the close
            // and initiate it (the client may still be mid-pipeline).
            c.close_after_flush = true;
            self.server_closed += 1;
        }
    }

    /// Flushes connection `i`'s pending response bytes through the
    /// capability scratch. Returns `true` when the connection finished a
    /// server-initiated close.
    fn flush(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        i: usize,
        out: &mut StepOutcome,
    ) -> Result<bool, Errno> {
        let buf = self.buf;
        loop {
            let c = &mut self.conns[i];
            let pending = c.out.len() - c.out_off;
            if pending == 0 {
                let done = c.close_after_flush;
                if c.out_off > 0 {
                    c.out.clear();
                    c.out_off = 0;
                }
                return Ok(done);
            }
            let chunk = pending.min(buf.len() as usize);
            mem.write(&buf, buf.base(), &c.out[c.out_off..c.out_off + chunk])
                .map_err(|_| Errno::EFAULT)?;
            out.ff_calls += 1;
            match stack.ff_write(mem, c.fd, &buf, chunk as u64) {
                Ok(n) => {
                    self.conns[i].out_off += n as usize;
                    self.bytes_out += n;
                    out.bytes += n;
                    out.progressed = true;
                }
                Err(Errno::EAGAIN) => return Ok(false),
                Err(Errno::EPIPE | Errno::ECONNRESET | Errno::ETIMEDOUT) => return Ok(true),
                Err(e) => return Err(e),
            }
        }
    }

    /// Produces the serving summary at `now`.
    pub fn report(self, now: SimTime) -> HttpServerReport {
        let started = self.started.unwrap_or(now);
        let end = self.last_activity.unwrap_or(now).min(now);
        HttpServerReport {
            label: self.label,
            accepted: self.accepted,
            requests: self.requests,
            ok: self.ok,
            not_found: self.not_found,
            rate_limited: self.rate_limited,
            server_closed: self.server_closed,
            idle_shed: self.idle_shed,
            overloaded: self.overloaded,
            bytes_in: self.bytes_in,
            bytes_out: self.bytes_out,
            elapsed: end - started,
        }
    }
}
