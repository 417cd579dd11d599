//! The HTTP serving plane under churn — the stack paths bulk transfer
//! never exercises:
//!
//! * an accept **burst into a full listen backlog** sheds SYNs at the
//!   listener (BSD semantics: counted, no RST, **no TCB allocated**) and
//!   leaves no stuck state behind once the burst drains;
//! * **close-per-request churn** across thousands of sequential
//!   connections cycles ephemeral ports through TIME_WAIT quarantine
//!   without exhausting the socket table;
//! * the open-loop fleet scenario is **byte-identical at workers=1/2/4**
//!   (the sharding determinism contract extends to the new workload);
//! * a client that **vanishes mid-response** (`ETIMEDOUT`) costs the
//!   server that one connection, not every connection behind it;
//! * a serving turn costs what is **ready**, not what is open
//!   (`epoll_fds_evaluated / epoll_waits` flat in the open-connection
//!   count), on a keep-alive star whose trace digest is pinned;
//! * the answers outside input can reach but no fleet sends — a 404, a
//!   bare HTTP/1.0 request, a connection over `max_conns` — come back
//!   byte for byte as the server's constants say.

mod testutil;

use capnet::scenario::ScenarioSpec;
use capnet_httpd::http::{build_request, parse_response, RespParse};
use capnet_httpd::{FleetConfig, HttpServerApp, HttpServerConfig};
use cheri::Capability;
use chos::errno::Errno;
use chos::fdtable::Fd;
use fstack::socket::SockType;
use simkern::time::SimDuration;
use testutil::{
    assert_digest, assert_same_run, Lan, KEEPALIVE_FEW_OPEN_DIGEST, KEEPALIVE_MANY_OPEN_DIGEST,
};

const PORT: u16 = 8080;

/// A burst of 10 simultaneous SYNs into a listener whose backlog holds 3:
/// exactly 3 connections establish, every excess SYN is dropped *and
/// counted* without allocating a TCB, and after the burst drains the
/// server's socket table is back to just the listener.
#[test]
fn accept_burst_overflows_backlog_without_stuck_tcbs() {
    let mut net = Lan::new(2);
    let lfd = net.stack(1).ff_socket(SockType::Stream).unwrap();
    net.stack(1).ff_bind(lfd, PORT).unwrap();
    net.stack(1).ff_listen(lfd, 3).unwrap();

    // Launch the whole burst in one instant; nobody accepts yet.
    let mut cfds: Vec<Fd> = Vec::new();
    for _ in 0..10 {
        let fd = net.stack(0).ff_socket(SockType::Stream).unwrap();
        let now = net.now;
        net.stack(0)
            .ff_connect(fd, (Lan::ip(1), PORT), now)
            .unwrap();
        cfds.push(fd);
    }
    for _ in 0..2_000 {
        net.tick();
    }

    let (incomplete, ready) = net.stack(1).listen_queue_depths(lfd).unwrap();
    assert_eq!(
        incomplete + ready,
        3,
        "the combined accept queue is capped at the backlog"
    );
    let drops = net.stack(1).stats().listen_drops;
    assert!(
        drops >= 7,
        "7 of 10 SYNs (plus their retransmissions) must be shed, got {drops}"
    );
    // The hardening under test: a shed SYN allocates nothing, so the
    // server holds exactly the listener plus the 3 queued connections.
    assert_eq!(
        net.stack(1).socket_count(),
        1 + 3,
        "no TCB allocated for dropped SYNs"
    );

    // Drain the queue: every queued connection is acceptable, then EAGAIN.
    let mut accepted = Vec::new();
    for _ in 0..3 {
        accepted.push(net.stack(1).ff_accept(lfd).unwrap());
    }
    assert!(net.stack(1).ff_accept(lfd).is_err());
    assert_eq!(net.stack(1).listen_queue_depths(lfd), Some((0, 0)));

    // Tear everything down (both sides, including the never-established
    // clients) and run far past 2 MSL: nothing may linger server-side.
    for &fd in &cfds {
        let _ = net.stack(0).ff_close(fd);
    }
    for &fd in &accepted {
        let _ = net.stack(1).ff_close(fd);
    }
    for _ in 0..60_000 {
        net.tick();
    }
    assert_eq!(
        net.stack(1).socket_count(),
        1,
        "only the listener survives the churn"
    );
    assert_eq!(net.stack(0).socket_count(), 0, "client table drained");
}

/// Close-per-request churn: two fleets drive thousands of sequential
/// connections through one hub server. Every connection is actively
/// closed by the client, so the leaves cycle ephemeral ports through
/// TIME_WAIT quarantine — the run must neither exhaust the port range
/// nor wedge the server's socket table.
#[test]
fn time_wait_churn_over_thousands_of_connections() {
    let out = ScenarioSpec::star(2)
        .duration(SimDuration::from_millis(200))
        .seed(0xC0FFEE)
        .http(
            HttpServerConfig::default(),
            FleetConfig {
                rate_per_sec: 8_000,
                keep_alive_per_mille: 0, // pure close-per-request churn
                think_ns: 0,
                max_open: 512,
                ..FleetConfig::default()
            },
        )
        .run()
        .unwrap();

    let started: u64 = out.http_fleets.iter().map(|f| f.conns_started).sum();
    let completed: u64 = out.http_fleets.iter().map(|f| f.conns_completed).sum();
    let ok: u64 = out.http_fleets.iter().map(|f| f.requests_ok).sum();
    assert!(started >= 2_000, "churn volume: {started} connections");
    assert!(
        completed as f64 >= started as f64 * 0.95,
        "nearly every connection must run to completion ({completed}/{started})"
    );
    assert_eq!(ok, completed, "close-per-request: one 200 per connection");
    let exhausted: u64 = out.http_fleets.iter().map(|f| f.addr_exhausted).sum();
    assert_eq!(
        exhausted, 0,
        "8 k/s churn stays inside the 20 001-port ephemeral range"
    );
    // The server accepted every completed connection and leaked none of
    // its counters into error paths.
    assert_eq!(out.http_servers.len(), 1);
    let srv = &out.http_servers[0];
    assert!(srv.accepted >= completed);
    assert_eq!(srv.ok, ok);
    // The hub's stack saw real listen pressure accounting (drops are
    // allowed under burst alignment, but must be counted, not wedged).
    let (_, hub_stats) = out
        .stack_stats
        .iter()
        .find(|(name, _)| name == "hub")
        .expect("hub stack stats present");
    assert_eq!(hub_stats.listen_drops, 0, "backlog 64 absorbs this rate");
    // A closed connection costs its host no turn of its own: its TIME_WAIT
    // expiry is settled while the host is parked, and its reap marks
    // nothing for the app that closed it. What idle turns remain are
    // wakes that found nothing (3 of 25 109 turns here; 5 805 of 30 911
    // when each reap cost an expiry wake and a confirming turn).
    let c = out.counters;
    assert!(
        c.idle_polls * 8_000 <= c.loop_polls,
        "closed connections cost idle turns: {c:?}"
    );
}

/// The determinism contract extends to the serving plane: the same spec
/// sharded over 1, 2 and 4 workers produces byte-identical delivery
/// digests and identical fleet populations.
#[test]
fn httpd_digest_identical_at_any_worker_count() {
    let spec = || {
        ScenarioSpec::star(4)
            .duration(SimDuration::from_millis(80))
            .seed(0xD16E57)
            .http(
                HttpServerConfig::default(),
                FleetConfig {
                    rate_per_sec: 3_000,
                    keep_alive_per_mille: 500,
                    requests_per_conn: 4,
                    ..FleetConfig::default()
                },
            )
    };
    let base = spec().workers(1).run().unwrap();
    assert!(base.trace.frames > 0, "the scenario moved traffic");
    let ok: u64 = base.http_fleets.iter().map(|f| f.requests_ok).sum();
    assert!(ok > 0, "keep-alive mix completed requests");
    for workers in [2, 4] {
        // Adaptive selection off: a 4-leaf star would collapse back to
        // one engine, and this test exists to drive the sharded path.
        let out = spec()
            .workers(workers)
            .adaptive_workers(false)
            .run()
            .unwrap();
        assert!(out.workers > 1, "workers={workers}: plan stayed sharded");
        assert_same_run(&base, &out, &format!("workers={workers}"));
    }
}

/// The server app on host 1 of a two-host [`Lan`], and the app buffer of
/// host 0, where a test's raw `ff_*` clients run.
fn served_lan(cfg: HttpServerConfig) -> (Lan, HttpServerApp, Capability) {
    let mut net = Lan::new(2);
    let srv_buf = net.app_buffer(1);
    let server = HttpServerApp::start(net.stack(1), "srv", PORT, srv_buf, cfg).unwrap();
    let buf = net.app_buffer(0);
    (net, server, buf)
}

/// One turn of the world: both stacks, then the server app.
fn turn(net: &mut Lan, server: &mut HttpServerApp) {
    net.tick();
    let now = net.now;
    let (stack, mem) = net.stack_and_mem(1);
    server
        .step(stack, mem, now)
        .expect("a dead connection is the server's to clean up, not an error");
}

/// A client connection from host 0, given 1 000 turns to be accepted.
fn connect(net: &mut Lan, server: &mut HttpServerApp) -> Fd {
    let fd = net.stack(0).ff_socket(SockType::Stream).unwrap();
    let now = net.now;
    net.stack(0)
        .ff_connect(fd, (Lan::ip(1), PORT), now)
        .unwrap();
    for _ in 0..1_000 {
        turn(net, server);
    }
    fd
}

fn send(net: &mut Lan, fd: Fd, buf: &Capability, bytes: &[u8]) {
    let (stack, mem) = net.stack_and_mem(0);
    mem.write(buf, buf.base(), bytes).unwrap();
    assert_eq!(
        stack.ff_write(mem, fd, buf, bytes.len() as u64),
        Ok(bytes.len() as u64)
    );
}

/// Reads client connection `fd` until one whole response has arrived.
fn read_response(net: &mut Lan, server: &mut HttpServerApp, fd: Fd, buf: &Capability) -> String {
    let mut inbuf = Vec::new();
    for _ in 0..2_000 {
        turn(net, server);
        let (stack, mem) = net.stack_and_mem(0);
        match stack.ff_read(mem, fd, buf, buf.len()) {
            Ok(n) => inbuf.extend(mem.read_vec(buf, buf.base(), n).unwrap()),
            Err(Errno::EAGAIN) => {}
            Err(e) => panic!("read failed: {e:?}"),
        }
        if let RespParse::Complete { consumed, .. } = parse_response(&inbuf) {
            assert_eq!(consumed, inbuf.len(), "one response at a time");
            return String::from_utf8(inbuf).unwrap();
        }
    }
    panic!("fd {fd} was never answered");
}

/// A peer that vanishes with a response in flight makes the server's TCB
/// give up retransmitting; `ff_read` then reports `ETIMEDOUT`. That is a
/// dead connection like a reset — the server drops it and keeps serving.
/// Before the fix the step aborted at that fd on every turn, and — events
/// being fd-ascending — no higher fd was ever served again.
#[test]
fn server_drops_a_timed_out_connection_and_keeps_serving() {
    let (mut net, mut server, buf) = served_lan(HttpServerConfig::default());
    let mut request = Vec::new();
    build_request("/", false, &mut request);

    // Two keep-alive connections; the first accepted gets the lower fd.
    let mut cfds = Vec::new();
    for n in 1..=2 {
        cfds.push(connect(&mut net, &mut server));
        assert_eq!(server.connections(), n);
    }
    let fds = server.conn_fds().to_vec();
    assert!(fds[0] < fds[1], "accept order is fd order");

    // The first client asks, then goes dark the moment its request is on
    // the wire: the response and every retransmission of it vanish.
    send(&mut net, cfds[0], &buf, &request);
    net.tick();
    let (_, dark_port) = net.stack(0).local_addr(cfds[0]).unwrap();
    net.blackhole_tcp_port = Some(dark_port);
    while net.stack(1).stats().conn_timeouts == 0 {
        turn(&mut net, &mut server);
        net.now += SimDuration::from_millis(5);
        assert!(net.now.as_nanos() < 10_000_000_000, "no give-up in 10 s");
    }
    turn(&mut net, &mut server);
    assert_eq!(
        server.connections(),
        1,
        "the timed-out connection is dropped"
    );
    assert_eq!(
        net.stack(1).tcp_state(fds[0]),
        None,
        "and its socket is closed"
    );

    // The survivor — the higher fd — still gets its 200.
    send(&mut net, cfds[1], &buf, &request);
    let ok = read_response(&mut net, &mut server, cfds[1], &buf);
    assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
}

/// A raw `ff_*` client against one server with `max_conns: 1`: `GET /`
/// is a 200 carrying the one body, any other path a counted 404, a bare
/// HTTP/1.0 request is answered `Connection: close`, and a second
/// concurrent connection gets the overload 503 with `Retry-After: 1`.
#[test]
fn server_answers_what_outside_clients_send() {
    let (mut net, mut server, buf) = served_lan(HttpServerConfig {
        max_conns: 1,
        ..HttpServerConfig::default()
    });
    let a = connect(&mut net, &mut server);
    assert_eq!(server.connections(), 1);
    let mut ask = |request: &[u8]| {
        send(&mut net, a, &buf, request);
        read_response(&mut net, &mut server, a, &buf)
    };
    let ok = ask(b"GET / HTTP/1.1\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
    assert!(ok.ends_with("\r\n\r\ncapnet-httpd\n"), "{ok}");
    assert!(ok.contains("Connection: keep-alive"), "{ok}");
    let nope = ask(b"GET /nope HTTP/1.1\r\n\r\n");
    assert!(nope.starts_with("HTTP/1.1 404 Not Found\r\n"), "{nope}");
    let legacy = ask(b"GET / HTTP/1.0\r\n\r\n");
    assert!(legacy.starts_with("HTTP/1.1 200 OK\r\n"), "{legacy}");
    assert!(legacy.contains("\r\nConnection: close\r\n"), "{legacy}");

    // The first connection is still open: the second is over the mark.
    let b = connect(&mut net, &mut server);
    let shed = read_response(&mut net, &mut server, b, &buf);
    assert!(
        shed.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
        "{shed}"
    );
    assert!(shed.contains("\r\nRetry-After: 1\r\n"), "{shed}");
    assert!(shed.contains("\r\nConnection: close\r\n"), "{shed}");

    let report = server.report(net.now);
    assert_eq!(
        (
            report.requests,
            report.ok,
            report.not_found,
            report.overloaded
        ),
        (3, 2, 1, 1)
    );
}

/// The keep-alive star of the complexity test: four fleets, every
/// connection keep-alive with up to 8 requests, think time as given. By
/// Little's law the hub's open-connection count scales with the think
/// time while its request rate — the work that is actually *ready* on a
/// turn — does not.
fn keepalive_star(think_ns: u64) -> capnet::SimOutcome {
    ScenarioSpec::star(4)
        .duration(SimDuration::from_millis(120))
        .seed(0xE9011)
        .http(
            HttpServerConfig::default(),
            FleetConfig {
                rate_per_sec: 2_000,
                keep_alive_per_mille: 1_000,
                requests_per_conn: 8,
                think_ns,
                max_open: 512,
                ..FleetConfig::default()
            },
        )
        .run()
        .unwrap()
}

/// Sockets evaluated per `ff_epoll_wait` on the hub — exact work, not time.
fn hub_fds_per_wait(out: &capnet::SimOutcome) -> f64 {
    let (_, hub) = out
        .stack_stats
        .iter()
        .find(|(name, _)| name == "hub")
        .expect("hub stack stats present");
    assert!(hub.epoll_waits > 7_500, "the server polled all run long");
    hub.epoll_fds_evaluated as f64 / hub.epoll_waits as f64
}

/// A serving turn costs what is ready, not what is registered. The same
/// star holds ~15 connections open on the hub at 350 µs think time and
/// ~132 at 4 ms, answering about as many requests either way.
///
/// On the parent of this change — `wait` scanned the interest set and
/// every connection stood registered `IN | OUT` — the hub evaluated
/// **16.11** sockets per wait in the first run and **133.29** in the
/// second (the same counters patched into a scratch copy of that commit):
/// 8.3× the work for 8.3× the connections. With the ready-list and write
/// interest only while output is pending it is 1.43 and 1.57.
///
/// Both runs' trace digests were recorded on that parent commit first, so
/// they pin the httpd path's wire behaviour across this change the way
/// star8/dumbbell pin the iperf path's.
#[test]
fn epoll_work_per_wait_does_not_grow_with_open_connections() {
    let few = keepalive_star(350_000);
    let many = keepalive_star(4_000_000);
    assert_digest(
        "keep-alive star, 350 µs think",
        &few.trace,
        KEEPALIVE_FEW_OPEN_DIGEST,
    );
    assert_eq!(few.trace.frames, 13_993);
    assert_digest(
        "keep-alive star, 4 ms think",
        &many.trace,
        KEEPALIVE_MANY_OPEN_DIGEST,
    );
    assert_eq!(many.trace.frames, 14_878);

    let (per_wait_few, per_wait_many) = (hub_fds_per_wait(&few), hub_fds_per_wait(&many));
    assert!(
        per_wait_many <= 2.0 * per_wait_few,
        "8x the open connections may not cost 8x per wait: \
         {per_wait_few:.2} -> {per_wait_many:.2} sockets evaluated per wait"
    );
    assert!(
        per_wait_many < 8.0,
        "a wait evaluates the ready few, not the ~132 open: {per_wait_many:.2}"
    );
}
