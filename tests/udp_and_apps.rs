//! Integration: the UDP datagram path through the `ff_*` API, and the
//! iperf applications driven against real stacks.

mod testutil;

use cheri::{Perms, TaggedMemory};
use chos::Errno;
use fstack::socket::SockType;
use iperf::{ClientApp, ServerApp};
use simkern::{SimDuration, SimTime};
use testutil::{pump, seeded_bytes, stack_pair, Lan, IP_A, IP_B};
use updk::wire::Impairments;

#[test]
fn udp_request_reply_round_trip() {
    let (mut a, mut b) = stack_pair();
    let mut mem = TaggedMemory::new(1 << 20);
    let now = SimTime::from_micros(10);

    // B: bound UDP "telemetry" service.
    let sb = b.ff_socket(SockType::Dgram).unwrap();
    b.ff_bind(sb, 14_550).unwrap(); // the MAVLink UDP port
                                    // A: unbound client.
    let sa = a.ff_socket(SockType::Dgram).unwrap();

    let msg = mem
        .root_cap()
        .try_restrict(0x1000, 64)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap();
    mem.write(
        &msg,
        msg.base(),
        b"HEARTBEAT drone-1 mode=HOVER bat=87%____________________________"[..64].as_ref(),
    )
    .unwrap();

    let sent = a.ff_sendto(&mut mem, sa, &msg, 64, (IP_B, 14_550)).unwrap();
    assert_eq!(sent, 64);
    pump(now, &mut a, &mut b);

    // B receives, learns the ephemeral source, replies.
    let sink = mem
        .root_cap()
        .try_restrict(0x2000, 128)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap();
    let (n, from) = b.ff_recvfrom(&mut mem, sb, &sink).unwrap();
    assert_eq!(n, 64);
    assert_eq!(from.0, IP_A);
    let got = mem.read_vec(&sink, sink.base(), 9).unwrap();
    assert_eq!(&got, b"HEARTBEAT");

    let ack = mem
        .root_cap()
        .try_restrict(0x3000, 16)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap();
    mem.write(&ack, ack.base(), b"ACK seq=0001____").unwrap();
    b.ff_sendto(&mut mem, sb, &ack, 16, from).unwrap();
    pump(now, &mut a, &mut b);

    let (n, from_b) = a.ff_recvfrom(&mut mem, sa, &sink).unwrap();
    assert_eq!(n, 16);
    assert_eq!(from_b, (IP_B, 14_550));
    assert_eq!(b.stats().udp_in, 1);
    assert_eq!(a.stats().udp_in, 1);
}

#[test]
fn udp_errors_are_posixy() {
    let (mut a, _b) = stack_pair();
    let mut mem = TaggedMemory::new(1 << 20);
    let sa = a.ff_socket(SockType::Dgram).unwrap();
    let buf = mem.root_cap().try_restrict(0, 64).unwrap();

    // Oversized datagram.
    assert_eq!(
        a.ff_sendto(&mut mem, sa, &buf, 2_000, (IP_B, 1))
            .unwrap_err(),
        Errno::EMSGSIZE
    );
    // Empty receive queue.
    assert_eq!(
        a.ff_recvfrom(&mut mem, sa, &buf).unwrap_err(),
        Errno::EAGAIN
    );
    // sendto with a dead capability.
    let dead = buf.without_tag();
    assert_eq!(
        a.ff_sendto(&mut mem, sa, &dead, 16, (IP_B, 1)).unwrap_err(),
        Errno::EFAULT
    );
    // TCP calls on a UDP socket.
    assert_eq!(a.ff_listen(sa, 1).unwrap_err(), Errno::EINVAL);
    assert_eq!(a.ff_accept(sa).unwrap_err(), Errno::EINVAL);
}

#[test]
fn iperf_apps_drive_a_real_connection() {
    let (mut a, mut b) = stack_pair();
    let mut mem = TaggedMemory::new(1 << 20);
    let mk_buf = |mem: &mut TaggedMemory, base: u64| {
        mem.root_cap()
            .try_restrict(base, 8 * 1024)
            .unwrap()
            .try_restrict_perms(Perms::data())
            .unwrap()
    };
    let srv_buf = mk_buf(&mut mem, 0x10000);
    let cli_buf = mk_buf(&mut mem, 0x20000);
    mem.fill(&cli_buf, cli_buf.base(), 8 * 1024, 0x77).unwrap();

    let mut server = ServerApp::start(&mut b, "rx", 5201, srv_buf).unwrap();
    let mut client = ClientApp::start(
        &mut a,
        "tx",
        (IP_B, 5201),
        cli_buf,
        SimDuration::from_millis(2),
        SimTime::ZERO,
    )
    .unwrap();

    let mut now = SimTime::from_micros(1);
    for _ in 0..8_000 {
        pump(now, &mut a, &mut b);
        client.step(&mut a, &mut mem, now).unwrap();
        server.step(&mut b, &mut mem, now).unwrap();
        now += SimDuration::from_micros(5);
        if client.is_done() && server.connections() == 0 && server.bytes() > 0 {
            break;
        }
    }
    assert!(client.is_done(), "client finished its timed run");
    assert!(client.bytes() > 0);
    assert_eq!(
        server.bytes(),
        client.bytes(),
        "receiver counted exactly what the sender wrote"
    );
    let report = server.report(now);
    assert!(report.mbit_per_sec() > 0.0);
    assert!(!report.intervals.is_empty());
}

#[test]
fn two_clients_one_server_port_each() {
    // The contended Scenario 2 app shape: two senders into one stack.
    let (mut a, mut b) = stack_pair();
    let mut mem = TaggedMemory::new(1 << 20);
    let buf = |mem: &mut TaggedMemory, base: u64| {
        mem.root_cap()
            .try_restrict(base, 4096)
            .unwrap()
            .try_restrict_perms(Perms::data())
            .unwrap()
    };
    let s1 = ServerApp::start(&mut b, "rx1", 5201, buf(&mut mem, 0x10000)).unwrap();
    let s2 = ServerApp::start(&mut b, "rx2", 5202, buf(&mut mem, 0x20000)).unwrap();
    let mut servers = [s1, s2];
    let c1 = ClientApp::start(
        &mut a,
        "tx1",
        (IP_B, 5201),
        buf(&mut mem, 0x30000),
        SimDuration::from_millis(1),
        SimTime::ZERO,
    )
    .unwrap();
    let c2 = ClientApp::start(
        &mut a,
        "tx2",
        (IP_B, 5202),
        buf(&mut mem, 0x40000),
        SimDuration::from_millis(1),
        SimTime::ZERO,
    )
    .unwrap();
    let mut clients = [c1, c2];

    let mut now = SimTime::from_micros(1);
    for _ in 0..6_000 {
        pump(now, &mut a, &mut b);
        for c in &mut clients {
            c.step(&mut a, &mut mem, now).unwrap();
        }
        for s in &mut servers {
            s.step(&mut b, &mut mem, now).unwrap();
        }
        now += SimDuration::from_micros(5);
        if clients.iter().all(ClientApp::is_done) {
            break;
        }
    }
    assert!(clients.iter().all(|c| c.bytes() > 0));
    assert_eq!(servers[0].bytes(), clients[0].bytes());
    assert_eq!(servers[1].bytes(), clients[1].bytes());
}

#[test]
fn udp_to_closed_port_draws_port_unreachable_and_econnrefused() {
    let (mut a, mut b) = stack_pair();
    let mut mem = TaggedMemory::new(1 << 20);
    let now = SimTime::from_micros(10);

    let sa = a.ff_socket(SockType::Dgram).unwrap();
    let msg = mem
        .root_cap()
        .try_restrict(0x1000, 64)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap();
    mem.fill(&msg, msg.base(), 64, 0x77).unwrap();

    // Nothing listens on 4444 at B.
    a.ff_sendto(&mut mem, sa, &msg, 64, (IP_B, 4_444)).unwrap();
    for _ in 0..4 {
        for f in a.poll_tx(now) {
            b.input_buf(now, &f);
        }
        for f in b.poll_tx(now) {
            a.input_buf(now, &f);
        }
    }
    assert_eq!(b.stats().unreach_out, 1, "B answered with port unreachable");

    // The asynchronous error surfaces exactly once, then the socket works.
    assert_eq!(
        a.ff_recvfrom(&mut mem, sa, &msg).unwrap_err(),
        Errno::ECONNREFUSED
    );
    assert_eq!(
        a.ff_recvfrom(&mut mem, sa, &msg).unwrap_err(),
        Errno::EAGAIN
    );
}

#[test]
fn udp_unreachable_raises_epollerr_until_observed() {
    use fstack::epoll::EpollFlags;
    let (mut a, mut b) = stack_pair();
    let mut mem = TaggedMemory::new(1 << 20);
    let now = SimTime::from_micros(10);

    let sa = a.ff_socket(SockType::Dgram).unwrap();
    let ep = a.ff_epoll_create();
    a.ff_epoll_ctl_add(ep, sa, EpollFlags::IN).unwrap();
    let msg = mem
        .root_cap()
        .try_restrict(0x1000, 32)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap();
    a.ff_sendto(&mut mem, sa, &msg, 32, (IP_B, 4_445)).unwrap();
    for _ in 0..4 {
        for f in a.poll_tx(now) {
            b.input_buf(now, &f);
        }
        for f in b.poll_tx(now) {
            a.input_buf(now, &f);
        }
    }
    let ev = a.ff_epoll_wait(ep).unwrap();
    assert!(ev
        .iter()
        .any(|e| e.fd == sa && e.events.contains(EpollFlags::ERR)));
    let _ = a.ff_recvfrom(&mut mem, sa, &msg);
    let ev = a.ff_epoll_wait(ep).unwrap();
    assert!(
        !ev.iter()
            .any(|e| e.fd == sa && e.events.contains(EpollFlags::ERR)),
        "error cleared after observation"
    );
}

#[test]
fn udp_to_open_port_never_raises_unreachable() {
    let (mut a, mut b) = stack_pair();
    let mut mem = TaggedMemory::new(1 << 20);
    let now = SimTime::from_micros(10);

    let sb = b.ff_socket(SockType::Dgram).unwrap();
    b.ff_bind(sb, 4_446).unwrap();
    let sa = a.ff_socket(SockType::Dgram).unwrap();
    let msg = mem
        .root_cap()
        .try_restrict(0x1000, 32)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap();
    a.ff_sendto(&mut mem, sa, &msg, 32, (IP_B, 4_446)).unwrap();
    for _ in 0..4 {
        for f in a.poll_tx(now) {
            b.input_buf(now, &f);
        }
        for f in b.poll_tx(now) {
            a.input_buf(now, &f);
        }
    }
    assert_eq!(b.stats().unreach_out, 0);
    assert_eq!(
        a.ff_recvfrom(&mut mem, sa, &msg).unwrap_err(),
        Errno::EAGAIN
    );
    let (n, _) = b.ff_recvfrom(&mut mem, sb, &msg).unwrap();
    assert_eq!(n, 32);
}

/// A UDP telemetry burst over a lossy cable: one datagram per tick from
/// host 0 to host 1, drained every tick. The datagrams that survive (and
/// their payload bytes), every delivery on the wire and the wire counters
/// are identical for identical seeds and differ across seeds.
#[test]
fn udp_burst_over_lossy_wire_is_seed_deterministic() {
    const PORT: u16 = 5600;
    const COUNT: usize = 64;
    let run = |seed: u64| {
        let mut net = Lan::impaired(2, seed, Impairments::lossy(100));
        let (pay, sink) = (net.app_buffer(0), net.app_buffer(1));
        let rfd = net.stack(1).ff_socket(SockType::Dgram).unwrap();
        net.stack(1).ff_bind(rfd, PORT).unwrap();
        let sfd = net.stack(0).ff_socket(SockType::Dgram).unwrap();
        let mut got = Vec::new();
        for tick in 0..4_000 {
            if tick < COUNT {
                let dgram = seeded_bytes(0xD6_0000 + tick as u64, 256 + tick % 512);
                let (stack, mem) = net.stack_and_mem(0);
                mem.write(&pay, pay.base(), &dgram).unwrap();
                let to = (Lan::ip(1), PORT);
                stack
                    .ff_sendto(mem, sfd, &pay, dgram.len() as u64, to)
                    .unwrap();
            }
            net.tick();
            let (stack, mem) = net.stack_and_mem(1);
            while let Ok((n, _from)) = stack.ff_recvfrom(mem, rfd, &sink) {
                got.push(mem.read_vec(&sink, sink.base(), n).unwrap());
            }
            if tick >= COUNT && net.quiesced() {
                break;
            }
        }
        (got, net.deliveries, net.wire_stats)
    };
    let (g1, d1, s1) = run(11);
    let (g2, d2, s2) = run(11);
    let (g3, d3, _) = run(12);
    assert!(s1.lost > 0, "the cable actually lost datagrams: {s1:?}");
    assert!(
        !g1.is_empty() && g1.len() < COUNT,
        "some but not all arrived"
    );
    assert_eq!(g1, g2, "identical survivor payloads for identical seeds");
    assert_eq!(d1, d2, "identical wire deliveries for identical seeds");
    assert_eq!(s1, s2);
    assert_ne!(d1, d3, "seed 12 draws differently");
    assert_ne!(g1, g3, "different survivors for a different seed");
}
