//! Integration: the full network stack path — `ff_*` API over TCP over
//! IPv4 over Ethernet over the poll-mode driver over the simulated NIC —
//! exercised end to end across crates.

use capnet::netsim::{IsolationProfile, NetSim};
use cheri::{Perms, TaggedMemory};
use chos::Errno;
use fstack::epoll::EpollFlags;
use fstack::loop_::iterate;
use fstack::socket::SockType;
use fstack::{FStack, StackConfig};
use simkern::{CostModel, SimDuration, SimTime};
use std::net::Ipv4Addr;
use updk::kmod::{BindingRegistry, PciAddress};
use updk::nic::NicModel;
use updk::EthDev;

/// Two stacks on two host NICs, frames moved by hand: the classic
/// handshake-transfer-close lifecycle through every layer *except* the
/// event engine (which `capnet::netsim` covers).
#[test]
fn tcp_lifecycle_through_the_driver() {
    let costs = CostModel::morello();
    let mut kmod = BindingRegistry::new();
    let mk = |bus: u8, kmod: &mut BindingRegistry| {
        let addr = PciAddress::new(bus, 0, 0);
        kmod.discover(addr, "host nic");
        kmod.bind_userspace(addr).unwrap();
        EthDev::new(addr, NicModel::Host, CostModel::morello())
    };
    let mut dev_a = mk(1, &mut kmod);
    let mut dev_b = mk(2, &mut kmod);
    let mut mem_a = TaggedMemory::new(1 << 21);
    let mut mem_b = TaggedMemory::new(1 << 21);
    let region_a = mem_a.root_cap().try_restrict(4096, 1 << 19).unwrap();
    let region_b = mem_b.root_cap().try_restrict(4096, 1 << 19).unwrap();
    dev_a.configure_port(0, &mut mem_a, region_a, 256).unwrap();
    dev_b.configure_port(0, &mut mem_b, region_b, 256).unwrap();
    dev_a.start(&kmod).unwrap();
    dev_b.start(&kmod).unwrap();

    let ip_a = Ipv4Addr::new(192, 168, 7, 1);
    let ip_b = Ipv4Addr::new(192, 168, 7, 2);
    let mut stack_a = FStack::new(StackConfig::new("a", dev_a.mac(0), ip_a));
    let mut stack_b = FStack::new(StackConfig::new("b", dev_b.mac(0), ip_b));

    // Server on B.
    let lfd = stack_b.ff_socket(SockType::Stream).unwrap();
    stack_b.ff_bind(lfd, 7000).unwrap();
    stack_b.ff_listen(lfd, 4).unwrap();
    // Client on A (ARP resolves over the wire — no static entries).
    let cfd = stack_a.ff_socket(SockType::Stream).unwrap();
    stack_a
        .ff_connect(cfd, (ip_b, 7000), SimTime::ZERO)
        .unwrap();

    // Payload buffers, capability-bounded.
    let pay = mem_a
        .root_cap()
        .try_restrict(1 << 20, 8 * 1024)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap();
    mem_a.fill(&pay, pay.base(), 8 * 1024, 0x42).unwrap();
    let sink = mem_b
        .root_cap()
        .try_restrict(1 << 20, 8 * 1024)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap();

    let mut now = SimTime::from_micros(5);
    let mut accepted = None;
    let mut received = 0u64;
    let mut wrote = 0u64;
    let target = 256 * 1024u64;

    for _ in 0..40_000 {
        // A's loop iteration.
        let out_a = iterate(&mut stack_a, &mut dev_a, 0, &mut mem_a, now, &costs).unwrap();
        for (f, dep) in out_a.tx {
            dev_b.deliver(0, dep + SimDuration::from_micros(1), f);
        }
        // B's loop iteration.
        let out_b = iterate(&mut stack_b, &mut dev_b, 0, &mut mem_b, now, &costs).unwrap();
        for (f, dep) in out_b.tx {
            dev_a.deliver(0, dep + SimDuration::from_micros(1), f);
        }
        // Apps.
        if accepted.is_none() {
            accepted = stack_b.ff_accept(lfd).ok();
        }
        if wrote < target {
            let want = (target - wrote).min(pay.len());
            match stack_a.ff_write(&mut mem_a, cfd, &pay, want) {
                Ok(n) => wrote += n,
                Err(Errno::EAGAIN) | Err(Errno::EPIPE) => {}
                Err(e) => panic!("write: {e}"),
            }
        } else if wrote == target {
            stack_a.ff_close(cfd).unwrap();
            wrote += 1; // close once
        }
        if let Some(fd) = accepted {
            loop {
                match stack_b.ff_read(&mut mem_b, fd, &sink, sink.len()) {
                    Ok(0) => break,
                    Ok(n) => received += n,
                    Err(_) => break,
                }
            }
        }
        now += SimDuration::from_micros(2);
        if received >= target {
            break;
        }
    }
    assert_eq!(received, target, "every byte arrives exactly once");
    // The payload pattern survived the capability-checked path.
    let sample = mem_b.read_vec(&sink.clone(), sink.base(), 64).unwrap();
    assert!(sample.iter().all(|&b| b == 0x42));
}

/// `ff_write` with a *bad* capability is rejected with `EFAULT` and no
/// bytes leak onto the wire — the API-level contract of the port.
#[test]
fn ff_write_rejects_bad_capabilities_with_efault() {
    let ip_a = Ipv4Addr::new(10, 1, 0, 1);
    let ip_b = Ipv4Addr::new(10, 1, 0, 2);
    let mut mem = TaggedMemory::new(1 << 20);
    let mut a = FStack::new(StackConfig::new("a", updk::nic::MacAddr::local(1), ip_a));
    let mut b = FStack::new(StackConfig::new("b", updk::nic::MacAddr::local(2), ip_b));
    a.arp_cache_mut()
        .insert_static(ip_b, updk::nic::MacAddr::local(2));
    b.arp_cache_mut()
        .insert_static(ip_a, updk::nic::MacAddr::local(1));
    let lfd = b.ff_socket(SockType::Stream).unwrap();
    b.ff_bind(lfd, 9000).unwrap();
    b.ff_listen(lfd, 2).unwrap();
    let cfd = a.ff_socket(SockType::Stream).unwrap();
    a.ff_connect(cfd, (ip_b, 9000), SimTime::ZERO).unwrap();
    let mut now = SimTime::from_micros(1);
    for _ in 0..10 {
        for f in a.poll_tx(now) {
            b.input_buf(now, &f);
        }
        for f in b.poll_tx(now) {
            a.input_buf(now, &f);
        }
        now += SimDuration::from_micros(50);
    }
    b.ff_accept(lfd).unwrap();

    let good = mem
        .root_cap()
        .try_restrict(0x1000, 1024)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap();

    // (a) untagged capability.
    let dead = good.without_tag();
    assert_eq!(
        a.ff_write(&mut mem, cfd, &dead, 64).unwrap_err(),
        Errno::EFAULT
    );
    // (b) read permission missing? STORE-only can't be *read from* by the
    // stack's copy-in.
    let wo = good.try_restrict_perms(Perms::STORE).unwrap();
    assert_eq!(
        a.ff_write(&mut mem, cfd, &wo, 64).unwrap_err(),
        Errno::EFAULT
    );
    // (c) length beyond the capability's bounds.
    assert_eq!(
        a.ff_write(&mut mem, cfd, &good, 4096).unwrap_err(),
        Errno::EFAULT
    );
    // (d) and the good one still works.
    assert_eq!(a.ff_write(&mut mem, cfd, &good, 64).unwrap(), 64);
}

/// Epoll-driven readiness across the full stack: a connection becomes
/// EPOLLOUT after the handshake and EPOLLIN when data lands.
#[test]
fn epoll_tracks_connection_lifecycle() {
    let ip_a = Ipv4Addr::new(10, 2, 0, 1);
    let ip_b = Ipv4Addr::new(10, 2, 0, 2);
    let mut mem = TaggedMemory::new(1 << 20);
    let mut a = FStack::new(StackConfig::new("a", updk::nic::MacAddr::local(3), ip_a));
    let mut b = FStack::new(StackConfig::new("b", updk::nic::MacAddr::local(4), ip_b));
    a.arp_cache_mut()
        .insert_static(ip_b, updk::nic::MacAddr::local(4));
    b.arp_cache_mut()
        .insert_static(ip_a, updk::nic::MacAddr::local(3));

    let lfd = b.ff_socket(SockType::Stream).unwrap();
    b.ff_bind(lfd, 9100).unwrap();
    b.ff_listen(lfd, 2).unwrap();
    let bep = b.ff_epoll_create();
    b.ff_epoll_ctl_add(bep, lfd, EpollFlags::IN).unwrap();

    let cfd = a.ff_socket(SockType::Stream).unwrap();
    let aep = a.ff_epoll_create();
    a.ff_epoll_ctl_add(aep, cfd, EpollFlags::OUT).unwrap();
    a.ff_connect(cfd, (ip_b, 9100), SimTime::ZERO).unwrap();

    // Before the handshake: nothing ready anywhere.
    assert!(a.ff_epoll_wait(aep).unwrap().is_empty());
    assert!(b.ff_epoll_wait(bep).unwrap().is_empty());

    let mut now = SimTime::from_micros(1);
    for _ in 0..10 {
        for f in a.poll_tx(now) {
            b.input_buf(now, &f);
        }
        for f in b.poll_tx(now) {
            a.input_buf(now, &f);
        }
        now += SimDuration::from_micros(50);
    }
    // Connected: client is writable, listener readable.
    assert!(a.ff_epoll_wait(aep).unwrap()[0]
        .events
        .contains(EpollFlags::OUT));
    assert!(b.ff_epoll_wait(bep).unwrap()[0]
        .events
        .contains(EpollFlags::IN));
    let sfd = b.ff_accept(lfd).unwrap();
    b.ff_epoll_ctl_add(bep, sfd, EpollFlags::IN).unwrap();

    // Data lands → EPOLLIN on the server connection.
    let buf = mem
        .root_cap()
        .try_restrict(0, 128)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap();
    a.ff_write(&mut mem, cfd, &buf, 128).unwrap();
    for f in a.poll_tx(now) {
        b.input_buf(now, &f);
    }
    let ready = b.ff_epoll_wait(bep).unwrap();
    assert!(ready
        .iter()
        .any(|e| e.fd == sfd && e.events.contains(EpollFlags::IN)));
}

/// The netsim composes everything under the event engine; a short run with
/// isolation charges still converges to the goodput ceiling.
#[test]
fn netsim_with_isolation_charges_still_converges() {
    let costs = CostModel::morello();
    let mut sim = NetSim::new(costs.clone());
    let a = sim.add_dev(NicModel::Dual82576).unwrap();
    let h = sim.add_dev(NicModel::Host).unwrap();
    sim.link(a, 0, h, 0).unwrap();
    let dut = sim
        .add_node(
            "dut",
            a,
            0,
            Ipv4Addr::new(10, 3, 0, 1),
            IsolationProfile {
                per_ff_call_ns: costs.xcall_ns + costs.mutex_fast_ns,
                s2_service: true,
            },
        )
        .unwrap();
    let host = sim
        .add_node(
            "host",
            h,
            0,
            Ipv4Addr::new(10, 3, 0, 2),
            IsolationProfile::default(),
        )
        .unwrap();
    sim.add_server(dut, "dut-rx", 5201).unwrap();
    sim.add_client(
        host,
        "host-tx",
        (Ipv4Addr::new(10, 3, 0, 1), 5201),
        SimDuration::from_millis(80),
        SimDuration::ZERO,
    )
    .unwrap();
    let out = sim.run(SimDuration::from_millis(100)).unwrap();
    let bw = out.servers[0].mbit_per_sec();
    assert!((bw - 941.0).abs() < 25.0, "bw {bw:.0}");
    let (acq, _cont, _wait) = out.mutex_stats.expect("s2 mutex was used");
    assert!(acq > 1_000, "the service loop serialized on the mutex");
}
