//! Integration: RFC 793 reset behavior through the `ff_*` API.
//!
//! A robust edge stack must fail *fast and loud* when peers disappear or
//! ports are closed — drones cannot afford 60-second connect timeouts.
//! These tests cover the RST surface added on top of the paper's stack:
//! SYN-to-closed-port refusal (ECONNREFUSED), peer resets of established
//! connections (ECONNRESET), stray-segment resets, and the never-answer-
//! RST-with-RST rule.

mod testutil;

use cheri::{Perms, TaggedMemory};
use chos::Errno;
use fstack::socket::SockType;
use fstack::{FStack, StackConfig};
use simkern::SimTime;
use testutil::{pump, stack_pair, IP_A, IP_B};
use updk::nic::MacAddr;

fn data_buf(mem: &mut TaggedMemory, base: u64) -> cheri::Capability {
    mem.root_cap()
        .try_restrict(base, 4_096)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap()
}

#[test]
fn syn_to_closed_port_is_refused() {
    let (mut a, mut b) = stack_pair();
    let mut mem = TaggedMemory::new(1 << 20);
    let now = SimTime::from_micros(10);

    // No listener on 9999: the active open must be RST'd.
    let fd = a.ff_socket(SockType::Stream).unwrap();
    a.ff_connect(fd, (IP_B, 9_999), now).unwrap();
    pump(now, &mut a, &mut b);

    assert_eq!(b.stats().rsts_out, 1, "B refused the SYN");
    let buf = data_buf(&mut mem, 0x1000);
    assert_eq!(
        a.ff_write(&mut mem, fd, &buf, 16).unwrap_err(),
        Errno::ECONNREFUSED,
        "the client sees connection-refused, not a silent hang"
    );
    assert_eq!(
        a.ff_read(&mut mem, fd, &buf, 16).unwrap_err(),
        Errno::ECONNREFUSED
    );
}

#[test]
fn connect_to_listening_port_is_not_refused() {
    let (mut a, mut b) = stack_pair();
    let mut mem = TaggedMemory::new(1 << 20);
    let now = SimTime::from_micros(10);

    let lfd = b.ff_socket(SockType::Stream).unwrap();
    b.ff_bind(lfd, 7_000).unwrap();
    b.ff_listen(lfd, 4).unwrap();
    let fd = a.ff_socket(SockType::Stream).unwrap();
    a.ff_connect(fd, (IP_B, 7_000), now).unwrap();
    pump(now, &mut a, &mut b);

    assert_eq!(b.stats().rsts_out, 0);
    let buf = data_buf(&mut mem, 0x1000);
    assert!(
        a.ff_write(&mut mem, fd, &buf, 64).is_ok(),
        "handshake completed"
    );
}

#[test]
fn peer_reset_of_established_connection_surfaces_econnreset() {
    let (mut a, mut b) = stack_pair();
    let mut mem = TaggedMemory::new(1 << 20);
    let now = SimTime::from_micros(10);

    let lfd = b.ff_socket(SockType::Stream).unwrap();
    b.ff_bind(lfd, 7_000).unwrap();
    b.ff_listen(lfd, 4).unwrap();
    let fd = a.ff_socket(SockType::Stream).unwrap();
    a.ff_connect(fd, (IP_B, 7_000), now).unwrap();
    pump(now, &mut a, &mut b);
    let cfd = b.ff_accept(lfd).unwrap();

    let _ = cfd;
    // B crashes and reboots: a fresh stack, same address, no sockets. A's
    // next data segment finds nothing there → reboot-B resets it → A's
    // established connection dies with ECONNRESET, not a silent stall.
    let mut b2 = FStack::new(StackConfig::new("b2", MacAddr::local(2), IP_B));
    b2.arp_cache_mut().insert_static(IP_A, MacAddr::local(1));

    let buf = data_buf(&mut mem, 0x1000);
    let mut saw_reset_errno = false;
    for _ in 0..32 {
        match a.ff_write(&mut mem, fd, &buf, 512) {
            Err(Errno::ECONNRESET) => {
                saw_reset_errno = true;
                break;
            }
            Err(Errno::EPIPE) => {
                saw_reset_errno = true;
                break;
            }
            _ => {}
        }
        pump(now, &mut a, &mut b2);
    }
    assert!(
        saw_reset_errno,
        "writing into a torn-down connection must fail hard"
    );
    assert!(b2.stats().rsts_out >= 1, "the rebooted peer sent the reset");
}

#[test]
fn stray_data_segment_draws_a_reset_but_rst_does_not() {
    let (mut a, mut b) = stack_pair();
    let mut mem = TaggedMemory::new(1 << 20);
    let now = SimTime::from_micros(10);

    // Establish and then forget (simulate A rebooting): a leftover data
    // segment from B must be RST'd by the rebooted A…
    let lfd = b.ff_socket(SockType::Stream).unwrap();
    b.ff_bind(lfd, 7_000).unwrap();
    b.ff_listen(lfd, 4).unwrap();
    let fd = a.ff_socket(SockType::Stream).unwrap();
    a.ff_connect(fd, (IP_B, 7_000), now).unwrap();
    pump(now, &mut a, &mut b);
    let cfd = b.ff_accept(lfd).unwrap();

    // "Reboot" A: a fresh stack with the same address, no sockets.
    let mut a2 = FStack::new(StackConfig::new("a2", MacAddr::local(1), IP_A));
    a2.arp_cache_mut().insert_static(IP_B, MacAddr::local(2));

    // B sends data into the stale connection.
    let buf = data_buf(&mut mem, 0x1000);
    b.ff_write(&mut mem, cfd, &buf, 256).unwrap();
    pump(now, &mut a2, &mut b);

    assert!(a2.stats().rsts_out >= 1, "stale segment refused with RST");
    // …and the RST that comes back must not be answered with another RST
    // by B (no reset storm).
    let b_rsts = b.stats().rsts_out;
    pump(now, &mut a2, &mut b);
    assert_eq!(b.stats().rsts_out, b_rsts, "no RST-for-RST loop");
    // B's connection dies cleanly instead.
    assert!(
        matches!(
            b.ff_write(&mut mem, cfd, &buf, 16),
            Err(Errno::ECONNRESET) | Err(Errno::EPIPE) | Err(Errno::EAGAIN)
        ),
        "B's socket is reset or at least no longer progressing"
    );
}

#[test]
fn refused_connection_raises_epollerr() {
    use fstack::epoll::EpollFlags;
    let (mut a, mut b) = stack_pair();
    let now = SimTime::from_micros(10);
    let fd = a.ff_socket(SockType::Stream).unwrap();
    let ep = a.ff_epoll_create();
    a.ff_epoll_ctl_add(ep, fd, EpollFlags::IN | EpollFlags::OUT)
        .unwrap();
    a.ff_connect(fd, (IP_B, 9_999), now).unwrap();
    pump(now, &mut a, &mut b);
    let events = a.ff_epoll_wait(ep).unwrap();
    let ev = events
        .iter()
        .find(|e| e.fd == fd)
        .expect("the refused socket reports an event");
    assert!(
        ev.events.contains(EpollFlags::ERR),
        "EPOLLERR expected, got {:?}",
        ev.events
    );
}

#[test]
fn refused_connection_counts_no_delivered_segments() {
    let (mut a, mut b) = stack_pair();
    let now = SimTime::from_micros(10);
    let fd = a.ff_socket(SockType::Stream).unwrap();
    a.ff_connect(fd, (IP_B, 4_242), now).unwrap();
    pump(now, &mut a, &mut b);
    // The refused handshake delivered nothing upward on either side.
    assert_eq!(b.stats().tcp_in, 1, "B saw exactly the SYN");
    assert_eq!(b.stats().rsts_out, 1);
}
