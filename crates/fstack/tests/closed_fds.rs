//! After `ff_close` the fd is the application's no longer: every `ff_*`
//! call on it fails with `EBADF`, although the TCB lingers in the table
//! through the FIN handshake and TIME_WAIT and keeps the number reserved
//! until it is reaped. And the TIME_WAIT expiry that reaps it is a
//! deadline a parked driver does not wake for: it is in
//! `next_timer_deadline`, not in `next_wake_deadline`, and
//! `settle_reaps` runs it as a turn at that instant would have.

use cheri::{Capability, Perms, TaggedMemory};
use chos::errno::Errno;
use chos::fdtable::Fd;
use fstack::socket::SockType;
use fstack::tcp::TcpState;
use fstack::{EpollFlags, FStack, StackConfig};
use simkern::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use updk::nic::MacAddr;

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const PORT: u16 = 7070;

fn pair() -> (FStack, FStack) {
    let mut a = FStack::new(StackConfig::new("a", MacAddr::local(1), A_IP));
    let mut b = FStack::new(StackConfig::new("b", MacAddr::local(2), B_IP));
    a.arp_cache_mut().insert_static(B_IP, MacAddr::local(2));
    b.arp_cache_mut().insert_static(A_IP, MacAddr::local(1));
    (a, b)
}

/// Exchanges frames both ways until quiescent (handshakes, ACKs, FINs).
fn pump(a: &mut FStack, b: &mut FStack, now: &mut SimTime) {
    for _ in 0..12 {
        *now += SimDuration::from_micros(50);
        for f in a.poll_tx(*now) {
            b.input_buf(*now, &f);
        }
        for f in b.poll_tx(*now) {
            a.input_buf(*now, &f);
        }
    }
}

/// A connects to B's listener; returns A's fd and B's accepted fd.
fn connected(a: &mut FStack, b: &mut FStack, now: &mut SimTime) -> (Fd, Fd) {
    let lfd = b.ff_socket(SockType::Stream).unwrap();
    b.ff_bind(lfd, PORT).unwrap();
    b.ff_listen(lfd, 4).unwrap();
    let fd = a.ff_socket(SockType::Stream).unwrap();
    a.ff_connect(fd, (B_IP, PORT), *now).unwrap();
    pump(a, b, now);
    let bfd = b.ff_accept(lfd).expect("handshake completed");
    (fd, bfd)
}

/// Every entry point refuses a closed TCP fd, the closing TCB still in
/// the table behind it; the number is handed out again only after the
/// reap.
#[test]
fn every_call_on_a_closed_tcp_fd_is_ebadf_until_the_number_is_reused() {
    let (mut a, mut b) = pair();
    let mut mem = TaggedMemory::new(65_536);
    let buf: Capability = mem
        .root_cap()
        .try_restrict(0, 4_096)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap();
    let mut now = SimTime::ZERO;
    let (fd, bfd) = connected(&mut a, &mut b, &mut now);
    let ep = a.ff_epoll_create();
    a.ff_epoll_ctl_add(ep, fd, EpollFlags::IN).unwrap();

    a.ff_close(fd).unwrap();
    assert_eq!(
        a.tcp_state(fd),
        Some(TcpState::Established),
        "FIN not sent yet"
    );
    assert_eq!(a.ff_close(fd), Err(Errno::EBADF), "a second close");
    assert_eq!(a.ff_read(&mut mem, fd, &buf, 16), Err(Errno::EBADF));
    assert_eq!(a.ff_write(&mut mem, fd, &buf, 16), Err(Errno::EBADF));
    assert_eq!(
        a.ff_sendto(&mut mem, fd, &buf, 16, (B_IP, 9)),
        Err(Errno::EBADF)
    );
    assert_eq!(a.ff_recvfrom(&mut mem, fd, &buf), Err(Errno::EBADF));
    assert_eq!(a.ff_bind(fd, 9_999), Err(Errno::EBADF));
    assert_eq!(a.ff_listen(fd, 4), Err(Errno::EBADF));
    assert_eq!(a.ff_accept(fd), Err(Errno::EBADF));
    assert_eq!(a.ff_connect(fd, (B_IP, PORT), now), Err(Errno::EBADF));
    assert_eq!(
        a.ff_epoll_ctl_add(ep, fd, EpollFlags::IN),
        Err(Errno::EBADF)
    );
    assert_eq!(a.ff_epoll_ctl_del(ep, fd), Err(Errno::EBADF));

    // The FIN handshake runs; A, the active closer, holds TIME_WAIT.
    b.ff_close(bfd).unwrap();
    pump(&mut a, &mut b, &mut now);
    assert_eq!(a.tcp_state(fd), Some(TcpState::TimeWait));
    assert_eq!(
        a.ff_close(fd),
        Err(Errno::EBADF),
        "still the app's no longer"
    );
    assert_eq!(a.ff_read(&mut mem, fd, &buf, 16), Err(Errno::EBADF));
    let other = a.ff_socket(SockType::Stream).unwrap();
    assert_ne!(other, fd, "the number stays reserved until the reap");
    a.ff_close(other).unwrap();

    // The expiry reaps it, and the number is handed out again.
    let expiry = a.next_timer_deadline().expect("2MSL is armed");
    a.poll_tx(expiry);
    assert_eq!(a.tcp_state(fd), None, "reaped");
    assert_eq!(a.ff_socket(SockType::Stream), Ok(fd));
}

/// TIME_WAIT's expiry is reap-only: a parked driver does not wake for it
/// (`next_wake_deadline`), and `settle_reaps` reaps exactly the TCBs due by
/// the instant it is given, emitting nothing.
#[test]
fn time_wait_expiry_is_settled_not_woken_for() {
    let (mut a, mut b) = pair();
    let mut now = SimTime::ZERO;
    let (fd, bfd) = connected(&mut a, &mut b, &mut now);
    a.ff_close(fd).unwrap();
    b.ff_close(bfd).unwrap();
    pump(&mut a, &mut b, &mut now);
    assert_eq!(a.tcp_state(fd), Some(TcpState::TimeWait));
    // A driver takes the changes the handshake made.
    a.take_dirty_fds(&mut Vec::new());
    assert!(a.is_quiet());

    let expiry = a.next_timer_deadline().expect("2MSL is armed");
    assert!(expiry > now);
    assert_eq!(a.next_wake_deadline(), None, "nothing to wake for");
    let floor = a.socket_count() - 1;

    a.settle_reaps(expiry - SimDuration::from_nanos(1));
    assert_eq!(a.tcp_state(fd), Some(TcpState::TimeWait), "not due yet");
    a.settle_reaps(expiry);
    assert_eq!(a.socket_count(), floor, "reaped at its deadline");
    assert_eq!(a.next_timer_deadline(), None);
    assert!(
        a.is_quiet(),
        "the reap marked nothing: the app closed the fd"
    );
    assert!(a.poll_tx(expiry).is_empty());
}

/// A FIN retransmitted onto a TIME_WAIT TCB leaves the stack owing the
/// re-ACK — not quiet, so no driver parks on it — and once that is sent
/// the restarted 2MSL is reap-only again.
#[test]
fn a_retransmitted_fin_is_answered_before_time_wait_is_reap_only_again() {
    let (mut a, mut b) = pair();
    let mut now = SimTime::ZERO;
    let (fd, bfd) = connected(&mut a, &mut b, &mut now);
    a.ff_close(fd).unwrap();
    // A's FIN reaches B; B closes and its FIN reaches A, but A's final
    // ACK is lost.
    now += SimDuration::from_micros(50);
    for f in a.poll_tx(now) {
        b.input_buf(now, &f);
    }
    b.ff_close(bfd).unwrap();
    now += SimDuration::from_micros(50);
    let fins = b.poll_tx(now);
    for f in &fins {
        a.input_buf(now, f);
    }
    now += SimDuration::from_micros(50);
    assert_eq!(a.poll_tx(now).len(), 1, "A's last ACK, lost");
    assert_eq!(a.tcp_state(fd), Some(TcpState::TimeWait));
    a.take_dirty_fds(&mut Vec::new());
    assert_eq!(a.next_wake_deadline(), None);

    // B retransmits its FIN; A owes the ACK again.
    now += SimDuration::from_micros(50);
    for f in &fins {
        a.input_buf(now, f);
    }
    assert!(!a.is_quiet(), "the re-ACK is owed");
    assert_eq!(a.poll_tx(now).len(), 1, "re-ACKed");
    assert_eq!(a.next_wake_deadline(), None, "reap-only again");
    let restarted = a.next_timer_deadline().expect("2MSL is armed");
    assert_eq!(
        restarted,
        now + SimDuration::from_millis(50),
        "and restarted"
    );
}
