//! TIME_WAIT correctness through the full stack: an actively-closed
//! connection's 4-tuple stays blocked for 2 MSL, so rapid reconnect churn
//! to the same server gets a *fresh* ephemeral port (and a fresh ISN)
//! instead of aliasing the old connection's sequence space — and once the
//! 2 MSL quarantine expires, the tuple really is reusable.

mod testutil;

use chos::fdtable::Fd;
use chos::Errno;
use fstack::socket::SockType;
use fstack::tcp::tcb::TcpState;
use testutil::Lan;

const PORT: u16 = 7400;
/// One round-trip's worth of app payload per connection.
const CHUNK: u64 = 4096;

/// Connects A→B:PORT, pushes `CHUNK` bytes, closes from A, and runs until
/// A's TCB reaches TIME_WAIT. Returns `(local_port, isn)` of the client
/// connection as observed while it was alive.
fn one_connection(net: &mut Lan, lfd: Fd) -> (u16, u32) {
    let cfd = net.stack(0).ff_socket(SockType::Stream).unwrap();
    let now = net.now;
    net.stack(0)
        .ff_connect(cfd, (Lan::ip(1), PORT), now)
        .unwrap();
    let pay = net.app_buffer(0);
    let sink = net.app_buffer(1);
    let mut wrote = 0u64;
    let mut closed = false;
    let mut accepted = None;
    let mut received = 0u64;
    let mut b_closed = false;
    for _ in 0..40_000 {
        net.tick();
        if accepted.is_none() {
            accepted = net.stack(1).ff_accept(lfd).ok();
        }
        if wrote < CHUNK {
            let want = (CHUNK - wrote).min(pay.len());
            let (stack, mem) = net.stack_and_mem(0);
            match stack.ff_write(mem, cfd, &pay, want) {
                Ok(n) => wrote += n,
                // EPIPE covers the pre-established handshake window.
                Err(Errno::EAGAIN) | Err(Errno::EPIPE) => {}
                Err(e) => panic!("ff_write: {e}"),
            }
        } else if !closed {
            net.stack(0).ff_close(cfd).unwrap();
            closed = true;
        }
        if let Some(fd) = accepted {
            if !b_closed {
                loop {
                    let (stack, mem) = net.stack_and_mem(1);
                    match stack.ff_read(mem, fd, &sink, sink.len()) {
                        // EOF: A's FIN arrived — B closes its side too, so
                        // A (the active closer) can move through TIME_WAIT.
                        Ok(0) => {
                            net.stack(1).ff_close(fd).unwrap();
                            b_closed = true;
                            break;
                        }
                        Ok(n) => received += n,
                        Err(_) => break,
                    }
                }
            }
        }
        if closed && net.stack(0).tcp_state(cfd) == Some(TcpState::TimeWait) {
            break;
        }
    }
    assert_eq!(received, CHUNK, "payload arrived before the close");
    assert_eq!(
        net.stack(0).tcp_state(cfd),
        Some(TcpState::TimeWait),
        "active closer parks in TIME_WAIT"
    );
    let (_, port) = net.stack(0).local_addr(cfd).unwrap();
    let isn = net.stack(0).initial_seq(cfd).unwrap();
    (port, isn)
}

#[test]
fn time_wait_blocks_tuple_reuse_until_2msl() {
    // Host 0 (A) is the client, host 1 (B) the server.
    let mut net = Lan::new(2);
    let lfd = net.stack(1).ff_socket(SockType::Stream).unwrap();
    net.stack(1).ff_bind(lfd, PORT).unwrap();
    net.stack(1).ff_listen(lfd, 8).unwrap();

    // Round 1: a normal connection, actively closed by A.
    net.stack(0).set_ephemeral_start(41_000);
    let (port1, isn1) = one_connection(&mut net, lfd);
    assert_eq!(port1, 41_000, "allocator started where we pinned it");

    // Round 2, immediately (well inside 2 MSL): force the allocator to try
    // the quarantined tuple first. It must skip to a fresh port, and the
    // new connection must start from a fresh ISN.
    net.stack(0).set_ephemeral_start(port1);
    let (port2, isn2) = one_connection(&mut net, lfd);
    assert_ne!(
        port2, port1,
        "TIME_WAIT holds the old tuple; churn gets a different port"
    );
    assert_ne!(isn2, isn1, "no ISN reuse across connections");

    // Round 3: run well past 2 MSL (50 ms) so the quarantine expires and
    // the TIME_WAIT TCBs are reaped, then ask for the original port again —
    // now it is genuinely free.
    for _ in 0..30_000 {
        net.tick();
    }
    net.stack(0).set_ephemeral_start(port1);
    let (port3, isn3) = one_connection(&mut net, lfd);
    assert_eq!(
        port3, port1,
        "after 2 MSL the tuple leaves quarantine and is reusable"
    );
    assert_ne!(isn3, isn1, "…but still with a fresh ISN");
}
