//! Zero-window flow control through the full stack: when the receiver's
//! buffer fills and it advertises a zero window, the sender must fall back
//! to the RFC 1122 §4.2.2.17 persist timer — one-byte probes at a
//! backed-off cadence — instead of blasting full segments at a peer that
//! has nowhere to put them. Every frame on the wire is captured and its
//! TCP header parsed, so the assertions are about actual wire behavior,
//! not internal counters alone.

mod testutil;

use chos::Errno;
use fstack::socket::SockType;
use testutil::Lan;

const PORT: u16 = 7300;
/// More than the receiver can buffer (its socket buffer is 64 KiB).
const TOTAL: u64 = 160 * 1024;

/// A parsed TCP frame off the captured wire.
struct TcpView {
    payload_len: usize,
    window: u16,
    syn: bool,
    fin: bool,
}

/// Ethernet + IPv4 + TCP parse; `None` for ARP and anything non-TCP.
fn parse_tcp(bytes: &[u8]) -> Option<TcpView> {
    if bytes.len() < 14 + 20 + 20 {
        return None;
    }
    if bytes[12] != 0x08 || bytes[13] != 0x00 {
        return None; // not IPv4
    }
    let ip = &bytes[14..];
    let ihl = usize::from(ip[0] & 0x0F) * 4;
    if ip[9] != 6 {
        return None; // not TCP
    }
    let total_len = usize::from(u16::from_be_bytes([ip[2], ip[3]]));
    let tcp = &ip[ihl..];
    let data_off = usize::from(tcp[12] >> 4) * 4;
    Some(TcpView {
        payload_len: total_len - ihl - data_off,
        window: u16::from_be_bytes([tcp[14], tcp[15]]),
        syn: tcp[13] & 0x02 != 0,
        fin: tcp[13] & 0x01 != 0,
    })
}

#[test]
fn zero_window_receiver_sees_only_one_byte_probes() {
    // Host 0 (A) is the client, host 1 (B) the server.
    let mut net = Lan::new(2);
    let lfd = net.stack(1).ff_socket(SockType::Stream).unwrap();
    net.stack(1).ff_bind(lfd, PORT).unwrap();
    net.stack(1).ff_listen(lfd, 4).unwrap();
    let cfd = net.stack(0).ff_socket(SockType::Stream).unwrap();
    let now = net.now;
    net.stack(0)
        .ff_connect(cfd, (Lan::ip(1), PORT), now)
        .unwrap();

    // Phase 1: flood. B accepts the connection but its app NEVER reads, so
    // the advertised window shrinks to zero and stays there.
    let pay = net.app_buffer(0);
    let mut wrote = 0u64;
    for _ in 0..6_000 {
        net.tick();
        if wrote < TOTAL {
            let want = (TOTAL - wrote).min(pay.len());
            let (stack, mem) = net.stack_and_mem(0);
            match stack.ff_write(mem, cfd, &pay, want) {
                Ok(n) => wrote += n,
                // EPIPE covers the pre-established handshake window.
                Err(Errno::EAGAIN) | Err(Errno::EPIPE) => {}
                Err(e) => panic!("ff_write: {e}"),
            }
        }
    }
    let afd = net.stack(1).ff_accept(lfd).unwrap();
    let stalled = net
        .deliveries
        .iter()
        .rev()
        .filter(|d| d.host == 0)
        .find_map(|d| parse_tcp(&d.bytes))
        .expect("B sent ACKs");
    assert_eq!(stalled.window, 0, "receiver is advertising a zero window");

    // Phase 2: hold the zero window for 40 ms of virtual time. Everything
    // A now puts on the wire must be a persist probe of at most one byte.
    let mark = net.deliveries.len();
    for _ in 0..20_000 {
        net.tick();
    }
    let mut probes = 0usize;
    for d in &net.deliveries[mark..] {
        if d.host != 1 {
            continue;
        }
        let Some(t) = parse_tcp(&d.bytes) else {
            continue;
        };
        assert!(!t.syn && !t.fin, "no handshake traffic during the stall");
        assert!(
            t.payload_len <= 1,
            "{}-byte segment sent into a zero window",
            t.payload_len
        );
        if t.payload_len == 1 {
            probes += 1;
        }
    }
    assert!(probes >= 2, "probes kept the connection alive: {probes}");
    // The cadence is the backed-off persist timer, not once-per-RTT spam:
    // 40 ms at a 5 ms floor with doubling allows only a handful.
    assert!(
        probes <= 10,
        "persist backoff bounds the probe rate: {probes}"
    );
    let stats = net.stack(0).tcb_stats(cfd).expect("client TCB alive");
    assert!(
        stats.persist_probes >= probes as u64,
        "probes came from the persist machinery ({} counted, {} on the wire)",
        stats.persist_probes,
        probes
    );

    // Phase 3: B drains; the window reopens and the rest of the transfer
    // completes — the stall was fully recoverable.
    let sink = net.app_buffer(1);
    let mut received = 0u64;
    for _ in 0..60_000 {
        net.tick();
        if wrote < TOTAL {
            let want = (TOTAL - wrote).min(pay.len());
            let (stack, mem) = net.stack_and_mem(0);
            match stack.ff_write(mem, cfd, &pay, want) {
                Ok(n) => wrote += n,
                Err(Errno::EAGAIN) => {}
                Err(e) => panic!("ff_write: {e}"),
            }
        }
        loop {
            let (stack, mem) = net.stack_and_mem(1);
            match stack.ff_read(mem, afd, &sink, sink.len()) {
                Ok(0) => break,
                Ok(n) => received += n,
                Err(_) => break,
            }
        }
        if received >= TOTAL {
            break;
        }
    }
    assert_eq!(
        received, TOTAL,
        "transfer completed after the window reopened"
    );
}
