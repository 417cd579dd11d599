//! ICMP echo through the user-space stack: two F-Stack instances exchange
//! a ping over the protocol modules (Ethernet/ARP/IPv4/ICMP), showing the
//! library below the `ff_*` socket layer.
//!
//! Run with: `cargo run --release --example ping`

use fstack::ether::{EthHdr, EtherType};
use fstack::icmp::{IcmpEcho, IcmpType};
use fstack::ip::{IpProto, Ipv4Hdr};
use fstack::{FStack, StackConfig};
use simkern::{SimDuration, SimTime};
use std::error::Error;
use std::net::Ipv4Addr;
use updk::framebuf::FrameBuf;
use updk::nic::MacAddr;

fn main() -> Result<(), Box<dyn Error>> {
    let a_mac = MacAddr::local(1);
    let b_mac = MacAddr::local(2);
    let a_ip = Ipv4Addr::new(10, 0, 0, 1);
    let b_ip = Ipv4Addr::new(10, 0, 0, 2);

    // Only the *target* stack runs the full FStack; we hand-roll the
    // pinger to show the protocol modules directly.
    let mut target = FStack::new(StackConfig::new("target", b_mac, b_ip));
    let mut now = SimTime::from_micros(10);

    for seq in 1..=4u16 {
        let echo = IcmpEcho::request(0xBEEF, seq, b"capnet ping payload");
        let ip = Ipv4Hdr::build(a_ip, b_ip, IpProto::Icmp, seq, &echo.build());
        let frame = EthHdr {
            dst: b_mac,
            src: a_mac,
            ethertype: EtherType::Ipv4,
        }
        .build(&ip);

        let sent_at = now;
        target.input_buf(now, &FrameBuf::copy_from(&frame));
        now += SimDuration::from_micros(30); // polling delay at the target
        let replies = target.poll_tx(now);
        let reply = replies.first().ok_or("no reply frame")?;

        let (eth, ip_bytes) = EthHdr::parse(reply).ok_or("bad eth")?;
        assert_eq!(eth.dst, a_mac);
        let (ip_hdr, l4) = Ipv4Hdr::parse(ip_bytes).ok_or("bad ip")?;
        let echo_reply = IcmpEcho::parse(l4).ok_or("bad icmp")?;
        assert_eq!(echo_reply.kind, IcmpType::EchoReply);
        assert_eq!(echo_reply.seq, seq);
        println!(
            "{} bytes from {}: icmp_seq={} time={}",
            l4.len(),
            ip_hdr.src,
            echo_reply.seq,
            now - sent_at
        );
        now += SimDuration::from_millis(1);
    }
    println!(
        "--- {} ping statistics: 4 answered, {} total answered by the stack ---",
        b_ip,
        target.stats().pings_answered
    );
    Ok(())
}
