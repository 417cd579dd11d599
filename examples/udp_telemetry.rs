//! MAVLink-style UDP telemetry between a drone and a ground station,
//! through the `ff_*` datagram API with capability-bounded buffers.
//!
//! The paper's motivation cites MAVLink CVEs (e.g. CVE-2024-38951,
//! unchecked buffer limits used for DoS); here every datagram buffer is a
//! bounded capability, so the receive path cannot be pushed past its
//! allocation no matter what arrives.
//!
//! Run with: `cargo run --release --example udp_telemetry`

use cheri::{Perms, TaggedMemory};
use fstack::socket::SockType;
use fstack::{FStack, StackConfig};
use simkern::{SimDuration, SimTime};
use std::error::Error;
use std::net::Ipv4Addr;
use updk::nic::MacAddr;

const DRONE_IP: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 1);
const GCS_IP: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 2);
const MAVLINK_PORT: u16 = 14_550;

fn pump(now: SimTime, a: &mut FStack, b: &mut FStack) {
    for _ in 0..4 {
        let fa = a.poll_tx(now);
        let fb = b.poll_tx(now);
        if fa.is_empty() && fb.is_empty() {
            break;
        }
        for f in fa {
            b.input_buf(now, &f);
        }
        for f in fb {
            a.input_buf(now, &f);
        }
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut drone = FStack::new(StackConfig::new("drone", MacAddr::local(1), DRONE_IP));
    let mut gcs = FStack::new(StackConfig::new("gcs", MacAddr::local(2), GCS_IP));
    drone
        .arp_cache_mut()
        .insert_static(GCS_IP, MacAddr::local(2));
    gcs.arp_cache_mut()
        .insert_static(DRONE_IP, MacAddr::local(1));

    let mut mem = TaggedMemory::new(1 << 20);
    let carve = |mem: &TaggedMemory, base: u64, len: u64| {
        mem.root_cap()
            .try_restrict(base, len)
            .unwrap()
            .try_restrict_perms(Perms::data())
            .unwrap()
    };
    // The GCS receive buffer is deliberately small: 64 bytes, bounded.
    let gcs_rx = carve(&mem, 0x1000, 64);
    let tx = carve(&mem, 0x2000, 256);

    let gcs_sock = gcs.ff_socket(SockType::Dgram)?;
    gcs.ff_bind(gcs_sock, MAVLINK_PORT)?;
    let drone_sock = drone.ff_socket(SockType::Dgram)?;

    let mut now = SimTime::from_micros(10);
    println!("drone -> gcs heartbeats on udp/{MAVLINK_PORT}:");
    for seq in 1..=3u32 {
        let hb = format!("HEARTBEAT seq={seq} mode=HOVER bat={}%", 90 - seq);
        mem.write(&tx, tx.base(), hb.as_bytes())?;
        drone.ff_sendto(
            &mut mem,
            drone_sock,
            &tx,
            hb.len() as u64,
            (GCS_IP, MAVLINK_PORT),
        )?;
        pump(now, &mut drone, &mut gcs);
        let (n, from) = gcs.ff_recvfrom(&mut mem, gcs_sock, &gcs_rx)?;
        let text = mem.read_vec(&gcs_rx, gcs_rx.base(), n)?;
        println!(
            "  gcs got {n}B from {}:{}: {}",
            from.0,
            from.1,
            String::from_utf8_lossy(&text)
        );
        now += SimDuration::from_millis(100);
    }

    // The attack: a 180-byte "telemetry" bomb aimed at the 64-byte buffer.
    println!("\nattacker sends an oversized datagram (the CVE-2024-38951 shape):");
    let bomb = vec![0x41u8; 180];
    mem.write(&tx, tx.base(), &bomb)?;
    drone.ff_sendto(&mut mem, drone_sock, &tx, 180, (GCS_IP, MAVLINK_PORT))?;
    pump(now, &mut drone, &mut gcs);
    // ff_recvfrom truncates to the *capability's* bounds — it cannot write
    // past the 64th byte even though 180 arrived.
    let (n, _) = gcs.ff_recvfrom(&mut mem, gcs_sock, &gcs_rx)?;
    println!("  gcs buffer is a 64-byte capability: received {n} bytes, zero overflow");
    assert_eq!(n, 64);
    // And the neighbouring memory is untouched.
    let neighbour = mem.read_vec(&mem.root_cap(), 0x1040, 16)?;
    assert!(neighbour.iter().all(|&b| b == 0));
    println!("  adjacent memory intact — the bug class is dead on arrival");
    Ok(())
}
