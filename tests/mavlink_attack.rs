//! Integration: the paper's §I motivating attack, end to end.
//!
//! *"A buffer overflow in the network stack could allow an attacker to take
//! full control of a drone"* — and CVE-2024-38951 "leverages unchecked
//! buffer limits to mount a DoS attack on the MAVLink protocol of PX4".
//!
//! Here the whole chain runs in simulation: a drone streams MAVLink-style
//! telemetry over UDP through the F-Stack/updk datapath to a ground
//! station; an attacker on the same network injects one CRC-valid frame
//! with a forged length field. The ground station's receive path is the
//! CVE's unchecked copy. Deployed on flat memory (the paper's Baseline) the
//! exploit rewrites the adjacent actuator block; deployed in a CHERI
//! compartment it dies with Fig. 3's capability out-of-bounds exception and
//! the rest of the system keeps operating.

use cheri::{Perms, TaggedMemory};
use fstack::socket::SockType;
use fstack::{FStack, StackConfig};
use mavsim::frame::{MavFrame, SeqTracker};
use mavsim::msg::{Attitude, Heartbeat, MavMode, Message};
use mavsim::parser::{
    attack, CheriParser, GroundStation, ParserOutcome, VulnerableParser, MOTOR_IDLE,
};
use simkern::SimTime;
use std::net::Ipv4Addr;
use updk::nic::MacAddr;

const DRONE_IP: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 1);
const GCS_IP: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 2);
const ATTACKER_IP: Ipv4Addr = Ipv4Addr::new(10, 8, 0, 66);
const MAV_PORT: u16 = 14_550;

/// Three hosts on one segment: drone, ground station, attacker.
struct Net {
    drone: FStack,
    gcs: FStack,
    attacker: FStack,
}

impl Net {
    fn new() -> Self {
        let mut drone = FStack::new(StackConfig::new("drone", MacAddr::local(1), DRONE_IP));
        let mut gcs = FStack::new(StackConfig::new("gcs", MacAddr::local(2), GCS_IP));
        let mut attacker =
            FStack::new(StackConfig::new("attacker", MacAddr::local(6), ATTACKER_IP));
        for (s, others) in [
            (&mut drone, [(GCS_IP, 2u8), (ATTACKER_IP, 6)]),
            (&mut gcs, [(DRONE_IP, 1), (ATTACKER_IP, 6)]),
            (&mut attacker, [(DRONE_IP, 1), (GCS_IP, 2)]),
        ] {
            for (ip, mac) in others {
                s.arp_cache_mut().insert_static(ip, MacAddr::local(mac));
            }
        }
        Net {
            drone,
            gcs,
            attacker,
        }
    }

    /// Moves frames between all three stacks until quiescent (a switch).
    fn pump(&mut self, now: SimTime) {
        for _ in 0..6 {
            let fd = self.drone.poll_tx(now);
            let fg = self.gcs.poll_tx(now);
            let fa = self.attacker.poll_tx(now);
            if fd.is_empty() && fg.is_empty() && fa.is_empty() {
                break;
            }
            // Everything here is unicast to a known MAC; deliver by IP.
            for f in fd.iter().chain(&fg).chain(&fa) {
                for s in [&mut self.drone, &mut self.gcs, &mut self.attacker] {
                    s.input_buf(now, f);
                }
            }
        }
    }
}

fn buf(mem: &mut TaggedMemory, base: u64, len: u64) -> cheri::Capability {
    mem.root_cap()
        .try_restrict(base, len)
        .unwrap()
        .try_restrict_perms(Perms::data())
        .unwrap()
}

/// Sends `frame_bytes` as one UDP datagram from `src` to the GCS port.
fn send_mav(
    stack: &mut FStack,
    mem: &mut TaggedMemory,
    fd: i32,
    scratch: &cheri::Capability,
    frame_bytes: &[u8],
) {
    mem.write(scratch, scratch.base(), frame_bytes).unwrap();
    stack
        .ff_sendto(
            mem,
            fd,
            scratch,
            frame_bytes.len() as u64,
            (GCS_IP, MAV_PORT),
        )
        .unwrap();
}

/// Runs the full scenario against a given ground-station receive path.
/// Returns (parser, telemetry frames delivered before the attack,
/// telemetry frames delivered after the attack).
fn run_attack<G: GroundStation>(mut gs: G) -> (G, u64, u64) {
    let mut net = Net::new();
    let mut mem = TaggedMemory::new(1 << 20);
    let now = SimTime::from_micros(50);

    let s_gcs = net.gcs.ff_socket(SockType::Dgram).unwrap();
    net.gcs.ff_bind(s_gcs, MAV_PORT).unwrap();
    let s_drone = net.drone.ff_socket(SockType::Dgram).unwrap();
    let s_attacker = net.attacker.ff_socket(SockType::Dgram).unwrap();

    let tx = buf(&mut mem, 0x1000, 512);
    let rx = buf(&mut mem, 0x2000, 512);
    let mut seq = SeqTracker::new();
    let mut delivered_pre = 0u64;
    let mut delivered_post = 0u64;
    let recv_all = |net: &mut Net,
                    mem: &mut TaggedMemory,
                    gs: &mut G,
                    count: &mut u64,
                    seq: &mut SeqTracker| {
        while let Ok((n, _from)) = net.gcs.ff_recvfrom(mem, s_gcs, &rx) {
            let bytes = mem.read_vec(&rx, rx.base(), n).unwrap();
            if let Ok(f) = MavFrame::decode(&bytes) {
                seq.observe(f.seq);
            }
            if gs.handle(&bytes).is_delivered() {
                *count += 1;
            }
        }
    };

    // Phase 1: ten telemetry frames of legitimate traffic.
    for i in 0..10u8 {
        let m = if i % 2 == 0 {
            Message::Heartbeat(Heartbeat {
                mode: MavMode::Auto,
                battery_pct: 90 - i,
                armed: true,
            })
        } else {
            Message::Attitude(Attitude {
                roll_mrad: i32::from(i) * 10,
                pitch_mrad: -5,
                yaw_mrad: 1_570,
            })
        };
        send_mav(
            &mut net.drone,
            &mut mem,
            s_drone,
            &tx,
            &MavFrame::encode(i, 1, 1, &m),
        );
        net.pump(now);
        recv_all(&mut net, &mut mem, &mut gs, &mut delivered_pre, &mut seq);
    }

    // Phase 2: the attacker injects the oversized frame (full-throttle
    // motor bytes ride past the RX buffer).
    let exploit = attack::oversized_statustext(120, 0xFFFF);
    send_mav(&mut net.attacker, &mut mem, s_attacker, &tx, &exploit);
    net.pump(now);
    let mut sink = 0u64;
    recv_all(&mut net, &mut mem, &mut gs, &mut sink, &mut seq);

    // Phase 3: the drone keeps streaming; does the GCS still hear it?
    for i in 10..20u8 {
        let m = Message::Heartbeat(Heartbeat {
            mode: MavMode::Auto,
            battery_pct: 80,
            armed: true,
        });
        send_mav(
            &mut net.drone,
            &mut mem,
            s_drone,
            &tx,
            &MavFrame::encode(i, 1, 1, &m),
        );
        net.pump(now);
        recv_all(&mut net, &mut mem, &mut gs, &mut delivered_post, &mut seq);
    }
    assert_eq!(seq.received, 21, "all 21 frames traversed the UDP stack");
    (gs, delivered_pre, delivered_post)
}

#[test]
fn baseline_flat_memory_is_silently_hijacked() {
    let (gs, pre, post) = run_attack(VulnerableParser::new());
    assert_eq!(pre, 10, "all telemetry delivered before the attack");
    // The insidious part: nothing visibly fails…
    assert!(gs.alive());
    assert_eq!(post, 10, "telemetry keeps flowing as if nothing happened");
    // …but the actuator block is attacker-controlled now.
    assert_eq!(
        gs.motors(),
        [0xFFFF; 4],
        "motors at attacker's full throttle"
    );
    assert!(!gs.failsafe_armed(), "failsafe disarmed by the overflow");
}

#[test]
fn cheri_compartment_contains_the_same_attack() {
    let (gs, pre, post) = run_attack(CheriParser::new());
    assert_eq!(pre, 10);
    // The compartment died at the moment of the violation (fail stop)…
    assert!(!gs.alive());
    let fault = gs.fault().expect("the capability fault is recorded");
    assert!(
        format!("{fault}").to_lowercase().contains("bound"),
        "Fig. 3 out-of-bounds exception: {fault}"
    );
    assert_eq!(
        post, 0,
        "a dead cVM receives nothing (fail-stop, not fail-open)"
    );
    // …and the safety-critical state is exactly as it was.
    assert_eq!(gs.motors(), [MOTOR_IDLE; 4]);
}

#[test]
fn attack_frame_survives_the_udp_path_intact() {
    // Sanity: the exploit is not mangled by the stack — checksums pass and
    // the GCS receives the exact bytes the attacker sent.
    let mut net = Net::new();
    let mut mem = TaggedMemory::new(1 << 20);
    let now = SimTime::from_micros(50);
    let s_gcs = net.gcs.ff_socket(SockType::Dgram).unwrap();
    net.gcs.ff_bind(s_gcs, MAV_PORT).unwrap();
    let s_attacker = net.attacker.ff_socket(SockType::Dgram).unwrap();
    let tx = buf(&mut mem, 0x1000, 512);
    let rx = buf(&mut mem, 0x2000, 512);
    let exploit = attack::oversized_statustext(120, 0xFFFF);
    send_mav(&mut net.attacker, &mut mem, s_attacker, &tx, &exploit);
    net.pump(now);
    let (n, from) = net.gcs.ff_recvfrom(&mut mem, s_gcs, &rx).unwrap();
    assert_eq!(n, exploit.len() as u64);
    assert_eq!(from.0, ATTACKER_IP);
    let bytes = mem.read_vec(&rx, rx.base(), n).unwrap();
    assert_eq!(bytes, exploit);
    assert!(MavFrame::decode(&bytes).is_ok(), "CRC-valid end to end");
}

#[test]
fn cheri_gcs_recovers_from_attack_via_respawn() {
    // The CVE is a DoS; the Intravisor's cVM lifecycle turns it into a
    // bounded availability blip: after the exploit kills the compartment,
    // a respawn restores telemetry with actuator state never glitched.
    let (mut gs, pre, post) = run_attack(CheriParser::new());
    assert_eq!((pre, post), (10, 0));
    gs.respawn();
    assert!(gs.alive());
    let hb = MavFrame::encode(
        42,
        1,
        1,
        &Message::Heartbeat(Heartbeat {
            mode: MavMode::Rtl,
            battery_pct: 60,
            armed: true,
        }),
    );
    assert!(
        gs.handle(&hb).is_delivered(),
        "telemetry resumes post-respawn"
    );
    assert_eq!(gs.motors(), [MOTOR_IDLE; 4]);
    assert_eq!(gs.faults_survived(), 1);
}

#[test]
fn telemetry_over_a_lossy_link_is_detected_by_seq_gaps() {
    // MAVLink's sequence field is the GCS's link-quality meter. Push 200
    // frames through a 10%-lossy radio link (the impairment model applied
    // at the datagram level) and check the tracker's accounting: received
    // + inferred-lost equals sent, and measured quality ≈ delivery rate.
    use simkern::rng::SimRng;
    use updk::wire::Impairments;

    let imp = Impairments::lossy(100); // 10 %
    let mut rng = SimRng::seed_from_u64(0xD20E);
    let mut gs = CheriParser::new();
    let mut seq = SeqTracker::new();
    let mut sent = 0u16;
    for i in 0..200u8 {
        sent += 1;
        let wire = MavFrame::encode(
            i,
            1,
            1,
            &Message::Attitude(Attitude {
                roll_mrad: i32::from(i),
                pitch_mrad: 0,
                yaw_mrad: 0,
            }),
        );
        let plan = imp.plan(&mut rng, simkern::SimTime::from_micros(u64::from(i) * 50));
        for _ in plan.deliveries {
            if let Ok(f) = MavFrame::decode(&wire) {
                seq.observe(f.seq);
            }
            assert!(gs.handle(&wire).is_delivered());
        }
    }
    assert!(seq.received < u64::from(sent), "some frames were lost");
    // A gap tracker cannot see losses before the first or after the last
    // received frame, so its total is bounded by what was sent and must
    // cover at least the frames it saw plus the gaps between them.
    assert!(seq.received + seq.lost <= u64::from(sent));
    assert!(seq.lost > 0, "a 10% lossy link shows gaps");
    let quality = seq.quality();
    assert!(
        (0.80..=0.97).contains(&quality),
        "≈90% delivery measured, got {quality:.2}"
    );
    assert!(gs.alive(), "loss never harms the compartment");
}

#[test]
fn legit_command_traffic_still_decodes_through_both_parsers() {
    use mavsim::msg::CommandLong;
    let arm = Message::CommandLong(CommandLong {
        command: 400,
        params: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    });
    let wire = MavFrame::encode(0, 255, 190, &arm);
    let mut v = VulnerableParser::new();
    let mut c = CheriParser::new();
    assert!(
        matches!(v.handle(&wire), ParserOutcome::Delivered(Message::CommandLong(k)) if k.command == 400)
    );
    assert!(
        matches!(c.handle(&wire), ParserOutcome::Delivered(Message::CommandLong(k)) if k.command == 400)
    );
}

#[test]
fn ground_control_supervises_a_lossy_mission() {
    // The full consumer story: a drone streams heartbeat+attitude over a
    // 5%-lossy radio; the ground station folds state, measures link
    // quality from sequence gaps, and — when the drone goes silent while
    // armed — recommends failsafe.
    use mavsim::gcs::GroundControl;
    use simkern::rng::SimRng;
    use updk::wire::Impairments;

    let imp = Impairments::lossy(50);
    let mut rng = SimRng::seed_from_u64(0xF00D);
    let mut gcs = GroundControl::new(500_000_000); // 0.5 s timeout
    let mut t: u64 = 0;
    for i in 0..100u8 {
        t += 100_000_000; // 10 Hz telemetry
        let m = if i % 2 == 0 {
            Message::Heartbeat(Heartbeat {
                mode: MavMode::Auto,
                battery_pct: 100 - i / 2,
                armed: true,
            })
        } else {
            Message::Attitude(Attitude {
                roll_mrad: i32::from(i) * 3,
                pitch_mrad: 0,
                yaw_mrad: 0,
            })
        };
        let wire = MavFrame::encode(i, 1, 1, &m);
        let plan = imp.plan(&mut rng, simkern::SimTime::from_nanos(t));
        for _ in plan.deliveries {
            gcs.observe(t, &wire).unwrap();
        }
    }
    let (ok, bad) = gcs.frame_counts();
    assert!(ok > 80 && bad == 0, "most frames arrived: {ok}");
    let q = gcs.link_quality();
    assert!((0.85..=1.0).contains(&q), "≈95% quality, got {q:.2}");
    assert!(gcs.state().armed);
    assert!(gcs.state().battery_pct < 100, "battery telemetry tracked");
    assert!(!gcs.link_stale(t), "alive while streaming");

    // The drone goes silent (crash, jammer, or the §I exploit killing a
    // monolithic firmware): half a second later the station must call it.
    let silence = t + 600_000_000;
    assert!(gcs.link_stale(silence));
    assert!(gcs.failsafe_recommended(silence), "armed + silent = RTL");
}
