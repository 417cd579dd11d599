//! Layer probes: fixed-count timings of the primitives the pump cannot
//! separate — the numbers the `micro_*` criterion targets print and write
//! nowhere. Each probe is the best of five batches of a fixed number of
//! calls, so its cost does not depend on `--seconds`.

use capnet_httpd::http::{build_request, parse_request, ReqParse};
use cheri::capability::Access;
use cheri::{Capability, Perms, TaggedMemory};
use chos::clock::ClockId;
use chos::Syscall;
use fstack::ip::checksum;
use fstack::tcp::{TcpFlags, TcpOptions, TcpSegment};
use intravisor::{CvmConfig, Intravisor};
use mavsim::frame::MavFrame;
use mavsim::msg::{Heartbeat, MavMode, Message};
use mavsim::parser::{CheriParser, GroundStation, VulnerableParser};
use simkern::engine::{Engine, World};
use simkern::{CostModel, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;
use updk::wire::Frame;
use updk::{FrameBufMut, LinkFabric, MacAddr};

const BATCHES: usize = 5;

/// Nanoseconds per call of `f`: the fastest of five batches of `n` calls.
pub fn ns_per_op(n: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..n {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

/// A self-rescheduling world: one inline event per tick, as in the
/// `engine` criterion target.
struct Ticker {
    remaining: u64,
    period: SimDuration,
}

struct Tick;

impl World for Ticker {
    type Event = Tick;
    fn handle(&mut self, _: Tick, eng: &mut Engine<Self>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            eng.schedule_in(self.period, Tick);
        }
    }
}

/// Schedule + dispatch cost of one event landing `period` ahead.
fn engine_ns_per_event(events: u64, period: SimDuration) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let mut eng = Engine::new();
        let mut w = Ticker {
            remaining: events,
            period,
        };
        eng.schedule(SimTime::ZERO, Tick);
        let t0 = Instant::now();
        eng.run(&mut w);
        best = best.min(t0.elapsed().as_nanos() as f64 / events as f64);
    }
    best
}

/// The FNV-1a fold `NetSim`'s always-on delivery digest runs over every
/// delivered frame byte, reproduced here (the fold itself is private) to
/// price it: nanoseconds per byte over MTU frames.
fn digest_ns_per_byte(n: u64) -> f64 {
    let frame = vec![0xA5u8; 1514];
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let per_frame = ns_per_op(n, || {
        let mut d = digest;
        for &b in black_box(&frame[..]) {
            d = (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        digest = d;
    });
    black_box(digest);
    per_frame / frame.len() as f64
}

/// A unicast Ethernet frame from station `src` to station `dst`.
fn eth_frame(dst: MacAddr, src: MacAddr, len: usize) -> Frame {
    let mut bytes = vec![0u8; len];
    bytes[..6].copy_from_slice(&dst.octets());
    bytes[6..12].copy_from_slice(&src.octets());
    bytes[12..14].copy_from_slice(&[0x08, 0x00]);
    Frame::new(bytes)
}

/// `1/scale` of a probe's full call count.
fn calls(full: u64, scale: u64) -> u64 {
    (full / scale.max(1)).max(100)
}

/// One ingress of a star's switch with `stations` learned stations (hub +
/// leaves, at least 2), every leaf sending MTU frames to the hub. Virtual
/// time advances one frame time per ingress so the hub's egress queue
/// never fills.
pub fn switch_ingress_ns(stations: usize, scale: u64) -> f64 {
    let costs = CostModel::morello();
    let mut sw = LinkFabric::new(stations, LinkFabric::DEFAULT_QUEUE);
    let macs: Vec<MacAddr> = (0..stations as u32)
        .map(|i| MacAddr::station(i + 1, 0))
        .collect();
    let mut now = SimTime::ZERO;
    for (port, &mac) in macs.iter().enumerate() {
        sw.ingress(port, now, eth_frame(MacAddr::BROADCAST, mac, 64), &costs);
        now += SimDuration::from_micros(100);
    }
    let frames: Vec<Frame> = macs[1..]
        .iter()
        .map(|&leaf| eth_frame(macs[0], leaf, 1514))
        .collect();
    let mut i = 0usize;
    let ns = ns_per_op(calls(500_000, scale), || {
        now += SimDuration::from_micros(13);
        let leaf = i % frames.len();
        i += 1;
        let tx = sw.ingress(leaf + 1, now, frames[leaf].clone(), &costs);
        debug_assert_eq!(tx.len(), 1);
        black_box(tx.len());
    });
    assert_eq!(sw.stats().dropped, 0, "the probe never overflows a queue");
    ns
}

/// Runs every probe with `1/scale` of its call count and returns the
/// results by metric name.
pub fn run(scale: u64) -> BTreeMap<&'static str, f64> {
    let n = |full: u64| calls(full, scale);
    let mut out = BTreeMap::new();

    // --- cheri ---------------------------------------------------------
    let cap = Capability::root(0x1000, 0x10000, Perms::data());
    out.insert(
        "cheri.check_access_ns",
        ns_per_op(n(2_000_000), || {
            black_box(cap.check_access(black_box(0x2000), 64, Access::Load)).ok();
        }),
    );
    let mut mem = TaggedMemory::new(1 << 20);
    let root = mem.root_cap();
    let data = vec![0xABu8; 1448];
    let mut buf = vec![0u8; 1448];
    out.insert(
        "cheri.write_ns_1448",
        ns_per_op(n(500_000), || {
            mem.write(&root, black_box(4096), &data).expect("in bounds");
        }),
    );
    out.insert(
        "cheri.read_ns_1448",
        ns_per_op(n(500_000), || {
            mem.read_into(&root, black_box(4096), &mut buf)
                .expect("in bounds");
        }),
    );
    out.insert(
        "cheri.view_ns",
        ns_per_op(n(2_000_000), || {
            black_box(
                mem.view(&root, black_box(4096), 1448)
                    .expect("in bounds")
                    .len(),
            );
        }),
    );

    // --- simkern -------------------------------------------------------
    // 900 ns lands every schedule in the wheel's near band; 1 ms is far
    // past its ≈ 524 µs horizon, so every schedule overflows to the heap
    // and migrates back.
    out.insert(
        "simkern.wheel_ns_per_event",
        engine_ns_per_event(n(1_000_000), SimDuration::from_nanos(900)),
    );
    out.insert(
        "simkern.heap_ns_per_event",
        engine_ns_per_event(n(1_000_000), SimDuration::from_millis(1)),
    );

    // --- updk ----------------------------------------------------------
    out.insert(
        "updk.framebuf_cycle_ns",
        ns_per_op(n(500_000), || {
            let mut fb = FrameBufMut::with_headroom(70);
            fb.append(&data);
            black_box(fb.freeze().len());
        }),
    );
    // The 128-leaf star's switch.
    out.insert("updk.switch_ingress_ns_n129", switch_ingress_ns(129, scale));

    // --- fstack codecs -------------------------------------------------
    let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    out.insert(
        "fstack.checksum_ns_1448",
        ns_per_op(n(500_000), || {
            black_box(checksum(black_box(&data)));
        }),
    );
    let seg = TcpSegment {
        src_port: 40_000,
        dst_port: 5201,
        seq: 1,
        ack: 2,
        flags: TcpFlags::only_ack(),
        window: 65_535,
        options: TcpOptions {
            mss: None,
            ts: Some((1, 2)),
            ..Default::default()
        },
        payload: data.clone().into(),
    };
    out.insert(
        "fstack.seg_build_ns",
        ns_per_op(n(300_000), || {
            black_box(seg.build(a, b).len());
        }),
    );
    let wire = seg.build(a, b);
    out.insert(
        "fstack.seg_parse_ns",
        ns_per_op(n(300_000), || {
            black_box(
                TcpSegment::parse(a, b, black_box(&wire))
                    .expect("well formed")
                    .seq,
            );
        }),
    );

    // --- httpd ---------------------------------------------------------
    let mut request = Vec::new();
    build_request("/", false, &mut request);
    out.insert(
        "httpd.parse_request_ns",
        ns_per_op(n(1_000_000), || {
            let parsed = matches!(parse_request(black_box(&request)), ReqParse::Complete(..));
            debug_assert!(parsed);
            black_box(parsed);
        }),
    );

    // --- intravisor ----------------------------------------------------
    {
        let mut iv = Intravisor::new(1 << 20, CostModel::morello());
        let app = iv
            .create_cvm(CvmConfig::new("app").mem_size(64 * 1024))
            .expect("app cVM fits");
        let svc_cvm = iv
            .create_cvm(CvmConfig::new("svc").mem_size(64 * 1024))
            .expect("service cVM fits");
        let svc = iv
            .register_service(svc_cvm, "api")
            .expect("service registers");
        let mut t = SimTime::ZERO;
        out.insert(
            "intravisor.xcall_ns",
            ns_per_op(n(500_000), || {
                t += SimDuration::from_micros(1);
                black_box(iv.xcall(app, svc, t).expect("sealed pair is valid"));
            }),
        );
        out.insert(
            "intravisor.trampoline_ns",
            ns_per_op(n(500_000), || {
                t += SimDuration::from_micros(1);
                black_box(iv.trampoline_syscall(
                    app,
                    t,
                    Syscall::ClockGettime(ClockId::MonotonicRaw),
                ));
            }),
        );
    }

    // --- mavsim --------------------------------------------------------
    let benign = MavFrame::encode(
        1,
        1,
        1,
        &Message::Heartbeat(Heartbeat {
            mode: MavMode::Hover,
            battery_pct: 90,
            armed: true,
        }),
    );
    let mut cheri_parser = CheriParser::new();
    out.insert(
        "mavsim.cheri_parse_ns_per_frame",
        ns_per_op(n(500_000), || {
            black_box(cheri_parser.handle(black_box(&benign)));
        }),
    );
    let mut flat_parser = VulnerableParser::new();
    out.insert(
        "mavsim.flat_parse_ns_per_frame",
        ns_per_op(n(500_000), || {
            black_box(flat_parser.handle(black_box(&benign)));
        }),
    );

    // --- the trace digest, which no crate exposes -------------------------
    out.insert("core.digest_ns_per_byte", digest_ns_per_byte(n(50_000)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_time() {
        let got = run(1000);
        assert_eq!(got.len(), 17);
        assert!(switch_ingress_ns(3, 1000) > 0.0);
        for (name, ns) in &got {
            assert!(ns.is_finite() && *ns > 0.0, "{name} = {ns}");
            assert!(
                crate::metrics::PER_LAYER.iter().any(|m| m.name == *name),
                "{name}"
            );
        }
    }

    #[test]
    fn ns_per_op_scales_with_the_work() {
        let spin = |iters: u64| {
            ns_per_op(200, || {
                let mut x = 1u64;
                for i in 0..iters {
                    x = black_box(x.wrapping_mul(31).wrapping_add(i));
                }
                black_box(x);
            })
        };
        assert!(spin(4_000) > 2.0 * spin(400));
    }
}
