//! The TCP-forgery adversary: off-path blind RST and SYN injection
//! against *live* victim connections.
//!
//! Where [`crate::malformed`] attacks the parsers, this family attacks
//! TCP's **connection identity**: it spoofs segments that are perfectly
//! well-formed — correct checksums, a real 4-tuple — but were never sent
//! by the peer they claim to be from. The two classic off-path shapes
//! (RFC 5961's threat model):
//!
//! * **Blind RST** — a reset claiming to be the client, with a guessed
//!   sequence number. The victim must tear down only on an *exact*
//!   `rcv_nxt` match; an in-window guess earns a challenge ACK and every
//!   miss is a counted drop (`rst_forgery_drops`), never a teardown.
//! * **Blind SYN** — a SYN on an established connection. The victim must
//!   not reset to Listen (the pre-5961 failure); it drops, counts
//!   (`syn_forgery_drops`) and challenge-ACKs.
//!
//! The forger cycles through a small ephemeral-port range the real
//! client fleet allocates from sequentially, so a busy serving plane
//! guarantees live-tuple hits. Frames leave through
//! [`fstack::FStack::inject_raw_tx`] and traverse the switch like any
//! legitimate traffic; the campaign asserts the victim's forgery
//! counters moved while its serving counters kept climbing.

use crate::ChaosStepOutcome;
use fstack::ether::{EthHdr, EtherType};
use fstack::ip::{IpProto, Ipv4Hdr};
use fstack::tcp::{TcpFlags, TcpOptions, TcpSegment};
use fstack::FStack;
use simkern::rng::SimRng;
use simkern::Fnv1a;
use std::net::Ipv4Addr;
use updk::framebuf::FrameBuf;
use updk::nic::MacAddr;

/// TCP-forgery knobs.
#[derive(Debug, Clone)]
pub struct TcpForgeConfig {
    /// The connection endpoint under attack (the serving side).
    pub victim_ip: Ipv4Addr,
    /// The victim's listening port (the live connections' local port).
    pub victim_port: u16,
    /// The peer the forgeries impersonate (a real client's address).
    pub client_ip: Ipv4Addr,
    /// Low end of the impersonated ephemeral-port range. The stack
    /// allocates ephemerals sequentially from 40 000, so a small range
    /// starting there maximizes live-tuple hits.
    pub ephemeral_lo: u16,
    /// High end (inclusive) of the impersonated ephemeral-port range.
    pub ephemeral_hi: u16,
    /// Forged segments per campaign round (default 4; alternating
    /// RST/SYN).
    pub frames_per_round: u32,
}

impl Default for TcpForgeConfig {
    fn default() -> Self {
        TcpForgeConfig {
            victim_ip: Ipv4Addr::new(10, 0, 0, 1),
            victim_port: 8080,
            client_ip: Ipv4Addr::new(10, 0, 0, 2),
            ephemeral_lo: 40_000,
            ephemeral_hi: 40_015,
            frames_per_round: 4,
        }
    }
}

/// TCP-forgery accounting (the adversary's side; the victim's defence
/// shows up in its [`fstack::StackStats`] forgery counters).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TcpForgeReport {
    /// Blind RSTs emitted.
    pub rsts_forged: u64,
    /// Blind SYNs emitted.
    pub syns_forged: u64,
    /// Bytes of forged frames on the wire.
    pub bytes_emitted: u64,
}

/// The forgery app: one seeded RNG choosing ports, sequence numbers and
/// the RST/SYN mix.
#[derive(Debug)]
pub struct TcpForgeApp {
    cfg: TcpForgeConfig,
    rng: SimRng,
    src_mac: MacAddr,
    report: TcpForgeReport,
}

impl TcpForgeApp {
    /// Builds the forger. `src_mac` is the adversary's own L2 address
    /// (the spoofing happens at L3 — off-path hosts share the segment).
    pub fn new(cfg: TcpForgeConfig, seed: u64, src_mac: MacAddr) -> Self {
        TcpForgeApp {
            cfg,
            rng: SimRng::seed_from_u64(seed),
            src_mac,
            report: TcpForgeReport::default(),
        }
    }

    /// Emits one round of forged segments through `stack`'s transmit
    /// path.
    pub fn round(&mut self, stack: &mut FStack, digest: &mut Fnv1a, out: &mut ChaosStepOutcome) {
        for _ in 0..self.cfg.frames_per_round {
            // Draws in fixed order: port, sequence, kind.
            let span = u64::from(self.cfg.ephemeral_hi.saturating_sub(self.cfg.ephemeral_lo)) + 1;
            let port = self.cfg.ephemeral_lo + self.rng.below(span) as u16;
            let seq = self.rng.next_u64() as u32;
            let rst = self.rng.chance_per_mille(500);
            let frame = self.forge(port, seq, rst);
            digest.fold_u64(u64::from(port) << 33 | u64::from(rst) << 32 | u64::from(seq));
            digest.fold(&frame);
            if stack.inject_raw_tx(&frame) {
                if rst {
                    self.report.rsts_forged += 1;
                } else {
                    self.report.syns_forged += 1;
                }
                self.report.bytes_emitted += frame.len() as u64;
                out.ff_calls += 1;
                out.bytes += frame.len() as u64;
            }
            out.progressed = true;
        }
    }

    /// Accounting so far.
    pub fn report(&self) -> TcpForgeReport {
        self.report.clone()
    }

    /// One forged segment impersonating `client_ip:port → victim`: a
    /// blind RST (guessed `seq`) or a blind SYN. Well-formed in every
    /// way — the victim's *sequence validation*, not its parser, must be
    /// the defence.
    fn forge(&mut self, port: u16, seq: u32, rst: bool) -> Vec<u8> {
        let seg = TcpSegment {
            src_port: port,
            dst_port: self.cfg.victim_port,
            seq,
            ack: 0,
            flags: TcpFlags {
                rst,
                syn: !rst,
                ..TcpFlags::default()
            },
            window: 65_535,
            options: TcpOptions::default(),
            payload: FrameBuf::copy_from(&[]),
        };
        let l4 = seg.build(self.cfg.client_ip, self.cfg.victim_ip);
        let ip = Ipv4Hdr::build(
            self.cfg.client_ip,
            self.cfg.victim_ip,
            IpProto::Tcp,
            self.rng.next_u64() as u16,
            &l4,
        );
        EthHdr {
            // Broadcast at L2: every stack on the segment sees it, only
            // the claimed L3 destination processes it — the off-path
            // adversary needs no ARP knowledge of the victim.
            dst: MacAddr::BROADCAST,
            src: self.src_mac,
            ethertype: EtherType::Ipv4,
        }
        .build(&ip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fstack::epoll::EpollFlags;
    use fstack::socket::SockType;
    use fstack::StackConfig;
    use simkern::time::SimTime;

    /// Forged RSTs and SYNs replayed straight into a victim stack with a
    /// live established connection: every forgery must be dropped and
    /// counted, never tear the connection down.
    #[test]
    fn forgeries_count_but_never_kill_the_connection() {
        let victim_ip = Ipv4Addr::new(10, 0, 0, 1);
        let client_ip = Ipv4Addr::new(10, 0, 0, 2);
        let port = 8080;

        // A real client stack establishes against the victim.
        let mut victim = FStack::new(StackConfig::new("victim", MacAddr::local(1), victim_ip));
        let mut client = FStack::new(StackConfig::new("client", MacAddr::local(2), client_ip));
        victim
            .arp_cache_mut()
            .insert_static(client_ip, MacAddr::local(2));
        client
            .arp_cache_mut()
            .insert_static(victim_ip, MacAddr::local(1));
        let lfd = victim.ff_socket(SockType::Stream).unwrap();
        victim.ff_bind(lfd, port).unwrap();
        victim.ff_listen(lfd, 8).unwrap();
        let cfd = client.ff_socket(SockType::Stream).unwrap();
        let mut now = SimTime::ZERO;
        client.ff_connect(cfd, (victim_ip, port), now).unwrap();
        for _ in 0..6 {
            now += simkern::time::SimDuration::from_micros(50);
            for f in client.poll_tx(now) {
                victim.input_buf(now, &f);
            }
            for f in victim.poll_tx(now) {
                client.input_buf(now, &f);
            }
        }
        let vfd = victim.ff_accept(lfd).expect("handshake completed");

        // The off-path forger sprays the (known, tiny) tuple space.
        let mut forger = TcpForgeApp::new(
            TcpForgeConfig {
                victim_ip,
                victim_port: port,
                client_ip,
                ephemeral_lo: 40_000,
                ephemeral_hi: 40_003,
                frames_per_round: 64,
            },
            7,
            MacAddr::local(9),
        );
        let mut atk = FStack::new(StackConfig::new("atk", MacAddr::local(9), client_ip));
        let mut digest = Fnv1a::default();
        let mut out = ChaosStepOutcome::default();
        forger.round(&mut atk, &mut digest, &mut out);
        now += simkern::time::SimDuration::from_micros(50);
        for f in atk.poll_tx(now) {
            victim.input_buf(now, &f);
        }

        let r = forger.report();
        assert!(r.rsts_forged > 0 && r.syns_forged > 0);
        let stats = victim.stats();
        assert!(
            stats.rst_forgery_drops > 0,
            "blind RSTs must be counted drops: {stats:?}"
        );
        assert!(
            stats.syn_forgery_drops > 0,
            "blind SYNs must be counted drops: {stats:?}"
        );
        // The live connection survived the barrage.
        let ready = victim.readiness(vfd);
        assert!(!ready.contains(EpollFlags::ERR) && !ready.contains(EpollFlags::HUP));
    }

    #[test]
    fn forger_is_deterministic_in_the_seed() {
        let mk = || TcpForgeApp::new(TcpForgeConfig::default(), 11, MacAddr::local(3));
        let mut a = mk();
        let mut b = mk();
        let mut sa = FStack::new(StackConfig::new(
            "a",
            MacAddr::local(3),
            Ipv4Addr::new(10, 0, 0, 9),
        ));
        let mut sb = FStack::new(StackConfig::new(
            "b",
            MacAddr::local(3),
            Ipv4Addr::new(10, 0, 0, 9),
        ));
        let (mut da, mut db) = (Fnv1a::default(), Fnv1a::default());
        let (mut oa, mut ob) = (ChaosStepOutcome::default(), ChaosStepOutcome::default());
        for _ in 0..8 {
            a.round(&mut sa, &mut da, &mut oa);
            b.round(&mut sb, &mut db, &mut ob);
        }
        assert_eq!(da.value(), db.value());
        assert_eq!(a.report(), b.report());
    }
}
