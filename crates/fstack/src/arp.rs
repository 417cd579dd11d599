//! ARP: IPv4-over-Ethernet address resolution.
//!
//! F-Stack (via the FreeBSD stack) resolves next-hop MACs with ARP; our
//! scenarios exercise it during connection setup, after which the cache
//! serves the data path.

use simkern::FxHasher;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use updk::nic::MacAddr;

/// Length of an Ethernet/IPv4 ARP packet.
pub const ARP_LEN: usize = 28;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has (1).
    Request,
    /// Is-at (2).
    Reply,
}

/// A parsed Ethernet/IPv4 ARP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sha: MacAddr,
    /// Sender protocol address.
    pub spa: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub tha: MacAddr,
    /// Target protocol address.
    pub tpa: Ipv4Addr,
}

impl ArpPacket {
    /// Builds a who-has request for `tpa`.
    pub fn request(sha: MacAddr, spa: Ipv4Addr, tpa: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sha,
            spa,
            tha: MacAddr([0; 6]),
            tpa,
        }
    }

    /// Builds the is-at reply answering `req`.
    pub fn reply_to(&self, my_mac: MacAddr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sha: my_mac,
            spa: self.tpa,
            tha: self.sha,
            tpa: self.spa,
        }
    }

    /// Parses an ARP payload (after the Ethernet header).
    pub fn parse(p: &[u8]) -> Option<ArpPacket> {
        if p.len() < ARP_LEN {
            return None;
        }
        // htype=1 (Ethernet), ptype=0x0800, hlen=6, plen=4.
        if p[0..2] != [0, 1] || p[2..4] != [8, 0] || p[4] != 6 || p[5] != 4 {
            return None;
        }
        let op = match u16::from_be_bytes([p[6], p[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return None,
        };
        let mac = |s: &[u8]| {
            let mut m = [0u8; 6];
            m.copy_from_slice(s);
            MacAddr(m)
        };
        Some(ArpPacket {
            op,
            sha: mac(&p[8..14]),
            spa: Ipv4Addr::new(p[14], p[15], p[16], p[17]),
            tha: mac(&p[18..24]),
            tpa: Ipv4Addr::new(p[24], p[25], p[26], p[27]),
        })
    }

    /// Serializes to the 28-byte wire format.
    pub fn build(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ARP_LEN);
        out.extend_from_slice(&[0, 1, 8, 0, 6, 4]);
        out.extend_from_slice(
            &match self.op {
                ArpOp::Request => 1u16,
                ArpOp::Reply => 2u16,
            }
            .to_be_bytes(),
        );
        out.extend_from_slice(&self.sha.octets());
        out.extend_from_slice(&self.spa.octets());
        out.extend_from_slice(&self.tha.octets());
        out.extend_from_slice(&self.tpa.octets());
        out
    }
}

/// The neighbour cache.
#[derive(Debug, Clone, Default)]
pub struct ArpCache {
    entries: HashMap<Ipv4Addr, MacAddr, FxHasher>,
    requests_sent: u64,
}

impl ArpCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the MAC for `ip`.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<MacAddr> {
        self.entries.get(&ip).copied()
    }

    /// Learns (or refreshes) a mapping; the cache is written only when it
    /// changes.
    pub fn learn(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        if self.entries.get(&ip) != Some(&mac) {
            self.entries.insert(ip, mac);
        }
    }

    /// Installs a static entry (scenario pre-wiring).
    pub fn insert_static(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.learn(ip, mac);
    }

    /// Records that a request was transmitted (for stats).
    pub fn note_request(&mut self) {
        self.requests_sent += 1;
    }

    /// Requests transmitted so far.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// Number of cached neighbours.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_reply_round_trip() {
        let a_mac = MacAddr::local(1);
        let b_mac = MacAddr::local(2);
        let a_ip = Ipv4Addr::new(10, 0, 0, 1);
        let b_ip = Ipv4Addr::new(10, 0, 0, 2);

        let req = ArpPacket::request(a_mac, a_ip, b_ip);
        let bytes = req.build();
        assert_eq!(bytes.len(), ARP_LEN);
        let parsed = ArpPacket::parse(&bytes).unwrap();
        assert_eq!(parsed, req);

        let rep = parsed.reply_to(b_mac);
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sha, b_mac);
        assert_eq!(rep.spa, b_ip);
        assert_eq!(rep.tha, a_mac);
        assert_eq!(rep.tpa, a_ip);
        // Reply round-trips too.
        assert_eq!(ArpPacket::parse(&rep.build()).unwrap(), rep);
    }

    #[test]
    fn malformed_packets_are_rejected() {
        assert!(ArpPacket::parse(&[0u8; 10]).is_none());
        let mut bytes = ArpPacket::request(
            MacAddr::local(1),
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
        )
        .build();
        bytes[7] = 9; // bad op
        assert!(ArpPacket::parse(&bytes).is_none());
        bytes[7] = 1;
        bytes[4] = 8; // bad hlen
        assert!(ArpPacket::parse(&bytes).is_none());
    }

    #[test]
    fn cache_learns_and_serves() {
        let mut c = ArpCache::new();
        let ip = Ipv4Addr::new(10, 0, 0, 2);
        assert!(c.lookup(ip).is_none());
        assert!(c.is_empty());
        c.learn(ip, MacAddr::local(2));
        assert_eq!(c.lookup(ip), Some(MacAddr::local(2)));
        // Refresh overwrites.
        c.learn(ip, MacAddr::local(9));
        assert_eq!(c.lookup(ip), Some(MacAddr::local(9)));
        assert_eq!(c.len(), 1);
        c.note_request();
        assert_eq!(c.requests_sent(), 1);
    }
}
