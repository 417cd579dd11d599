//! The `ff_*` socket API over one network interface.
//!
//! This is the surface the paper measures. The signatures carry the port's
//! headline change: buffer arguments are **capabilities**, not raw
//! pointers —
//!
//! ```c
//! ssize_t ff_write(int fd, const void *__capability buf, size_t nbytes);
//! ```
//!
//! becomes [`FStack::ff_write`]`(mem, fd, &buf_cap, nbytes)`, and every
//! payload byte crosses through [`cheri::TaggedMemory`] checked loads. A
//! fault in the buffer capability surfaces as `EFAULT`, exactly as CheriBSD
//! reports failed capability checks on user pointers.

use crate::arp::{ArpCache, ArpOp, ArpPacket};
use crate::epoll::{EpollEvent, EpollFlags, EpollTable};
use crate::ether::{EthHdr, EtherType, ETH_HDR_LEN};
use crate::icmp::{IcmpEcho, IcmpType};
use crate::ip::{IpProto, Ipv4Hdr, IPV4_HDR_LEN};
use crate::socket::{DgramEntry, SockType, Socket};
use crate::tcp::cc::CcAlgo;
use crate::tcp::tcb::{Tcb, TcpState};
use crate::tcp::{SegPayload, TcpSegment, MAX_TCP_HDR};
use crate::udp::UdpDatagram;
use crate::MSS;
use cheri::{Capability, TaggedMemory};
use chos::errno::Errno;
use chos::fdtable::{Fd, FdTable};
use simkern::time::SimTime;
use simkern::FxHasher;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::net::Ipv4Addr;
use updk::framebuf::{FrameBuf, FrameBufMut};
use updk::nic::MacAddr;
use updk::wire::MIN_FRAME;

/// Headroom reserved at the front of every transmitted frame buffer:
/// enough to prepend the largest TCP header, the IPv4 header and the
/// Ethernet header in place after the payload is written once.
const TX_HEADROOM: usize = ETH_HDR_LEN + IPV4_HDR_LEN + MAX_TCP_HDR;

/// Interface configuration for one stack instance.
#[derive(Debug, Clone)]
pub struct StackConfig {
    /// Instance name (reports).
    pub name: String,
    /// The interface MAC (must match the attached port).
    pub mac: MacAddr,
    /// The interface IPv4 address.
    pub ip: Ipv4Addr,
    /// Congestion-control algorithm for new TCP connections.
    pub cc: CcAlgo,
    /// Negotiate SACK (RFC 2018) on new TCP connections.
    pub sack: bool,
}

impl StackConfig {
    /// Creates a config (Reno, no SACK — the historical defaults).
    pub fn new(name: impl Into<String>, mac: MacAddr, ip: Ipv4Addr) -> Self {
        StackConfig {
            name: name.into(),
            mac,
            ip,
            cc: CcAlgo::default(),
            sack: false,
        }
    }

    /// Selects the congestion-control algorithm for new connections.
    pub fn with_cc(mut self, cc: CcAlgo) -> Self {
        self.cc = cc;
        self
    }

    /// Enables SACK negotiation for new connections.
    pub fn with_sack(mut self, sack: bool) -> Self {
        self.sack = sack;
        self
    }
}

/// Aggregate stack counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Frames accepted from the driver.
    pub frames_in: u64,
    /// Frames handed to the driver.
    pub frames_out: u64,
    /// Frames dropped (not for us / parse failures).
    pub drops: u64,
    /// TCP segments delivered to some TCB.
    pub tcp_in: u64,
    /// UDP datagrams delivered.
    pub udp_in: u64,
    /// ICMP echos answered.
    pub pings_answered: u64,
    /// RFC 793 resets emitted for segments matching no socket.
    pub rsts_out: u64,
    /// ICMP port-unreachable messages emitted for closed UDP ports.
    pub unreach_out: u64,
    /// SYNs dropped at a listener because its accept queue was full (or
    /// the socket table was exhausted). BSD semantics: the SYN vanishes,
    /// no RST — the client's retransmission machinery retries, and if the
    /// server drains its queue in time the connection still completes.
    pub listen_drops: u64,
    /// Ethernet headers that failed to parse (truncated frame).
    pub parse_drop_eth: u64,
    /// ARP packets that failed to parse.
    pub parse_drop_arp: u64,
    /// IPv4 headers that failed to parse (bad version/IHL, length lies,
    /// header checksum mismatch).
    pub parse_drop_ip: u64,
    /// TCP segments that failed to parse (truncated header, bad offset,
    /// checksum mismatch).
    pub parse_drop_tcp: u64,
    /// UDP datagrams that failed to parse (length lies, checksum mismatch).
    pub parse_drop_udp: u64,
    /// RST segments dropped by sequence validation (RFC 5961 §3): blind
    /// reset forgeries against live 4-tuples, summed over all connections.
    pub rst_forgery_drops: u64,
    /// SYN segments dropped on synchronized connections (RFC 5961 §4):
    /// blind SYN forgeries, summed over all connections.
    pub syn_forgery_drops: u64,
    /// Connections that died of retransmission give-up (ETIMEDOUT): the
    /// bounded R2 user timeout declared the peer dead.
    pub conn_timeouts: u64,
    /// `ff_epoll_wait` calls served.
    pub epoll_waits: u64,
    /// Sockets whose readiness those calls evaluated — exact work, so
    /// `epoll_fds_evaluated / epoll_waits` says whether a wait costs what
    /// is ready or what is registered.
    pub epoll_fds_evaluated: u64,
}

impl StackStats {
    /// Total frames rejected by a header parser — the reject-and-count
    /// contract of the input-path hardening: malformed input bumps a
    /// per-layer counter (and [`StackStats::drops`]) and vanishes; no
    /// parser panics. Drops for *well-formed* frames that simply are not
    /// ours (wrong MAC/IP, unknown EtherType/protocol) are excluded.
    pub fn parse_drops(&self) -> u64 {
        self.parse_drop_eth
            + self.parse_drop_arp
            + self.parse_drop_ip
            + self.parse_drop_tcp
            + self.parse_drop_udp
    }
}

/// One F-Stack instance bound to one interface.
///
/// # Example
///
/// ```
/// use fstack::{FStack, StackConfig};
/// use fstack::socket::SockType;
/// use updk::nic::MacAddr;
/// use std::net::Ipv4Addr;
///
/// # fn main() -> Result<(), chos::Errno> {
/// let mut stack = FStack::new(StackConfig::new(
///     "srv",
///     MacAddr::local(1),
///     Ipv4Addr::new(10, 0, 0, 1),
/// ));
/// let fd = stack.ff_socket(SockType::Stream)?;
/// stack.ff_bind(fd, 5201)?;
/// stack.ff_listen(fd, 16)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FStack {
    cfg: StackConfig,
    arp: ArpCache,
    sockets: FdTable<Socket>,
    /// TCP demux: (local port, remote ip, remote port) → fd.
    conn_map: HashMap<(u16, Ipv4Addr, u16), Fd, FxHasher>,
    /// TCP listeners by local port.
    listen_map: HashMap<u16, Fd, FxHasher>,
    /// UDP demux by local port.
    udp_map: HashMap<u16, Fd, FxHasher>,
    /// Link-layer frames ready to transmit (ARP/ICMP replies etc.).
    pending_tx: VecDeque<FrameBuf>,
    /// IP packets (with Ethernet headroom still free) parked awaiting ARP
    /// resolution, keyed by next hop.
    arp_wait: Vec<(Ipv4Addr, FrameBufMut)>,
    epoll: EpollTable,
    isn: u32,
    ident: u16,
    next_ephemeral: u16,
    stats: StackStats,
    /// Sockets whose application-visible state changed since the driver
    /// last drained the set ([`FStack::take_dirty_fds`]): data or a
    /// connection arrived, the connection state moved, send space opened,
    /// an asynchronous error landed. A poll-mode driver steps only the
    /// applications owning these fds — a socket that is not here, has no
    /// due timer and saw no app call cannot make an application call
    /// return differently than on the previous turn.
    dirty: FdSet,
    /// Sockets that may owe the wire output, a timer action or reaping at
    /// the next [`FStack::poll_tx`]: marked on input, on application
    /// tx-side calls (`ff_write`/`ff_close`/`ff_connect`/`ff_sendto`) and
    /// when an armed TCB timer comes due. `poll_tx` visits only these,
    /// in fd order — the same relative order the historical full-table
    /// scan used, so the emitted frame order is unchanged.
    tx_hot: FdSet,
    /// Armed TCB timer deadlines, `(deadline, fd)`, lazily validated
    /// against [`FStack::armed`] (an entry is stale once the socket's
    /// armed deadline moved; stale entries are skipped on pop).
    timer_q: BinaryHeap<std::cmp::Reverse<(SimTime, Fd)>>,
    /// The deadline each socket currently has armed in [`FStack::timer_q`].
    armed: Vec<Option<SimTime>>,
    /// The application the driver says is calling ([`FStack::set_caller`]).
    caller: Option<u32>,
    /// Which caller obtained each fd number, by fd ([`FStack::owner_of`]).
    /// An entry outlives its socket — a reaped fd's last dirty mark must
    /// still reach the application that closed it — and is overwritten
    /// when the number is handed out again.
    owner: Vec<Option<u32>>,
    /// [`FStack::poll_tx_into`]'s working vectors, kept empty between
    /// polls so a steady-state poll allocates nothing.
    tx_scratch: TxScratch,
}

/// The working vectors of one [`FStack::poll_tx_into`].
#[derive(Debug, Default)]
struct TxScratch {
    /// The hot set, drained and sorted into fd order.
    hot: Vec<Fd>,
    /// Built IP packets and their next hops, before link-layer wrapping.
    to_send: Vec<(Ipv4Addr, FrameBufMut)>,
}

/// A set of fds in insertion order: a list for draining, a flag per fd so
/// a second insert before the drain is a no-op.
#[derive(Debug)]
struct FdSet {
    list: Vec<Fd>,
    flag: Vec<bool>,
}

impl FdSet {
    fn new(max_sockets: usize) -> Self {
        FdSet {
            list: Vec::new(),
            flag: vec![false; max_sockets],
        }
    }

    /// Adds `fd` unless it is already in, or beyond the socket table.
    fn insert(&mut self, fd: Fd) {
        if let Some(flag) = self.flag.get_mut(fd as usize) {
            if !*flag {
                *flag = true;
                self.list.push(fd);
            }
        }
    }

    /// Empties the set, appending its fds to `out` in insertion order.
    fn drain_into(&mut self, out: &mut Vec<Fd>) {
        for &fd in &self.list {
            self.flag[fd as usize] = false;
        }
        out.append(&mut self.list);
    }
}

/// Maximum sockets per stack instance (F-Stack default scale).
const MAX_SOCKETS: usize = 1024;

impl FStack {
    /// Creates a stack for the given interface.
    pub fn new(cfg: StackConfig) -> Self {
        Self::with_socket_capacity(cfg, MAX_SOCKETS)
    }

    /// [`FStack::new`] with an explicit socket-table limit — the per-fd
    /// bookkeeping (dirty/hot flags, armed-timer slots) is sized to it, so
    /// placeholder stacks that will never open a socket can pass 0 and
    /// allocate nothing.
    pub fn with_socket_capacity(cfg: StackConfig, max_sockets: usize) -> Self {
        FStack {
            cfg,
            arp: ArpCache::new(),
            sockets: FdTable::with_capacity(max_sockets),
            conn_map: HashMap::default(),
            listen_map: HashMap::default(),
            udp_map: HashMap::default(),
            pending_tx: VecDeque::new(),
            arp_wait: Vec::new(),
            epoll: EpollTable::new(),
            isn: 0x1000,
            ident: 1,
            next_ephemeral: 40_000,
            stats: StackStats::default(),
            dirty: FdSet::new(max_sockets),
            tx_hot: FdSet::new(max_sockets),
            timer_q: BinaryHeap::new(),
            armed: vec![None; max_sockets],
            caller: None,
            owner: Vec::new(),
            tx_scratch: TxScratch::default(),
        }
    }

    /// Flags `fd` as changed for the driver (idempotent per drain cycle)
    /// and for the epoll instances watching it.
    fn mark_dirty(&mut self, fd: Fd) {
        self.epoll.touch(fd);
        self.dirty.insert(fd);
    }

    /// Flags `fd` for the next [`FStack::poll_tx`] visit (idempotent) and
    /// for the epoll instances watching it.
    fn mark_hot(&mut self, fd: Fd) {
        self.epoll.touch(fd);
        self.tx_hot.insert(fd);
    }

    /// Re-arms `fd`'s timer entry from its TCB's current earliest deadline
    /// (no-op when unchanged; the superseded heap entry goes stale and is
    /// skipped on pop).
    fn arm_timer(&mut self, fd: Fd) {
        let deadline = self
            .sockets
            .get(fd)
            .and_then(Socket::tcb)
            .and_then(Tcb::next_timer_deadline);
        let slot = &mut self.armed[fd as usize];
        if *slot == deadline {
            return;
        }
        *slot = deadline;
        if let Some(d) = deadline {
            self.timer_q.push(std::cmp::Reverse((d, fd)));
        }
    }

    /// Drains the set of sockets whose application-visible state changed
    /// since the previous drain, appending the fds to `out` (unordered).
    /// The poll-mode driver uses this to step only the applications that
    /// can actually make progress — every other app's next step is
    /// guaranteed to be the same no-op as its last.
    pub fn take_dirty_fds(&mut self, out: &mut Vec<Fd>) {
        self.dirty.drain_into(out);
    }

    /// `true` when the stack owes its driver nothing: no fd changed for an
    /// application since the last [`FStack::take_dirty_fds`], no fd waits
    /// for a [`FStack::poll_tx`] visit, no link-layer frame is queued. A
    /// quiet stack changes only when a frame arrives, an application calls
    /// it, or a timer of [`FStack::next_timer_deadline`] falls due — so a
    /// driver that knows no application will call it may park right after
    /// the turn that left it quiet. (Packets awaiting ARP resolution wait
    /// for input and do not count.)
    pub fn is_quiet(&self) -> bool {
        self.dirty.list.is_empty() && self.tx_hot.list.is_empty() && self.pending_tx.is_empty()
    }

    /// Names the application whose calls follow, until the next call: a
    /// driver hosting several applications on one stack says which one it
    /// is about to run, as each app cVM of the paper's Scenario 2 reaches
    /// the F-Stack service through its own wrapper. `id` is the driver's
    /// to choose; the stack only hands it back from [`FStack::owner_of`].
    pub fn set_caller(&mut self, id: u32) {
        self.caller = Some(id);
    }

    /// The caller that obtained `fd` from `ff_socket` or `ff_accept` — the
    /// application a change on `fd` concerns. Still answered after the
    /// socket is gone, until the number is handed out again; `None` for a
    /// number never handed out under a caller (a connection still waiting
    /// in a listener's backlog reports whoever held the number before).
    pub fn owner_of(&self, fd: Fd) -> Option<u32> {
        self.owner.get(fd as usize).copied().flatten()
    }

    /// Records the current caller as the owner of the fd being handed out.
    fn stamp_owner(&mut self, fd: Fd) {
        if let Some(id) = self.caller {
            let idx = fd as usize;
            if idx >= self.owner.len() {
                self.owner.resize(idx + 1, None);
            }
            self.owner[idx] = Some(id);
        }
    }

    /// The interface configuration.
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    /// Aggregate counters.
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    /// The neighbour cache (scenarios pre-seed it; tests inspect it).
    pub fn arp_cache_mut(&mut self) -> &mut ArpCache {
        &mut self.arp
    }

    /// Selects the congestion-control algorithm for connections opened or
    /// accepted from now on (existing connections are untouched).
    pub fn set_cc(&mut self, cc: CcAlgo) {
        self.cfg.cc = cc;
    }

    /// Enables SACK negotiation for connections opened or accepted from
    /// now on.
    pub fn set_sack(&mut self, sack: bool) {
        self.cfg.sack = sack;
    }

    /// Pins the next ephemeral port the allocator will try (test hook for
    /// forcing 4-tuple collisions without cycling the whole range).
    pub fn set_ephemeral_start(&mut self, port: u16) {
        self.next_ephemeral = port.clamp(40_000, 60_000);
    }

    /// The TCP state of `fd`'s connection, if it is a connected TCP socket.
    pub fn tcp_state(&self, fd: Fd) -> Option<crate::tcp::tcb::TcpState> {
        self.sockets.get(fd)?.tcb().map(|t| t.state())
    }

    /// Per-connection counters of `fd`'s TCB (retransmits, persist probes,
    /// SACK retransmits, …), if it is a connected TCP socket.
    pub fn tcb_stats(&self, fd: Fd) -> Option<crate::tcp::tcb::TcbStats> {
        self.sockets.get(fd)?.tcb().map(|t| t.stats())
    }

    /// The local `(ip, port)` of `fd`, once bound or connected.
    pub fn local_addr(&self, fd: Fd) -> Option<(Ipv4Addr, u16)> {
        self.sockets.get(fd)?.local()
    }

    /// The remote `(ip, port)` of `fd`'s connection, if it is a connected
    /// TCP socket — what `getpeername` reports, and what per-client
    /// policies (rate limiting) key on.
    pub fn remote_addr(&self, fd: Fd) -> Option<(Ipv4Addr, u16)> {
        self.sockets.get(fd)?.tcb().map(|t| t.endpoints().1)
    }

    /// Accept-queue depths of a listening socket as
    /// `(incomplete, established)` — the accounting split `ff_accept`
    /// works from. `None` for non-listeners.
    pub fn listen_queue_depths(&self, fd: Fd) -> Option<(usize, usize)> {
        match self.sockets.get(fd)? {
            Socket::TcpListen { backlog, ready, .. } => Some((backlog.len(), ready.len())),
            _ => None,
        }
    }

    /// Number of live socket-table entries (listeners, connections in any
    /// state including TIME_WAIT, UDP). Churn tests assert this returns
    /// to the steady-state floor — no TCB leaks.
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// The initial send sequence number `fd`'s connection started from
    /// (test hook: TIME_WAIT churn asserts fresh ISNs across reuses).
    pub fn initial_seq(&self, fd: Fd) -> Option<u32> {
        self.sockets.get(fd)?.tcb().map(|t| t.initial_seq())
    }

    // ------------------------------------------------------------------
    // ff_* socket calls
    // ------------------------------------------------------------------

    /// `ff_socket(AF_INET, type, 0)`.
    ///
    /// # Errors
    ///
    /// [`Errno::EMFILE`] when the socket table is full.
    pub fn ff_socket(&mut self, kind: SockType) -> Result<Fd, Errno> {
        let fd = self.sockets.alloc(Socket::new(kind))?;
        self.stamp_owner(fd);
        Ok(fd)
    }

    /// `ff_bind(fd, {ip, port})` — the ip is implicitly the interface's.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`], [`Errno::EADDRINUSE`], or [`Errno::EINVAL`] for an
    /// already-bound socket.
    pub fn ff_bind(&mut self, fd: Fd, port: u16) -> Result<(), Errno> {
        if self.listen_map.contains_key(&port)
            || self.udp_map.contains_key(&port)
            || self.conn_map.keys().any(|(p, _, _)| *p == port)
        {
            return Err(Errno::EADDRINUSE);
        }
        let ip = self.cfg.ip;
        let sock = self.sockets.get_mut(fd).ok_or(Errno::EBADF)?;
        match sock {
            Socket::TcpUnbound => {
                *sock = Socket::TcpBound { local: (ip, port) };
                Ok(())
            }
            Socket::Udp { local, .. } if local.is_none() => {
                *local = Some((ip, port));
                self.udp_map.insert(port, fd);
                Ok(())
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// `ff_listen(fd, backlog)`.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] / [`Errno::EDESTADDRREQ`] for unbound sockets /
    /// [`Errno::EINVAL`] for non-TCP or already-listening sockets.
    pub fn ff_listen(&mut self, fd: Fd, backlog: usize) -> Result<(), Errno> {
        let sock = self.sockets.get_mut(fd).ok_or(Errno::EBADF)?;
        match sock {
            Socket::TcpBound { local } => {
                let local = *local;
                *sock = Socket::TcpListen {
                    local,
                    backlog: VecDeque::new(),
                    ready: VecDeque::new(),
                    max_backlog: backlog.max(1),
                };
                self.listen_map.insert(local.1, fd);
                Ok(())
            }
            Socket::TcpUnbound => Err(Errno::EDESTADDRREQ),
            _ => Err(Errno::EINVAL),
        }
    }

    /// `ff_accept(fd)` — non-blocking: pops the oldest **established**
    /// connection from the listener's ready queue, O(1). Connections still
    /// in their handshake sit in the incomplete backlog and are promoted
    /// on the ACK that establishes them, so a slow handshake never
    /// head-of-line-blocks a completed one behind it.
    ///
    /// # Errors
    ///
    /// [`Errno::EAGAIN`] when none is ready; [`Errno::EINVAL`] for
    /// non-listeners.
    pub fn ff_accept(&mut self, fd: Fd) -> Result<Fd, Errno> {
        let sock = self.sockets.get_mut(fd).ok_or(Errno::EBADF)?;
        let Socket::TcpListen { ready, .. } = sock else {
            return Err(Errno::EINVAL);
        };
        let child = ready.pop_front().ok_or(Errno::EAGAIN)?;
        self.stamp_owner(child);
        Ok(child)
    }

    /// `ff_connect(fd, {remote_ip, remote_port})` — non-blocking active
    /// open; completion is observable via `ff_epoll_wait` (EPOLLOUT).
    ///
    /// The 4-tuple must be free: a connection still draining in TIME_WAIT
    /// (or any other live state) keeps its local port unavailable against
    /// that remote until 2MSL expires, so a rapid reconnect can never
    /// alias the old incarnation's sequence space. Unbound sockets skip
    /// occupied ephemeral ports; bound sockets fail with `EADDRINUSE`.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] / [`Errno::EISCONN`] / [`Errno::EINVAL`] /
    /// [`Errno::EADDRINUSE`] (bound port still in use against `remote`,
    /// e.g. TIME_WAIT) / [`Errno::EADDRNOTAVAIL`] (ephemeral range
    /// exhausted against `remote`).
    pub fn ff_connect(
        &mut self,
        fd: Fd,
        remote: (Ipv4Addr, u16),
        _now: SimTime,
    ) -> Result<(), Errno> {
        let ip = self.cfg.ip;
        match self.sockets.get(fd).ok_or(Errno::EBADF)? {
            Socket::TcpUnbound | Socket::TcpBound { .. } => {}
            Socket::TcpConn(_) => return Err(Errno::EISCONN),
            _ => return Err(Errno::EINVAL),
        }
        let local = match self.sockets.get(fd) {
            Some(Socket::TcpBound { local }) => {
                if self.conn_map.contains_key(&(local.1, remote.0, remote.1)) {
                    return Err(Errno::EADDRINUSE);
                }
                *local
            }
            _ => (ip, self.alloc_ephemeral_for(remote)?),
        };
        let isn = self.next_isn();
        let (cc, sack) = (self.cfg.cc, self.cfg.sack);
        let sock = self.sockets.get_mut(fd).ok_or(Errno::EBADF)?;
        let mut tcb = Tcb::connect(local, remote, isn, MSS);
        tcb.set_cc(cc);
        tcb.set_sack(sack);
        *sock = Socket::TcpConn(Box::new(tcb));
        self.conn_map.insert((local.1, remote.0, remote.1), fd);
        self.mark_hot(fd); // the SYN leaves on the next poll
        Ok(())
    }

    /// `ff_write(fd, buf, nbytes)` — **the paper's measured call**, with the
    /// capability-typed buffer of the CHERI port. Reads `nbytes` through
    /// `buf` (checked) and appends them to the socket's send buffer.
    ///
    /// # Errors
    ///
    /// * [`Errno::EFAULT`] — the capability check failed (tag/seal/bounds/
    ///   permission), CheriBSD's verdict for bad user pointers;
    /// * [`Errno::EAGAIN`] — send buffer full (non-blocking semantics);
    /// * [`Errno::EPIPE`] — socket not writable (closed/reset).
    pub fn ff_write(
        &mut self,
        mem: &mut TaggedMemory,
        fd: Fd,
        buf: &Capability,
        nbytes: u64,
    ) -> Result<u64, Errno> {
        let sock = self.sockets.get_mut(fd).ok_or(Errno::EBADF)?;
        let tcb = sock.tcb_mut().ok_or(Errno::ENOTCONN)?;
        if tcb.state() == TcpState::Closed {
            return Err(if tcb.was_refused() {
                Errno::ECONNREFUSED
            } else if tcb.was_reset() {
                Errno::ECONNRESET
            } else if tcb.was_timed_out() {
                Errno::ETIMEDOUT
            } else {
                Errno::EPIPE
            });
        }
        if !tcb.writable() {
            return Err(if tcb.is_established() {
                Errno::EAGAIN
            } else {
                Errno::EPIPE
            });
        }
        let data = mem
            .view(buf, buf.addr(), nbytes)
            .map_err(|_| Errno::EFAULT)?;
        let accepted = tcb.write(data);
        if accepted == 0 {
            return Err(Errno::EAGAIN);
        }
        self.mark_hot(fd);
        Ok(accepted as u64)
    }

    /// `ff_read(fd, buf, nbytes)`: moves up to `nbytes` received bytes into
    /// the capability-bounded `buf`. Returns 0 at EOF.
    ///
    /// # Errors
    ///
    /// [`Errno::EFAULT`] on capability faults, [`Errno::EAGAIN`] when no
    /// data is ready.
    pub fn ff_read(
        &mut self,
        mem: &mut TaggedMemory,
        fd: Fd,
        buf: &Capability,
        nbytes: u64,
    ) -> Result<u64, Errno> {
        let sock = self.sockets.get_mut(fd).ok_or(Errno::EBADF)?;
        let tcb = sock.tcb_mut().ok_or(Errno::ENOTCONN)?;
        if tcb.readable_bytes() == 0 {
            if tcb.was_refused() {
                return Err(Errno::ECONNREFUSED);
            }
            if tcb.was_reset() {
                return Err(Errno::ECONNRESET);
            }
            if tcb.was_timed_out() {
                return Err(Errno::ETIMEDOUT);
            }
            return if tcb.at_eof() || tcb.state() == TcpState::Closed {
                Ok(0)
            } else {
                Err(Errno::EAGAIN)
            };
        }
        let take = nbytes.min(buf.len()).min(tcb.readable_bytes() as u64);
        let dst = mem
            .view_mut(buf, buf.addr(), take)
            .map_err(|_| Errno::EFAULT)?;
        let n = tcb.read_into(dst);
        debug_assert_eq!(n as u64, take, "readable bytes shrank underfoot");
        Ok(n as u64)
    }

    /// `ff_sendto` for UDP sockets.
    ///
    /// # Errors
    ///
    /// [`Errno::EFAULT`] / [`Errno::EBADF`] / [`Errno::ENOTSOCK`] /
    /// [`Errno::EMSGSIZE`] for datagrams beyond one MTU.
    pub fn ff_sendto(
        &mut self,
        mem: &mut TaggedMemory,
        fd: Fd,
        buf: &Capability,
        nbytes: u64,
        to: (Ipv4Addr, u16),
    ) -> Result<u64, Errno> {
        if nbytes > 1472 {
            return Err(Errno::EMSGSIZE);
        }
        let data = FrameBuf::copy_from(
            mem.view(buf, buf.addr(), nbytes)
                .map_err(|_| Errno::EFAULT)?,
        );
        let eph = self.alloc_ephemeral();
        let (udp_port, fd_needs_map) = {
            let sock = self.sockets.get_mut(fd).ok_or(Errno::EBADF)?;
            let Socket::Udp {
                local,
                tx,
                pending_err,
                ..
            } = sock
            else {
                return Err(Errno::ENOTSOCK);
            };
            if let Some(err) = pending_err.take() {
                return Err(err);
            }
            let bound = match local {
                Some(l) => (*l, false),
                None => {
                    let ip = to.0; // interface ip set below
                    let _ = ip;
                    *local = Some((Ipv4Addr::UNSPECIFIED, eph));
                    ((Ipv4Addr::UNSPECIFIED, eph), true)
                }
            };
            tx.push_back(DgramEntry {
                from: to,
                data: data.clone(),
            });
            (bound.0 .1, bound.1)
        };
        if fd_needs_map {
            self.udp_map.insert(udp_port, fd);
        }
        self.mark_hot(fd);
        Ok(nbytes)
    }

    /// `ff_recvfrom` for UDP sockets.
    ///
    /// # Errors
    ///
    /// [`Errno::EAGAIN`] when empty; [`Errno::EFAULT`] on capability faults.
    pub fn ff_recvfrom(
        &mut self,
        mem: &mut TaggedMemory,
        fd: Fd,
        buf: &Capability,
    ) -> Result<(u64, (Ipv4Addr, u16)), Errno> {
        let sock = self.sockets.get_mut(fd).ok_or(Errno::EBADF)?;
        let Socket::Udp {
            rx, pending_err, ..
        } = sock
        else {
            return Err(Errno::ENOTSOCK);
        };
        if let Some(err) = pending_err.take() {
            return Err(err);
        }
        let Some(entry) = rx.pop_front() else {
            return Err(Errno::EAGAIN);
        };
        let n = (entry.data.len() as u64).min(buf.len());
        mem.write(buf, buf.addr(), &entry.data[..n as usize])
            .map_err(|_| Errno::EFAULT)?;
        Ok((n, entry.from))
    }

    /// `ff_close(fd)`: orderly close. The fd becomes invalid for the
    /// application immediately — and leaves every epoll set it was
    /// registered with, as on Linux, so no registration outlives its socket
    /// into a reused fd number; the TCB lingers internally until the FIN
    /// handshake finishes, then is reaped by [`FStack::poll_tx`].
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`].
    pub fn ff_close(&mut self, fd: Fd) -> Result<(), Errno> {
        let sock = self.sockets.get_mut(fd).ok_or(Errno::EBADF)?;
        self.epoll.forget(fd);
        match sock {
            Socket::TcpConn(tcb) => {
                if tcb.state() == TcpState::Closed {
                    // Already dead (orderly finish, refused, reset or
                    // timed out): nothing left for the protocol to do —
                    // free the slot now instead of leaving an error'd
                    // zombie the reaper is told to preserve.
                    let (local, remote) = tcb.endpoints();
                    self.conn_map.remove(&(local.1, remote.0, remote.1));
                    return self.sockets.free(fd).map(|_| ());
                }
                tcb.close();
                self.mark_hot(fd); // the FIN leaves on the next poll
                Ok(()) // reaped when Closed
            }
            Socket::TcpListen { local, .. } => {
                self.listen_map.remove(&local.1);
                self.sockets.free(fd).map(|_| ())
            }
            Socket::Udp { local, .. } => {
                if let Some((_, port)) = local {
                    let port = *port;
                    self.udp_map.remove(&port);
                }
                self.sockets.free(fd).map(|_| ())
            }
            _ => self.sockets.free(fd).map(|_| ()),
        }
    }

    // ------------------------------------------------------------------
    // epoll
    // ------------------------------------------------------------------

    /// `ff_epoll_create()`.
    pub fn ff_epoll_create(&mut self) -> Fd {
        self.epoll.create()
    }

    /// `ff_epoll_ctl(ADD/MOD)`.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] for an unknown epoll fd or an `fd` that is not an
    /// open socket.
    pub fn ff_epoll_ctl_add(
        &mut self,
        epfd: Fd,
        fd: Fd,
        interest: EpollFlags,
    ) -> Result<(), Errno> {
        self.sockets.get(fd).ok_or(Errno::EBADF)?;
        self.epoll.add(epfd, fd, interest)
    }

    /// `ff_epoll_ctl(DEL)`.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] / [`Errno::ENOENT`].
    pub fn ff_epoll_ctl_del(&mut self, epfd: Fd, fd: Fd) -> Result<(), Errno> {
        self.epoll.remove(epfd, fd)
    }

    /// `ff_epoll_wait` (non-blocking, level-triggered).
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] for an unknown epoll fd.
    pub fn ff_epoll_wait(&mut self, epfd: Fd) -> Result<Vec<EpollEvent>, Errno> {
        let mut out = Vec::new();
        self.ff_epoll_wait_into(epfd, &mut out)?;
        Ok(out)
    }

    /// [`FStack::ff_epoll_wait`] into a caller-reused event vector
    /// (cleared first) — the allocation-free poll the iperf apps run every
    /// main-loop turn.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] for an unknown epoll fd.
    pub fn ff_epoll_wait_into(&mut self, epfd: Fd, out: &mut Vec<EpollEvent>) -> Result<(), Errno> {
        let sockets = &self.sockets;
        let mut evaluated = 0;
        let probe = |fd| {
            evaluated += 1;
            Self::socket_readiness(sockets, fd)
        };
        self.epoll.wait_into(epfd, probe, out)?;
        self.stats.epoll_waits += 1;
        self.stats.epoll_fds_evaluated += evaluated;
        Ok(())
    }

    /// Level-triggered readiness of `fd`.
    pub fn readiness(&self, fd: Fd) -> EpollFlags {
        Self::socket_readiness(&self.sockets, fd)
    }

    /// [`FStack::readiness`] over the socket table alone, so a wait can
    /// borrow it next to the (mutable) epoll table.
    fn socket_readiness(sockets: &FdTable<Socket>, fd: Fd) -> EpollFlags {
        let Some(sock) = sockets.get(fd) else {
            return EpollFlags::ERR;
        };
        match sock {
            Socket::TcpListen { ready, .. } => {
                // O(1) at any queue depth: established connections were
                // moved here by the handshake-completing ACK, so a
                // listener with thousands of queued fds costs no scan.
                if ready.is_empty() {
                    EpollFlags::NONE
                } else {
                    EpollFlags::IN
                }
            }
            Socket::TcpConn(tcb) => {
                let mut f = EpollFlags::NONE;
                if tcb.readable_bytes() > 0 || tcb.at_eof() {
                    f = f | EpollFlags::IN;
                }
                if tcb.writable() {
                    f = f | EpollFlags::OUT;
                }
                if tcb.was_refused() || tcb.was_reset() || tcb.was_timed_out() {
                    // Refused/reset/timed-out connections report EPOLLERR
                    // so event loops pick the errno up via the next
                    // ff_read/ff_write.
                    f = f | EpollFlags::ERR;
                }
                if matches!(tcb.state(), TcpState::Closed | TcpState::TimeWait) {
                    // TIME_WAIT is a protocol formality; the application's
                    // connection is over (both FINs exchanged).
                    f = f | EpollFlags::HUP;
                }
                f
            }
            Socket::Udp {
                rx, pending_err, ..
            } => {
                let mut f = EpollFlags::OUT;
                if !rx.is_empty() {
                    f = f | EpollFlags::IN;
                }
                if pending_err.is_some() {
                    f = f | EpollFlags::ERR;
                }
                f
            }
            _ => EpollFlags::NONE,
        }
    }

    /// The earliest armed timer deadline across every connection: the
    /// minimum of each TCB's [`Tcb::next_timer_deadline`]. A quiescence-
    /// aware main loop parks when an iteration does no work, waking at the
    /// first poll tick at or after this instant (or earlier, on frame
    /// delivery to its port) — with the invariant that a stack whose
    /// [`FStack::poll_tx`] just returned nothing produces no output before
    /// this deadline unless a frame arrives first.
    pub fn next_timer_deadline(&mut self) -> Option<SimTime> {
        // The armed-deadline heap replaces the historical all-sockets scan:
        // every armed TCB deadline has a heap entry, stale entries (the
        // socket's deadline has since moved) are dropped on peek, so the
        // first valid entry is the minimum — O(log n) amortized instead of
        // O(sockets) per park decision.
        while let Some(&std::cmp::Reverse((d, fd))) = self.timer_q.peek() {
            if self.armed[fd as usize] == Some(d) {
                return Some(d);
            }
            self.timer_q.pop();
        }
        None
    }

    // ------------------------------------------------------------------
    // driver surface
    // ------------------------------------------------------------------

    /// Queues a raw, caller-crafted Ethernet frame for transmission,
    /// bypassing every protocol layer: the bytes go out exactly as given
    /// (padded to the Ethernet minimum), through the same
    /// [`FStack::poll_tx`] → port → switch path every legitimate frame
    /// takes. This is the wire-level adversary's injection point — a
    /// compromised application compartment can make its NIC say anything,
    /// and the *receiving* stacks must reject-and-count it.
    ///
    /// Returns `false` (and queues nothing) when `bytes` exceeds the
    /// maximum frame size; oversized fuzz input is data, not a panic.
    pub fn inject_raw_tx(&mut self, bytes: &[u8]) -> bool {
        if bytes.len() > updk::wire::MAX_FRAME {
            return false;
        }
        let mut fb = FrameBufMut::with_headroom(0);
        fb.append(bytes);
        fb.pad_to(MIN_FRAME);
        self.pending_tx.push_back(fb.freeze());
        true
    }

    /// Feeds one received Ethernet frame into the stack, parsing by
    /// **slicing the shared buffer**: TCP/UDP payloads delivered to
    /// sockets (and parked by out-of-order reassembly) alias `frame`'s
    /// storage instead of copying it.
    pub fn input_buf(&mut self, now: SimTime, frame: &FrameBuf) {
        self.stats.frames_in += 1;
        let Some((eth, _)) = EthHdr::parse(frame.as_slice()) else {
            self.stats.drops += 1;
            self.stats.parse_drop_eth += 1;
            return;
        };
        if eth.dst != self.cfg.mac && !eth.dst.is_broadcast() {
            self.stats.drops += 1;
            return;
        }
        match eth.ethertype {
            EtherType::Arp => self.input_arp(&frame.as_slice()[ETH_HDR_LEN..]),
            EtherType::Ipv4 => self.input_ipv4(now, eth.src, &frame.slice_from(ETH_HDR_LEN)),
            EtherType::Other(_) => self.stats.drops += 1,
        }
    }

    fn input_arp(&mut self, payload: &[u8]) {
        let Some(pkt) = ArpPacket::parse(payload) else {
            self.stats.drops += 1;
            self.stats.parse_drop_arp += 1;
            return;
        };
        self.arp.learn(pkt.spa, pkt.sha);
        if pkt.op == ArpOp::Request && pkt.tpa == self.cfg.ip {
            let reply = pkt.reply_to(self.cfg.mac);
            let frame = self.l2_frame(pkt.sha, EtherType::Arp, &reply.build());
            self.pending_tx.push_back(frame);
        }
        self.flush_arp_wait();
    }

    fn input_ipv4(&mut self, now: SimTime, src_mac: MacAddr, l3: &FrameBuf) {
        let payload = l3.as_slice();
        let Some((ip, l4_range)) = Ipv4Hdr::parse_range(payload) else {
            self.stats.drops += 1;
            self.stats.parse_drop_ip += 1;
            return;
        };
        if ip.dst != self.cfg.ip {
            self.stats.drops += 1;
            return;
        }
        // Opportunistically learn the sender (saves an ARP round trip on
        // the reverse path; harmless because the checksum binds addresses).
        self.arp.learn(ip.src, src_mac);
        match ip.proto {
            IpProto::Icmp => {
                let l4 = &payload[l4_range];
                if let Some(unreach) = crate::icmp::IcmpUnreachable::parse(l4) {
                    // The quoted datagram's *source* port identifies our
                    // socket; deliver the asynchronous error to it.
                    if let Some((sport, _)) = unreach.quoted_udp_ports() {
                        if let Some(&fd) = self.udp_map.get(&sport) {
                            if let Some(Socket::Udp { pending_err, .. }) = self.sockets.get_mut(fd)
                            {
                                *pending_err = Some(Errno::ECONNREFUSED);
                                self.mark_dirty(fd);
                            }
                        }
                    }
                } else if let Some(echo) = IcmpEcho::parse(l4) {
                    if echo.kind == IcmpType::EchoRequest {
                        self.stats.pings_answered += 1;
                        let mut fb = FrameBufMut::with_headroom(ETH_HDR_LEN + IPV4_HDR_LEN);
                        fb.append(&echo.reply().build());
                        self.ip_wrap(ip.src, IpProto::Icmp, &mut fb);
                        self.enqueue_ip(ip.src, fb);
                    }
                }
            }
            IpProto::Tcp => {
                let l4 = l3.slice(l4_range.start, l4_range.len());
                let Some(seg) = TcpSegment::parse_buf(ip.src, ip.dst, &l4) else {
                    self.stats.drops += 1;
                    self.stats.parse_drop_tcp += 1;
                    return;
                };
                self.stats.tcp_in += 1;
                self.input_tcp(now, ip.src, seg);
            }
            IpProto::Udp => {
                let l4 = l3.slice(l4_range.start, l4_range.len());
                let Some(d) = UdpDatagram::parse_buf(ip.src, ip.dst, &l4) else {
                    self.stats.drops += 1;
                    self.stats.parse_drop_udp += 1;
                    return;
                };
                self.stats.udp_in += 1;
                if let Some(&fd) = self.udp_map.get(&d.dst_port) {
                    if let Some(Socket::Udp { rx, .. }) = self.sockets.get_mut(fd) {
                        rx.push_back(DgramEntry {
                            from: (ip.src, d.src_port),
                            data: d.payload,
                        });
                        self.mark_dirty(fd);
                    }
                } else {
                    // Datagram to a closed port: answer with ICMP port
                    // unreachable (RFC 1122 §4.1.3.1), the datagram twin
                    // of TCP's RST, so the sender fails fast.
                    let unreach = crate::icmp::IcmpUnreachable::port_unreachable(payload);
                    let mut fb = FrameBufMut::with_headroom(ETH_HDR_LEN + IPV4_HDR_LEN);
                    fb.append(&unreach.build());
                    self.ip_wrap(ip.src, IpProto::Icmp, &mut fb);
                    self.enqueue_ip(ip.src, fb);
                    self.stats.unreach_out += 1;
                }
            }
            IpProto::Other(_) => self.stats.drops += 1,
        }
    }

    fn input_tcp(&mut self, now: SimTime, src: Ipv4Addr, seg: TcpSegment) {
        let key = (seg.dst_port, src, seg.src_port);
        if let Some(&fd) = self.conn_map.get(&key) {
            if let Some(tcb) = self.sockets.get_mut(fd).and_then(Socket::tcb_mut) {
                let was_established = tcb.is_established();
                let pre = tcb.stats();
                tcb.on_segment(now, &seg);
                let post = tcb.stats();
                let established_now = tcb.is_established();
                // Surface per-connection forgery drops (RFC 5961) as
                // stack-level counters, parse_drops-style: adversarial
                // input is rejected *and visible*.
                self.stats.rst_forgery_drops += post.rst_drops - pre.rst_drops;
                self.stats.syn_forgery_drops += post.syn_drops - pre.syn_drops;
                self.mark_dirty(fd);
                self.mark_hot(fd);
                if !was_established && established_now {
                    // The handshake just completed: if this was a passive
                    // open, promote the fd from the owning listener's
                    // incomplete backlog to its established ready queue
                    // (establishment order) and wake the listener.
                    if let Some(&lfd) = self.listen_map.get(&seg.dst_port) {
                        if let Some(Socket::TcpListen { backlog, ready, .. }) =
                            self.sockets.get_mut(lfd)
                        {
                            if let Some(pos) = backlog.iter().position(|&b| b == fd) {
                                backlog.remove(pos);
                                ready.push_back(fd);
                            }
                        }
                        self.mark_dirty(lfd);
                    }
                }
            }
            return;
        }
        // New connection? Only SYNs to listeners.
        if seg.flags.syn && !seg.flags.ack {
            if !self.listen_map.contains_key(&seg.dst_port) {
                // SYN to a closed port: refuse it (RFC 793), so the peer's
                // active open fails fast with ECONNREFUSED instead of
                // retransmitting into the void.
                self.send_rst(src, &seg);
                return;
            }
            if let Some(&lfd) = self.listen_map.get(&seg.dst_port) {
                // Queue occupancy (incomplete + established, the combined
                // somaxconn accounting) is checked *before* allocating a
                // TCB: a full listener drops the SYN without consuming a
                // socket-table slot it would immediately give back.
                let full = {
                    let Some(Socket::TcpListen {
                        backlog,
                        ready,
                        max_backlog,
                        ..
                    }) = self.sockets.get(lfd)
                    else {
                        return;
                    };
                    backlog.len() + ready.len() >= *max_backlog
                };
                if full {
                    self.stats.listen_drops += 1;
                    return;
                }
                let isn = self.next_isn();
                let local = (self.cfg.ip, seg.dst_port);
                let mut tcb = Tcb::accept_from(local, (src, seg.src_port), &seg, isn, MSS);
                tcb.set_cc(self.cfg.cc);
                tcb.set_sack(self.cfg.sack);
                let Ok(cfd) = self.sockets.alloc(Socket::TcpConn(Box::new(tcb))) else {
                    // Socket table exhausted: same fate as a full backlog
                    // — the SYN vanishes (accounted) and the client's
                    // retransmission retries.
                    self.stats.listen_drops += 1;
                    return;
                };
                if let Some(Socket::TcpListen { backlog, .. }) = self.sockets.get_mut(lfd) {
                    backlog.push_back(cfd);
                }
                self.conn_map.insert(key, cfd);
                self.mark_hot(cfd); // owes the SYN-ACK
                self.mark_dirty(lfd);
            }
            return;
        }
        // Anything else addressed at no connection: reset the sender
        // (RFC 793 §3.4), unless it is itself an RST (never answer RST
        // with RST — that would loop).
        if !seg.flags.rst {
            self.send_rst(src, &seg);
        }
    }

    /// Emits the RFC 793 reset for an unacceptable `seg` from `src`: if the
    /// offender carried an ACK, the reset claims that sequence number;
    /// otherwise it sits at zero and acknowledges everything the offender
    /// occupied.
    fn send_rst(&mut self, src: Ipv4Addr, seg: &TcpSegment) {
        let (rst_seq, rst_ack, with_ack) = if seg.flags.ack {
            (seg.ack, 0, false)
        } else {
            (0, seg.seq.wrapping_add(seg.seq_len()), true)
        };
        let rst = TcpSegment {
            src_port: seg.dst_port,
            dst_port: seg.src_port,
            seq: rst_seq,
            ack: rst_ack,
            flags: crate::tcp::TcpFlags {
                rst: true,
                ack: with_ack,
                ..crate::tcp::TcpFlags::default()
            },
            window: 0,
            options: crate::tcp::TcpOptions::default(),
            payload: FrameBuf::new(),
        };
        let mut fb = FrameBufMut::with_headroom(TX_HEADROOM);
        rst.build_into(self.cfg.ip, src, SegPayload::Inline, &mut fb);
        self.ip_wrap(src, IpProto::Tcp, &mut fb);
        self.enqueue_ip(src, fb);
        self.stats.rsts_out += 1;
    }

    /// Collects every frame the stack wants to transmit at `now` (TCP
    /// output, parked ARP traffic, ICMP replies), and reaps dead TCBs.
    ///
    /// Zero-copy: each TCP segment's payload is copied **once**, from the
    /// socket send buffer straight into a pooled frame buffer with
    /// protocol headroom reserved, then the TCP, IPv4 and Ethernet headers
    /// are prepended in place. The returned [`FrameBuf`]s are shared
    /// views; the driver wraps them into wire frames without copying.
    pub fn poll_tx(&mut self, now: SimTime) -> Vec<FrameBuf> {
        let mut frames = Vec::new();
        self.poll_tx_into(now, &mut frames);
        frames
    }

    /// [`FStack::poll_tx`], appending the frames to `frames`: with a
    /// vector the caller keeps, a steady-state poll allocates nothing.
    pub fn poll_tx_into(&mut self, now: SimTime, frames: &mut Vec<FrameBuf>) {
        // Promote due armed timers into the hot set (stale entries — the
        // socket's armed deadline moved since the push — are skipped).
        while let Some(&std::cmp::Reverse((d, fd))) = self.timer_q.peek() {
            if d > now {
                break;
            }
            self.timer_q.pop();
            if self.armed[fd as usize] == Some(d) {
                self.armed[fd as usize] = None; // consumed; re-armed below
                self.mark_hot(fd);
            }
        }
        // Only sockets with input, app tx-side calls or due timers since
        // the last poll can owe the wire anything (the same invariant that
        // lets the driver park: no input, no call, no due timer ⇒ no
        // output before the next deadline). Visiting them in fd order
        // reproduces the historical full-table scan's emission order.
        if self.tx_hot.list.is_empty() && self.pending_tx.is_empty() {
            return;
        }
        let first = frames.len();
        let mut hot = std::mem::take(&mut self.tx_scratch.hot);
        let mut to_send = std::mem::take(&mut self.tx_scratch.to_send);
        self.tx_hot.drain_into(&mut hot);
        hot.sort_unstable();
        type ConnKey = (u16, Ipv4Addr, u16);
        let mut reap: Vec<(Fd, Option<ConnKey>)> = Vec::new();
        let mut embryonic: Vec<(Fd, ConnKey)> = Vec::new();
        let mut giveups = 0u64;
        let mut ident = self.ident;
        let src_ip = self.cfg.ip;
        for &fd in &hot {
            let Some(sock) = self.sockets.get_mut(fd) else {
                continue;
            };
            match sock {
                Socket::TcpConn(tcb) => {
                    let (local, remote) = tcb.endpoints();
                    let pre_giveups = tcb.stats().rtx_giveups;
                    tcb.poll_output_into(now, &mut |seg, payload| {
                        let mut fb = FrameBufMut::with_headroom(TX_HEADROOM);
                        seg.build_into(local.0, remote.0, payload, &mut fb);
                        Ipv4Hdr::prepend_to(local.0, remote.0, IpProto::Tcp, ident, &mut fb);
                        ident = ident.wrapping_add(1);
                        to_send.push((remote.0, fb));
                    });
                    giveups += tcb.stats().rtx_giveups - pre_giveups;
                    // Orderly-closed TCBs are reaped; error'd ones
                    // (refused/reset/timed-out) stay valid until the
                    // application observes the errno and ff_close()s, per
                    // POSIX. Two exceptions have no owner left to observe
                    // anything: a TCB whose close the app already
                    // requested (e.g. FIN_WAIT_1 retransmission give-up
                    // after ff_close — the fd was given back), and one
                    // that was never accepted at all (the embryonic sweep
                    // below).
                    if tcb.state() == TcpState::Closed {
                        let errored = tcb.was_refused() || tcb.was_reset() || tcb.was_timed_out();
                        if !errored || tcb.app_closed() {
                            reap.push((fd, Some((local.1, remote.0, remote.1))));
                        } else {
                            embryonic.push((fd, (local.1, remote.0, remote.1)));
                        }
                    }
                }
                Socket::Udp { local, tx, .. } => {
                    let Some((_, sport)) = *local else { continue };
                    while let Some(d) = tx.pop_front() {
                        let dg = UdpDatagram {
                            src_port: sport,
                            dst_port: d.from.1,
                            payload: d.data,
                        };
                        let mut fb = FrameBufMut::with_headroom(TX_HEADROOM);
                        dg.build_into(src_ip, d.from.0, &mut fb);
                        Ipv4Hdr::prepend_to(src_ip, d.from.0, IpProto::Udp, ident, &mut fb);
                        ident = ident.wrapping_add(1);
                        to_send.push((d.from.0, fb));
                    }
                }
                _ => {}
            }
        }
        self.ident = ident;
        for (dst, pkt) in to_send.drain(..) {
            if let Some(frame) = self.wrap_or_park(dst, pkt) {
                frames.push(frame);
            }
        }
        self.tx_scratch.to_send = to_send;
        self.stats.conn_timeouts += giveups;
        for (fd, key) in reap {
            if let Some(k) = key {
                self.conn_map.remove(&k);
            }
            // Reaping changes the fd's readiness (to error) — the owning
            // app observes the close on its next dirty-driven step.
            self.mark_dirty(fd);
            self.sockets.free(fd).ok();
        }
        // Embryonic sweep: a server-side TCB killed (exact-match RST or
        // rtx give-up) *before* the application accepted it has no owner
        // to observe the errno — if it is still parked in its listener's
        // backlog, unhook and free it so forged RSTs and dead dialers
        // cannot clog the accept queue with zombies.
        for (fd, key) in embryonic {
            let Some(&lfd) = self.listen_map.get(&key.0) else {
                continue;
            };
            let Some(Socket::TcpListen { backlog, .. }) = self.sockets.get_mut(lfd) else {
                continue;
            };
            if let Some(pos) = backlog.iter().position(|&b| b == fd) {
                backlog.remove(pos);
                self.conn_map.remove(&key);
                self.mark_dirty(lfd);
                self.sockets.free(fd).ok();
            }
        }
        // Re-arm the visited sockets' timer entries from their TCBs'
        // current earliest deadlines (reaped fds resolve to no deadline).
        // Their output pass may also have moved the TCB (TIME_WAIT expiry,
        // retransmission give-up) after an epoll wait last looked at it.
        for &fd in &hot {
            self.arm_timer(fd);
            self.epoll.touch(fd);
        }
        hot.clear();
        self.tx_scratch.hot = hot;
        // Drain link-layer traffic last so ARP requests generated while
        // wrapping this iteration's packets leave in the same iteration.
        frames.extend(self.pending_tx.drain(..));
        let sent = frames.len() - first;
        self.stats.frames_out = self.stats.frames_out.wrapping_add(sent as u64);
    }

    // ------------------------------------------------------------------
    // helpers
    // ------------------------------------------------------------------

    /// Prepends an IPv4 header (with a fresh ident) onto the L4 bytes
    /// already in `fb`.
    fn ip_wrap(&mut self, dst: Ipv4Addr, proto: IpProto, fb: &mut FrameBufMut) {
        Ipv4Hdr::prepend_to(self.cfg.ip, dst, proto, self.ident, fb);
        self.ident = self.ident.wrapping_add(1);
    }

    /// Prepends `hdr` and the minimum-frame padding, freezing `pkt` into a
    /// sharable wire frame.
    fn finish_l2(mut pkt: FrameBufMut, hdr: EthHdr) -> FrameBuf {
        hdr.prepend_to(&mut pkt);
        pkt.pad_to(MIN_FRAME);
        pkt.freeze()
    }

    /// Builds a control frame (ARP request/reply) around `payload`.
    fn l2_frame(&self, dst: MacAddr, ethertype: EtherType, payload: &[u8]) -> FrameBuf {
        let mut fb = FrameBufMut::with_headroom(ETH_HDR_LEN);
        fb.append(payload);
        Self::finish_l2(
            fb,
            EthHdr {
                dst,
                src: self.cfg.mac,
                ethertype,
            },
        )
    }

    fn enqueue_ip(&mut self, dst: Ipv4Addr, pkt: FrameBufMut) {
        if let Some(frame) = self.wrap_or_park(dst, pkt) {
            self.pending_tx.push_back(frame);
        }
    }

    /// Wraps `pkt` in an Ethernet header if the next hop resolves; otherwise
    /// parks it (Ethernet headroom still free) and emits an ARP request.
    fn wrap_or_park(&mut self, dst: Ipv4Addr, pkt: FrameBufMut) -> Option<FrameBuf> {
        match self.arp.lookup(dst) {
            Some(mac) => Some(Self::finish_l2(
                pkt,
                EthHdr {
                    dst: mac,
                    src: self.cfg.mac,
                    ethertype: EtherType::Ipv4,
                },
            )),
            None => {
                let req = ArpPacket::request(self.cfg.mac, self.cfg.ip, dst);
                let frame = self.l2_frame(MacAddr::BROADCAST, EtherType::Arp, &req.build());
                self.arp.note_request();
                self.pending_tx.push_back(frame);
                self.arp_wait.push((dst, pkt));
                None
            }
        }
    }

    fn flush_arp_wait(&mut self) {
        let parked = std::mem::take(&mut self.arp_wait);
        for (dst, pkt) in parked {
            match self.arp.lookup(dst) {
                Some(mac) => {
                    let frame = Self::finish_l2(
                        pkt,
                        EthHdr {
                            dst: mac,
                            src: self.cfg.mac,
                            ethertype: EtherType::Ipv4,
                        },
                    );
                    self.pending_tx.push_back(frame);
                }
                None => self.arp_wait.push((dst, pkt)),
            }
        }
    }

    fn next_isn(&mut self) -> u32 {
        self.isn = self.isn.wrapping_add(64_000);
        self.isn
    }

    fn alloc_ephemeral(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = if p >= 60_000 { 40_000 } else { p + 1 };
        p
    }

    /// An ephemeral port whose `(port, remote)` 4-tuple is unused — ports
    /// held by live connections (including TIME_WAIT draining its 2MSL)
    /// are skipped, never recycled onto the same remote. The loop visits
    /// each of the 20 001 ports in the range exactly once (the cursor
    /// wraps at 60 000), so full exhaustion terminates with a clean
    /// `EADDRNOTAVAIL` rather than spinning.
    fn alloc_ephemeral_for(&mut self, remote: (Ipv4Addr, u16)) -> Result<u16, Errno> {
        for _ in 0..=(60_000 - 40_000) {
            let p = self.alloc_ephemeral();
            if !self.conn_map.contains_key(&(p, remote.0, remote.1)) {
                return Ok(p);
            }
        }
        Err(Errno::EADDRNOTAVAIL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkern::time::SimDuration;

    fn stack() -> FStack {
        FStack::new(StackConfig::new(
            "t",
            MacAddr::local(1),
            Ipv4Addr::new(10, 0, 0, 1),
        ))
    }

    /// Each of the three things a quiet stack owes nothing of: an fd a
    /// call left for the next `poll_tx` (the SYN of `ff_connect`), a queued
    /// link-layer frame, an fd whose change the driver has not drained
    /// (the SYN-ACK arriving).
    #[test]
    fn a_stack_is_quiet_once_poll_tx_and_the_driver_took_what_it_owed() {
        let peer = Ipv4Addr::new(10, 0, 0, 2);
        let mut s = stack();
        s.arp.insert_static(peer, MacAddr::local(2));
        assert!(s.is_quiet(), "a fresh stack");
        let fd = s.ff_socket(SockType::Stream).unwrap();
        s.ff_connect(fd, (peer, 80), SimTime::ZERO).unwrap();
        assert!(!s.is_quiet(), "the SYN is owed");
        let syn = s.poll_tx(SimTime::ZERO);
        assert_eq!(syn.len(), 1);
        assert!(s.is_quiet(), "the SYN left");

        assert!(s.inject_raw_tx(&[0; 60]));
        assert!(!s.is_quiet(), "a frame is queued");
        assert_eq!(s.poll_tx(SimTime::ZERO).len(), 1);
        assert!(s.is_quiet());

        // The peer answers: SYN-ACK to our SYN.
        let mut peer_stack = FStack::new(StackConfig::new("p", MacAddr::local(2), peer));
        peer_stack
            .arp
            .insert_static(Ipv4Addr::new(10, 0, 0, 1), MacAddr::local(1));
        let lfd = peer_stack.ff_socket(SockType::Stream).unwrap();
        peer_stack.ff_bind(lfd, 80).unwrap();
        peer_stack.ff_listen(lfd, 4).unwrap();
        peer_stack.input_buf(SimTime::ZERO, &syn[0]);
        for f in peer_stack.poll_tx(SimTime::ZERO) {
            s.input_buf(SimTime::ZERO, &f);
        }
        assert!(!s.is_quiet(), "the connection changed");
        let mut drained = Vec::new();
        s.take_dirty_fds(&mut drained);
        assert_eq!(drained, [fd]);
        s.poll_tx(SimTime::ZERO);
        assert!(s.is_quiet(), "the ACK left, the change was taken");
    }

    /// The ownership contract a driver routes dirty fds by: `ff_socket` and
    /// `ff_accept` stamp the fd they return with the current caller; a
    /// connection waiting in a backlog is not yet anyone's, so its number
    /// still reports whoever held it last; the stamp survives `ff_close`
    /// and the reaper's final dirty mark, and changes only when the number
    /// is handed out again; a stack never told a caller owns nothing.
    #[test]
    fn fds_belong_to_the_caller_that_obtained_them() {
        let (srv_ip, cli_ip) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let mut srv = stack();
        let mut cli = FStack::new(StackConfig::new("c", MacAddr::local(2), cli_ip));
        srv.arp.insert_static(cli_ip, MacAddr::local(2));
        cli.arp.insert_static(srv_ip, MacAddr::local(1));
        let mut now = SimTime::from_millis(1);
        fn pump(srv: &mut FStack, cli: &mut FStack, now: &mut SimTime) {
            for _ in 0..12 {
                *now += SimDuration::from_micros(50);
                for f in cli.poll_tx(*now) {
                    srv.input_buf(*now, &f);
                }
                for f in srv.poll_tx(*now) {
                    cli.input_buf(*now, &f);
                }
            }
        }

        srv.set_caller(7);
        let lfd = srv.ff_socket(SockType::Stream).unwrap();
        srv.ff_bind(lfd, 80).unwrap();
        srv.ff_listen(lfd, 4).unwrap();
        assert_eq!(srv.owner_of(lfd), Some(7));
        // Caller 3 opens and closes a socket: the number is free again and
        // still carries its stamp.
        srv.set_caller(3);
        let spare = srv.ff_socket(SockType::Stream).unwrap();
        srv.ff_close(spare).unwrap();
        assert_eq!(srv.owner_of(spare), Some(3));

        // A client connects; the child takes the freed number at SYN time
        // and sits in the listener's queue under the stale stamp.
        let c = cli.ff_socket(SockType::Stream).unwrap();
        cli.ff_connect(c, (srv_ip, 80), now).unwrap();
        pump(&mut srv, &mut cli, &mut now);
        assert_eq!(srv.listen_queue_depths(lfd), Some((0, 1)));
        assert_eq!(srv.owner_of(spare), Some(3), "queued: not yet handed out");
        srv.set_caller(9);
        assert_eq!(
            srv.owner_of(spare),
            Some(3),
            "naming a caller stamps nothing"
        );
        let child = srv.ff_accept(lfd).unwrap();
        assert_eq!(child, spare);
        assert_eq!(srv.owner_of(child), Some(9));
        assert_eq!(
            srv.owner_of(lfd),
            Some(7),
            "the listener stays its opener's"
        );

        // Both ends close, under another caller on the server side; the
        // reaper's last dirty mark on the fd still names caller 9.
        let mut drained = Vec::new();
        srv.take_dirty_fds(&mut drained);
        srv.set_caller(5);
        srv.ff_close(child).unwrap();
        cli.ff_close(c).unwrap();
        let floor = srv.socket_count() - 1;
        pump(&mut srv, &mut cli, &mut now);
        srv.poll_tx(now + SimDuration::from_secs(1)); // past 2MSL: a lingering end is reaped
        assert_eq!(srv.socket_count(), floor, "the child was reaped");
        drained.clear();
        srv.take_dirty_fds(&mut drained);
        assert!(drained.contains(&child), "the reaper marked the fd dirty");
        assert_eq!(srv.owner_of(child), Some(9));

        // Handed out again, the number is the new caller's.
        assert_eq!(srv.ff_socket(SockType::Stream), Ok(child));
        assert_eq!(srv.owner_of(child), Some(5));

        // The client stack was never told a caller.
        let d = cli.ff_socket(SockType::Stream).unwrap();
        assert_eq!((cli.owner_of(c), cli.owner_of(d)), (None, None));
        assert_eq!(cli.owner_of(1_000_000), None);
    }

    /// The `alloc_ephemeral_for` wraparound proof: with the whole
    /// 40 000..=60 000 range quarantined against one remote (the state a
    /// TIME_WAIT storm leaves behind), allocation must terminate after
    /// one full cycle with `EADDRNOTAVAIL` — no spin, and never a
    /// quarantined port.
    #[test]
    fn ephemeral_exhaustion_fails_clean_and_skips_quarantine() {
        let mut s = stack();
        let remote = (Ipv4Addr::new(10, 0, 0, 2), 80);
        for p in 40_000..=60_000u16 {
            s.conn_map.insert((p, remote.0, remote.1), 0);
        }
        assert_eq!(s.alloc_ephemeral_for(remote), Err(Errno::EADDRNOTAVAIL));
        // The quarantine is per-remote: a different peer still allocates.
        let other = (Ipv4Addr::new(10, 0, 0, 3), 80);
        assert!(s.alloc_ephemeral_for(other).is_ok());
        // Releasing a single mid-range tuple (its 2MSL expired) makes the
        // allocator find exactly that port on the next cycle…
        s.conn_map.remove(&(50_123, remote.0, remote.1));
        assert_eq!(s.alloc_ephemeral_for(remote), Ok(50_123));
        // …and re-quarantining it restores the clean failure, proving the
        // cursor wrapped through the whole range without reusing any
        // occupied tuple.
        s.conn_map.insert((50_123, remote.0, remote.1), 0);
        assert_eq!(s.alloc_ephemeral_for(remote), Err(Errno::EADDRNOTAVAIL));
    }

    /// Linux semantics: closing a socket drops it from every epoll set, so
    /// a registration never reports a freed slot (`ERR` forever) nor —
    /// once the fd number is reused — somebody else's socket.
    #[test]
    fn close_deregisters_the_fd_from_every_epoll_set() {
        let mut s = stack();
        let (ep1, ep2) = (s.ff_epoll_create(), s.ff_epoll_create());
        let fd = s.ff_socket(SockType::Dgram).unwrap();
        for ep in [ep1, ep2] {
            s.ff_epoll_ctl_add(ep, fd, EpollFlags::IN | EpollFlags::OUT)
                .unwrap();
            assert_eq!(s.ff_epoll_wait(ep).unwrap().len(), 1, "UDP is writable");
        }
        s.ff_close(fd).unwrap();
        assert_eq!(
            s.ff_epoll_wait(ep1),
            Ok(vec![]),
            "no ERR for the freed slot"
        );
        // A DEL after the close finds nothing left to do.
        assert_eq!(s.ff_epoll_ctl_del(ep1, fd), Err(Errno::ENOENT));
        let reused = s.ff_socket(SockType::Dgram).unwrap();
        assert_eq!(reused, fd, "the table hands the number out again");
        for ep in [ep1, ep2] {
            assert_eq!(s.ff_epoll_wait(ep), Ok(vec![]), "not the new socket's");
        }
        // Registering a closed (or never-opened) fd is EBADF.
        s.ff_close(reused).unwrap();
        assert_eq!(
            s.ff_epoll_ctl_add(ep1, reused, EpollFlags::IN),
            Err(Errno::EBADF)
        );
    }

    /// The cursor hook (`set_ephemeral_start`) pins where the cycle
    /// begins; the allocator walks forward from there, skipping occupied
    /// tuples and wrapping 60 000 → 40 000.
    #[test]
    fn ephemeral_cursor_wraps_and_skips() {
        let mut s = stack();
        let remote = (Ipv4Addr::new(10, 0, 0, 2), 80);
        s.set_ephemeral_start(59_999);
        s.conn_map.insert((59_999, remote.0, remote.1), 0);
        s.conn_map.insert((60_000, remote.0, remote.1), 0);
        // 59_999 and 60_000 are taken: the next free port is past the wrap.
        assert_eq!(s.alloc_ephemeral_for(remote), Ok(40_000));
    }
}
