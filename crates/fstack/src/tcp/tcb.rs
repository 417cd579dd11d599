//! The TCP connection state machine (TCB = transmission control block).
//!
//! Poll-mode friendly: [`Tcb::on_segment`] only updates state;
//! [`Tcb::poll_output`] — called every F-Stack main-loop iteration — emits
//! whatever the connection owes the wire (SYN/SYN-ACK, data within
//! `min(cwnd, peer window)`, retransmissions, delayed ACKs, FIN). This
//! matches how F-Stack drives the FreeBSD stack from the DPDK loop.

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::tcp::cc::{CcAlgo, CongestionControl};
use crate::tcp::seq::{seq_ge, seq_gt, seq_le, seq_lt};
use crate::tcp::{SackBlocks, SegPayload, TcpFlags, TcpOptions, TcpSegment, MAX_SACK_BLOCKS};
use simkern::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use updk::framebuf::FrameBuf;

/// Connection states (RFC 793).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// Passive open.
    Listen,
    /// Active open: SYN sent.
    SynSent,
    /// Passive open: SYN received, SYN-ACK (to be) sent.
    SynReceived,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acked.
    FinWait1,
    /// Our FIN acked; awaiting peer's FIN.
    FinWait2,
    /// Peer closed first; we still may send.
    CloseWait,
    /// Simultaneous close.
    Closing,
    /// Peer closed, we sent our FIN, awaiting its ACK.
    LastAck,
    /// Both closed; draining the network.
    TimeWait,
    /// Dead.
    Closed,
}

/// Per-connection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcbStats {
    /// Segments received.
    pub segs_in: u64,
    /// Segments emitted.
    pub segs_out: u64,
    /// Payload bytes received in order.
    pub bytes_in: u64,
    /// Payload bytes transmitted (first transmissions).
    pub bytes_out: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Duplicate ACKs received.
    pub dupacks: u64,
    /// Zero-window persist probes sent (1-byte).
    pub persist_probes: u64,
    /// Retransmissions driven by the SACK scoreboard (subset of
    /// `retransmits`).
    pub sack_retransmits: u64,
    /// Retransmission give-ups: the R2 user timeout expired and the
    /// connection was declared dead (surfaces as `ETIMEDOUT`).
    pub rtx_giveups: u64,
    /// RST segments dropped by validation (wrong sequence number, or an
    /// RST in SYN_SENT that does not acknowledge our SYN) — blind-reset
    /// forgeries, RFC 5961 §3.
    pub rst_drops: u64,
    /// SYN segments dropped on a synchronized connection (blind-SYN
    /// forgeries or stale duplicates) — RFC 5961 §4.
    pub syn_drops: u64,
}

/// Socket buffer size (64 KiB: the no-window-scale maximum; ample for the
/// testbed's ≈50 µs RTTs).
pub const SOCK_BUF: usize = 64 * 1024;

/// Minimum retransmission timeout (scaled down from RFC 6298's 1 s to suit
/// the LAN testbed; still ≫ any real RTT in the simulation).
const MIN_RTO: u64 = 5_000_000; // 5 ms
/// Maximum RTO backoff.
const MAX_RTO: u64 = 500_000_000;
/// 2·MSL for TIME_WAIT (scaled down; the sim runs seconds, not minutes).
const TIME_WAIT: u64 = 50_000_000;
/// Delayed-ACK timer.
const DELACK: u64 = 500_000; // 500 µs
/// Orphan timeout for FIN_WAIT_2: how long we wait for the peer's FIN
/// after our own close was acknowledged, refreshed by any peer activity
/// (3 × 2MSL, mirroring Linux's `tcp_fin_timeout` vs MSL ratio).
const FIN_WAIT2_TIMEOUT: u64 = 3 * TIME_WAIT;
/// Consecutive timeout retransmissions before giving up on the peer
/// entirely (user-timeout semantics, R2 of RFC 1122 §4.2.3.5). With the
/// exponential backoff this is over a second of simulated silence.
const MAX_RTX_ATTEMPTS: u32 = 8;
/// Cap on the persist-timer exponential backoff shift.
const MAX_PERSIST_BACKOFF: u32 = 10;

/// One TCP connection.
#[derive(Debug, Clone)]
pub struct Tcb {
    state: TcpState,
    local: (Ipv4Addr, u16),
    remote: (Ipv4Addr, u16),
    mss: usize,

    // --- send side ---
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    snd_wnd: u32,
    send_buf: SendBuffer,
    cc: Box<dyn CongestionControl>,
    cc_algo: CcAlgo,
    fin_seq: Option<u32>,
    close_requested: bool,

    // --- receive side ---
    recv_buf: RecvBuffer,
    fin_rcvd: bool,

    // --- timers / RTT (all virtual ns) ---
    srtt: Option<u64>,
    rttvar: u64,
    rto: u64,
    rtx_deadline: Option<SimTime>,
    backoff: u32,
    /// Consecutive timeout retransmissions without forward progress.
    rtx_attempts: u32,
    /// Karn's algorithm: `snd_nxt` at the last retransmission. ACKs at or
    /// below this could acknowledge the retransmitted copy, so they yield
    /// no RTT sample and do not reset the RTO backoff.
    rtx_recover: Option<u32>,
    time_wait_deadline: Option<SimTime>,
    /// FIN_WAIT_2 orphan deadline (refreshed by peer activity).
    fw2_deadline: Option<SimTime>,

    // --- zero-window persist (RFC 1122 §4.2.2.17) ---
    persist_deadline: Option<SimTime>,
    persist_backoff: u32,
    /// A 1-byte probe occupies [snd_una, snd_nxt).
    probe_inflight: bool,

    // --- SACK (RFC 2018) ---
    /// We are willing to send/receive SACK options (config).
    sack_enabled: bool,
    /// The peer advertised SACK-permitted in its SYN.
    peer_sack: bool,
    /// Sender scoreboard: peer-reported received ranges above `snd_una`,
    /// disjoint and ascending.
    sack_scoreboard: Vec<(u32, u32)>,
    /// Next hole to retransmit while in SACK-driven recovery.
    recovery_rtx_next: Option<u32>,

    // --- ACK generation ---
    ack_now: bool,
    ack_pending: u32,
    ack_deadline: Option<SimTime>,
    dupacks: u32,
    fast_rtx: bool,

    // --- timestamps option ---
    ts_recent: u32,

    // --- RST bookkeeping ---
    /// Active open answered by RST (ECONNREFUSED).
    refused: bool,
    /// Established connection torn down by peer RST (ECONNRESET).
    reset_by_peer: bool,
    /// Retransmission give-up: peer declared dead (ETIMEDOUT).
    timed_out: bool,

    stats: TcbStats,
}

impl Tcb {
    /// Actively opens a connection (emits SYN on the next poll).
    pub fn connect(local: (Ipv4Addr, u16), remote: (Ipv4Addr, u16), iss: u32, mss: usize) -> Tcb {
        let mut t = Tcb::raw(TcpState::SynSent, local, remote, iss, mss);
        t.ack_now = false;
        t
    }

    /// Creates the connection TCB answering `syn` on a listener at `local`
    /// (state `SynReceived`; SYN-ACK emitted on the next poll).
    pub fn accept_from(
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        syn: &TcpSegment,
        iss: u32,
        mss: usize,
    ) -> Tcb {
        let mut t = Tcb::raw(TcpState::SynReceived, local, remote, iss, mss);
        if let Some(peer_mss) = syn.options.mss {
            t.mss = t.mss.min(usize::from(peer_mss));
        }
        t.peer_sack = syn.options.sack_permitted;
        if let Some((tsval, _)) = syn.options.ts {
            t.ts_recent = tsval;
        }
        t.recv_buf = RecvBuffer::new(syn.seq.wrapping_add(1), SOCK_BUF);
        t.snd_wnd = u32::from(syn.window);
        t
    }

    fn raw(
        state: TcpState,
        local: (Ipv4Addr, u16),
        remote: (Ipv4Addr, u16),
        iss: u32,
        mss: usize,
    ) -> Tcb {
        Tcb {
            state,
            local,
            remote,
            mss,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: u32::from(u16::MAX),
            send_buf: SendBuffer::new(iss.wrapping_add(1), SOCK_BUF),
            cc: CcAlgo::Reno.build(mss as u32),
            cc_algo: CcAlgo::Reno,
            fin_seq: None,
            close_requested: false,
            recv_buf: RecvBuffer::new(0, SOCK_BUF),
            fin_rcvd: false,
            srtt: None,
            rttvar: 0,
            rto: MIN_RTO,
            rtx_deadline: None,
            backoff: 0,
            rtx_attempts: 0,
            rtx_recover: None,
            time_wait_deadline: None,
            fw2_deadline: None,
            persist_deadline: None,
            persist_backoff: 0,
            probe_inflight: false,
            sack_enabled: false,
            peer_sack: false,
            sack_scoreboard: Vec::new(),
            recovery_rtx_next: None,
            ack_now: false,
            ack_pending: 0,
            ack_deadline: None,
            dupacks: 0,
            fast_rtx: false,
            ts_recent: 0,
            refused: false,
            reset_by_peer: false,
            timed_out: false,
            stats: TcbStats::default(),
        }
    }

    // ---- inspection ----

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// `(local, remote)` endpoints.
    pub fn endpoints(&self) -> ((Ipv4Addr, u16), (Ipv4Addr, u16)) {
        (self.local, self.remote)
    }

    /// Effective MSS.
    pub fn mss(&self) -> usize {
        self.mss
    }

    /// Counters.
    pub fn stats(&self) -> TcbStats {
        self.stats
    }

    /// The initial send sequence number this connection started from.
    pub fn initial_seq(&self) -> u32 {
        self.iss
    }

    /// Smoothed RTT, if measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_nanos)
    }

    /// `true` once the handshake completed (and until close).
    pub fn is_established(&self) -> bool {
        matches!(
            self.state,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2 | TcpState::CloseWait
        )
    }

    /// Bytes the application could read right now.
    pub fn readable_bytes(&self) -> usize {
        self.recv_buf.readable()
    }

    /// `true` if the peer closed and everything was read (EOF).
    pub fn at_eof(&self) -> bool {
        self.fin_rcvd && self.recv_buf.readable() == 0
    }

    /// Free space in the send buffer.
    pub fn send_space(&self) -> usize {
        self.send_buf.free()
    }

    /// `true` if the application may write.
    pub fn writable(&self) -> bool {
        self.is_established()
            && !self.close_requested
            && self.send_buf.free() > 0
            && !matches!(self.state, TcpState::FinWait1 | TcpState::FinWait2)
    }

    /// Unacknowledged bytes in flight.
    pub fn inflight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// The congestion controller (read-only, for diagnostics).
    pub fn congestion(&self) -> &dyn CongestionControl {
        self.cc.as_ref()
    }

    /// The congestion-control algorithm in use.
    pub fn cc_algo(&self) -> CcAlgo {
        self.cc_algo
    }

    /// Selects the congestion-control algorithm. Call before the first
    /// poll (the window state is rebuilt from scratch).
    pub fn set_cc(&mut self, algo: CcAlgo) {
        self.cc_algo = algo;
        self.cc = algo.build(self.mss as u32);
    }

    /// Enables/disables SACK (RFC 2018). Call before the first poll so the
    /// SYN advertises SACK-permitted; it takes effect only if the peer
    /// advertises it too.
    pub fn set_sack(&mut self, on: bool) {
        self.sack_enabled = on;
    }

    /// `true` when both sides negotiated SACK.
    pub fn sack_active(&self) -> bool {
        self.sack_enabled && self.peer_sack
    }

    /// The earliest armed timer deadline of this connection: the minimum
    /// over the retransmission timer, the zero-window persist timer, the
    /// delayed-ACK timer (when an ACK is owed), the FIN_WAIT_2 orphan
    /// timeout and the TIME_WAIT expiry. `None` when no timer is armed —
    /// the connection then owes the wire nothing until a segment arrives,
    /// which is what lets a quiescent main loop park instead of polling.
    pub fn next_timer_deadline(&self) -> Option<SimTime> {
        let mut min: Option<SimTime> = None;
        let mut fold = |d: Option<SimTime>| {
            if let Some(d) = d {
                min = Some(min.map_or(d, |m| m.min(d)));
            }
        };
        fold(self.rtx_deadline);
        fold(self.persist_deadline);
        if self.ack_pending > 0 {
            fold(self.ack_deadline);
        }
        if self.state == TcpState::FinWait2 {
            fold(self.fw2_deadline);
        }
        fold(self.time_wait_deadline);
        min
    }

    // ---- application surface ----

    /// Buffers application data for transmission; returns bytes accepted.
    pub fn write(&mut self, data: &[u8]) -> usize {
        if !self.writable() {
            return 0;
        }
        self.send_buf.push(data)
    }

    /// Reads up to `max` in-order bytes.
    pub fn read(&mut self, max: usize) -> Vec<u8> {
        let out = self.recv_buf.read(max);
        if !out.is_empty() {
            // Window opened: let the peer know soon.
            self.ack_pending += 1;
        }
        out
    }

    /// Copies up to `dst.len()` in-order bytes into `dst`, returning the
    /// count — the allocation-free `ff_read` path.
    pub fn read_into(&mut self, dst: &mut [u8]) -> usize {
        let n = self.recv_buf.read_into(dst);
        if n > 0 {
            // Window opened: let the peer know soon.
            self.ack_pending += 1;
        }
        n
    }

    /// Requests an orderly close (FIN after the buffer drains).
    pub fn close(&mut self) {
        if matches!(self.state, TcpState::SynSent | TcpState::Listen) {
            self.state = TcpState::Closed;
            return;
        }
        self.close_requested = true;
    }

    /// Hard-drops the connection (RST semantics, local side).
    pub fn abort(&mut self) {
        self.state = TcpState::Closed;
    }

    /// `true` when the active open was answered by an RST — the condition
    /// behind `ECONNREFUSED`.
    pub fn was_refused(&self) -> bool {
        self.refused
    }

    /// `true` when an established connection was torn down by a peer RST —
    /// the condition behind `ECONNRESET`.
    pub fn was_reset(&self) -> bool {
        self.reset_by_peer
    }

    /// `true` when the connection died of retransmission give-up — every
    /// R2 backoff tier went unanswered, the condition behind `ETIMEDOUT`.
    pub fn was_timed_out(&self) -> bool {
        self.timed_out
    }

    /// `true` once the application has requested an orderly close. An
    /// error'd TCB with this set has no owner left to observe the errno
    /// (the app already gave the fd back), so the reaper may free it.
    pub fn app_closed(&self) -> bool {
        self.close_requested
    }

    // ---- wire surface ----

    /// Processes an incoming segment at `now`. Output (ACKs, data,
    /// retransmits) is produced by the next [`Tcb::poll_output`].
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) {
        self.stats.segs_in += 1;
        if seg.flags.rst {
            self.on_rst(seg);
            return;
        }
        // RFC 5961 §4: a SYN on a synchronized connection (a blind forgery
        // or a stale duplicate) never resets state. Drop it, count it, and
        // answer with a challenge ACK — a genuinely desynchronized peer
        // learns our sequence numbers and can reset us with an exact match;
        // a forger learns nothing it can use blindly.
        if seg.flags.syn
            && !matches!(
                self.state,
                TcpState::SynSent | TcpState::Listen | TcpState::Closed
            )
        {
            self.stats.syn_drops += 1;
            self.ack_now = true;
            return;
        }
        if let Some((tsval, _)) = seg.options.ts {
            self.ts_recent = tsval;
        }
        match self.state {
            TcpState::SynSent => self.on_segment_syn_sent(now, seg),
            TcpState::TimeWait => {
                // A retransmitted FIN means our final ACK was lost: re-ACK
                // and restart the 2MSL clock (RFC 793 p.73).
                if seg.flags.fin {
                    self.ack_now = true;
                    self.time_wait_deadline = Some(now + SimDuration::from_nanos(TIME_WAIT));
                }
            }
            TcpState::Listen | TcpState::Closed => {
                // Listeners are handled by the stack; stray segments ignored
                // (a fuller stack would RST).
            }
            _ => self.on_segment_synchronized(now, seg),
        }
    }

    /// RST validation (RFC 5961 §3). An RST during the handshake is the
    /// peer's "connection refused" — but only when it acknowledges *our*
    /// SYN. In synchronized states only an RST whose sequence number
    /// exactly matches `rcv_nxt` tears the connection down; an in-window
    /// but inexact sequence earns a challenge ACK (so a legitimate but
    /// desynchronized peer can re-aim), and everything else is a counted
    /// blind-forgery drop. TIME_WAIT never honors an RST at all — the
    /// RFC 1337 assassination hazard — because its whole job is to drain
    /// old duplicates, forged or not.
    fn on_rst(&mut self, seg: &TcpSegment) {
        match self.state {
            TcpState::SynSent => {
                if seg.flags.ack && seg.ack == self.iss.wrapping_add(1) {
                    self.refused = true;
                    self.state = TcpState::Closed;
                } else {
                    self.stats.rst_drops += 1;
                }
            }
            TcpState::Listen | TcpState::Closed => {}
            TcpState::TimeWait => {
                self.stats.rst_drops += 1;
            }
            _ => {
                let rcv_nxt = self.rcv_nxt();
                if seg.seq == rcv_nxt {
                    self.reset_by_peer = true;
                    self.state = TcpState::Closed;
                } else {
                    let wnd = self.recv_buf.window().min(u32::from(u16::MAX));
                    if seq_ge(seg.seq, rcv_nxt) && seq_lt(seg.seq, rcv_nxt.wrapping_add(wnd)) {
                        self.ack_now = true;
                    }
                    self.stats.rst_drops += 1;
                }
            }
        }
    }

    fn on_segment_syn_sent(&mut self, now: SimTime, seg: &TcpSegment) {
        if !(seg.flags.syn && seg.flags.ack) {
            return;
        }
        if seg.ack != self.iss.wrapping_add(1) {
            return; // bogus ack: ignore (full TCP would RST)
        }
        if let Some(peer_mss) = seg.options.mss {
            self.mss = self.mss.min(usize::from(peer_mss));
            self.cc = self.cc_algo.build(self.mss as u32);
        }
        self.peer_sack = seg.options.sack_permitted;
        self.snd_una = seg.ack;
        self.snd_wnd = u32::from(seg.window);
        self.recv_buf = RecvBuffer::new(seg.seq.wrapping_add(1), SOCK_BUF);
        self.state = TcpState::Established;
        self.rtx_deadline = None;
        self.backoff = 0;
        self.ack_now = true;
        self.measure_rtt(now, seg);
    }

    fn on_segment_synchronized(&mut self, now: SimTime, seg: &TcpSegment) {
        let now_us = now.as_nanos() / 1_000;
        // --- ACK processing ---
        if seg.flags.ack {
            let ack = seg.ack;
            if self.sack_active() && !seg.options.sack.is_empty() {
                self.absorb_sack(seg.options.sack.as_slice());
            }
            if seq_gt(ack, self.snd_una) && seq_le(ack, self.snd_nxt) {
                let acked = ack.wrapping_sub(self.snd_una);
                let was_recovery = self.cc.in_recovery();
                self.send_buf.ack_to(ack);
                self.snd_una = ack;
                self.dupacks = 0;
                self.rtx_attempts = 0;
                self.cc.on_ack(now_us, acked);
                // Karn's algorithm: an ACK at or below the last
                // retransmission's frontier could acknowledge the
                // retransmitted copy, not the original — take no RTT
                // sample and carry the backoff until a fresh segment
                // (sent after the retransmission) is acknowledged.
                let ambiguous = self.rtx_recover.is_some_and(|r| seq_le(ack, r));
                if !ambiguous {
                    self.rtx_recover = None;
                    self.backoff = 0;
                    self.measure_rtt(now, seg);
                }
                self.rtx_deadline = if self.snd_una == self.snd_nxt {
                    None
                } else {
                    Some(now + SimDuration::from_nanos(self.backed_rto()))
                };
                if self.snd_una == self.snd_nxt {
                    self.probe_inflight = false;
                }
                self.prune_sack();
                // Partial ACK during SACK recovery: keep filling holes
                // from the scoreboard instead of waiting for dupacks.
                if was_recovery
                    && self.sack_active()
                    && self.snd_una != self.snd_nxt
                    && !self.sack_scoreboard.is_empty()
                {
                    self.recovery_rtx_next = Some(self.snd_una);
                    self.fast_rtx = true;
                }
                // Handshake completion / FIN acknowledgment transitions.
                if self.state == TcpState::SynReceived {
                    self.state = TcpState::Established;
                }
                if let Some(fin_seq) = self.fin_seq {
                    if seq_gt(ack, fin_seq) {
                        self.state = match self.state {
                            TcpState::FinWait1 => {
                                self.fw2_deadline =
                                    Some(now + SimDuration::from_nanos(FIN_WAIT2_TIMEOUT));
                                TcpState::FinWait2
                            }
                            TcpState::Closing => {
                                self.time_wait_deadline =
                                    Some(now + SimDuration::from_nanos(TIME_WAIT));
                                TcpState::TimeWait
                            }
                            TcpState::LastAck => TcpState::Closed,
                            s => s,
                        };
                    }
                }
            } else if ack == self.snd_una
                && self.snd_una != self.snd_nxt
                && seg.payload.is_empty()
                && !seg.flags.syn
                && !seg.flags.fin
                && seg.window > 0
            {
                // A zero-window ACK is flow control, not loss evidence
                // (every rejected persist probe is echoed with one), hence
                // the `seg.window > 0` guard above.
                self.dupacks += 1;
                self.stats.dupacks += 1;
                if self.dupacks == 3 && !self.cc.in_recovery() {
                    self.cc.on_fast_retransmit(now_us);
                    self.fast_rtx = true;
                    if self.sack_active() && !self.sack_scoreboard.is_empty() {
                        self.recovery_rtx_next = Some(self.snd_una);
                    }
                }
            }
            self.snd_wnd = u32::from(seg.window);
            // Window re-opened: cancel the persist cycle and fall back to
            // the ordinary retransmission timer for any outstanding probe.
            if self.snd_wnd > 0 && self.persist_deadline.is_some() {
                self.persist_deadline = None;
                self.persist_backoff = 0;
                if self.snd_una != self.snd_nxt && self.rtx_deadline.is_none() {
                    self.rtx_deadline = Some(now + SimDuration::from_nanos(self.backed_rto()));
                }
            }
        }

        // RFC 793 §3.9, SYN-RECEIVED: a segment that does not acknowledge
        // our SYN carries nothing for this incarnation — it is a stale
        // duplicate from an earlier one on the same 4-tuple. Taking its FIN
        // would move a TCB whose SYN-ACK is still owed to CLOSE_WAIT, which
        // then "sends" the SYN's sequence slot as a data byte.
        if self.state == TcpState::SynReceived {
            return;
        }

        // --- payload ---
        if !seg.payload.is_empty() {
            let advanced = self.recv_buf.on_segment(seg.seq, &seg.payload);
            if advanced {
                self.stats.bytes_in += seg.payload.len() as u64;
                self.ack_pending += 1;
                if self.ack_pending >= 2 {
                    self.ack_now = true; // ack every second segment
                } else {
                    self.ack_deadline
                        .get_or_insert(now + SimDuration::from_nanos(DELACK));
                }
            } else {
                // Out-of-order or duplicate: immediate (duplicate) ACK.
                self.ack_now = true;
            }
        }

        // --- FIN ---
        let fin_seq_pos = seg.seq.wrapping_add(seg.payload.len() as u32);
        if seg.flags.fin && fin_seq_pos == self.recv_buf.next_seq() && !self.fin_rcvd {
            self.fin_rcvd = true;
            self.ack_now = true;
            self.state = match self.state {
                TcpState::Established | TcpState::SynReceived => TcpState::CloseWait,
                TcpState::FinWait1 => {
                    // Did they also ack our FIN? (handled above; if we're
                    // still FinWait1 they did not.)
                    TcpState::Closing
                }
                TcpState::FinWait2 => {
                    self.fw2_deadline = None;
                    self.time_wait_deadline = Some(now + SimDuration::from_nanos(TIME_WAIT));
                    TcpState::TimeWait
                }
                s => s,
            };
        } else if seg.flags.fin && !self.fin_rcvd {
            // FIN beyond a gap: dup-ack it.
            self.ack_now = true;
        }

        // Any peer activity proves it is alive: push the FIN_WAIT_2 orphan
        // deadline out (only a silent peer orphans the half-closed socket).
        if self.state == TcpState::FinWait2 {
            self.fw2_deadline = Some(now + SimDuration::from_nanos(FIN_WAIT2_TIMEOUT));
        }
    }

    fn measure_rtt(&mut self, now: SimTime, seg: &TcpSegment) {
        // Timestamp echo: our TSval was the microsecond clock at send time.
        let Some((_tsval, tsecr)) = seg.options.ts else {
            return;
        };
        if tsecr == 0 {
            return;
        }
        let now_us = (now.as_nanos() / 1_000) as u32;
        let rtt_us = now_us.wrapping_sub(tsecr);
        if rtt_us > 10_000_000 {
            return; // implausible echo (wrapped or stale)
        }
        let rtt = u64::from(rtt_us) * 1_000;
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let delta = srtt.abs_diff(rtt);
                self.rttvar = (3 * self.rttvar + delta) / 4;
                self.srtt = Some((7 * srtt + rtt) / 8);
            }
        }
        self.rto = (self.srtt.unwrap() + (4 * self.rttvar).max(1_000)).clamp(MIN_RTO, MAX_RTO);
    }

    /// The RTO with the current Karn backoff applied.
    fn backed_rto(&self) -> u64 {
        (self.rto << self.backoff.min(10)).min(MAX_RTO)
    }

    /// Merges peer-reported SACK blocks into the scoreboard, keeping it
    /// disjoint and ascending in sequence order above `snd_una`.
    fn absorb_sack(&mut self, blocks: &[(u32, u32)]) {
        for &(left, right) in blocks {
            // Reject nonsense or stale ranges outside (snd_una, snd_nxt].
            if !seq_lt(left, right) || seq_le(right, self.snd_una) || seq_gt(right, self.snd_nxt) {
                continue;
            }
            let left = if seq_lt(left, self.snd_una) {
                self.snd_una
            } else {
                left
            };
            // Insert, then merge overlapping/adjacent neighbours.
            let pos = self
                .sack_scoreboard
                .partition_point(|&(l, _)| seq_lt(l, left));
            self.sack_scoreboard.insert(pos, (left, right));
            let mut i = pos.saturating_sub(1);
            while i + 1 < self.sack_scoreboard.len() {
                let (l0, r0) = self.sack_scoreboard[i];
                let (l1, r1) = self.sack_scoreboard[i + 1];
                if seq_ge(r0, l1) {
                    self.sack_scoreboard[i] = (l0, if seq_gt(r1, r0) { r1 } else { r0 });
                    self.sack_scoreboard.remove(i + 1);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Drops scoreboard ranges at or below the cumulative ACK.
    fn prune_sack(&mut self) {
        let una = self.snd_una;
        self.sack_scoreboard.retain_mut(|b| {
            if seq_le(b.1, una) {
                return false;
            }
            if seq_lt(b.0, una) {
                b.0 = una;
            }
            true
        });
        if self.snd_una == self.snd_nxt {
            self.sack_scoreboard.clear();
            self.recovery_rtx_next = None;
        }
    }

    /// Scoreboard-driven retransmission: walk the holes between `snd_una`
    /// and the highest SACKed edge, emitting up to `max_segs` hole
    /// segments the peer has not reported holding. Returns segments sent.
    fn sack_retransmit(
        &mut self,
        now: SimTime,
        max_segs: usize,
        emit: &mut dyn FnMut(&TcpSegment, SegPayload<'_>),
    ) -> u64 {
        let Some(&(_, high)) = self.sack_scoreboard.last() else {
            return 0;
        };
        let mut cursor = self.recovery_rtx_next.unwrap_or(self.snd_una);
        if seq_lt(cursor, self.snd_una) {
            cursor = self.snd_una;
        }
        let mut sent = 0u64;
        while sent < max_segs as u64 && seq_lt(cursor, high) {
            // Skip ranges the peer already holds.
            if let Some(&(l, r)) = self
                .sack_scoreboard
                .iter()
                .find(|&&(l, r)| seq_le(l, cursor) && seq_lt(cursor, r))
            {
                let _ = l;
                cursor = r;
                continue;
            }
            // Hole: retransmit up to one MSS, not past the next SACKed
            // block's left edge.
            let hole_end = self
                .sack_scoreboard
                .iter()
                .find(|&&(l, _)| seq_gt(l, cursor))
                .map_or(high, |&(l, _)| l);
            let len = (hole_end.wrapping_sub(cursor) as usize).min(self.mss);
            let len = self.send_buf.range_len(cursor, len);
            if len == 0 {
                break;
            }
            let seg = self.make_seg(now, TcpFlags::only_ack(), cursor, FrameBuf::new());
            emit(&seg, SegPayload::Range(&self.send_buf, cursor, len));
            cursor = cursor.wrapping_add(len as u32);
            sent += 1;
            self.stats.retransmits += 1;
            self.stats.sack_retransmits += 1;
        }
        self.recovery_rtx_next = Some(cursor);
        if sent > 0 {
            // Karn: anything up to the retransmission frontier is now
            // ambiguous for RTT sampling.
            self.rtx_recover = Some(self.snd_nxt);
            self.arm_rtx(now);
        }
        sent
    }

    /// Emits every segment the connection owes the wire at `now`, as owned
    /// segments.
    ///
    /// A collecting emitter over [`Tcb::poll_output_into`] — the one place
    /// the output logic lives — that copies each payload range into the
    /// segment it returns. It has no production caller ([`crate::FStack`]
    /// passes an emitter that builds frames in place); it is kept because
    /// ~60 TCB-level tests read their segments through it and it adds no
    /// second logic, only the collection.
    pub fn poll_output(&mut self, now: SimTime) -> Vec<TcpSegment> {
        let mut out = Vec::new();
        self.poll_output_into(now, &mut |seg, payload| {
            let mut seg = seg.clone();
            if let SegPayload::Range(buf, seq, len) = payload {
                let mut v = vec![0u8; len];
                let n = buf.range_into(seq, &mut v);
                debug_assert_eq!(n, len);
                seg.payload = FrameBuf::copy_from(&v);
            }
            out.push(seg);
        });
        out
    }

    /// Emits every segment the connection owes the wire at `now`, handing
    /// each to `emit` as a header-only [`TcpSegment`] plus a
    /// [`SegPayload`] naming where its payload bytes live. Data and
    /// retransmitted segments reference the send buffer directly, so the
    /// emitter can copy the bytes exactly once — into the frame buffer.
    pub fn poll_output_into(
        &mut self,
        now: SimTime,
        emit: &mut dyn FnMut(&TcpSegment, SegPayload<'_>),
    ) {
        let mut emitted: u64 = 0;

        // TIME_WAIT expiry.
        if self.state == TcpState::TimeWait {
            if let Some(d) = self.time_wait_deadline {
                if now >= d {
                    self.state = TcpState::Closed;
                }
            }
        }
        // FIN_WAIT_2 orphan timeout: the peer acked our FIN but never sent
        // its own; a dead peer must not pin the socket forever.
        if self.state == TcpState::FinWait2 {
            if let Some(d) = self.fw2_deadline {
                if now >= d {
                    self.state = TcpState::Closed;
                }
            }
        }
        if self.state == TcpState::Closed || self.state == TcpState::Listen {
            return;
        }

        // --- handshake segments ---
        match self.state {
            TcpState::SynSent if self.snd_nxt == self.iss => {
                let seg = self.make_syn(now, false);
                emit(&seg, SegPayload::Inline);
                emitted += 1;
                self.snd_nxt = self.iss.wrapping_add(1);
                self.arm_rtx(now);
            }
            TcpState::SynReceived if self.snd_nxt == self.iss => {
                let seg = self.make_syn(now, true);
                emit(&seg, SegPayload::Inline);
                emitted += 1;
                self.snd_nxt = self.iss.wrapping_add(1);
                self.arm_rtx(now);
            }
            _ => {}
        }

        // --- zero-window persist timer (RFC 1122 §4.2.2.17) ---
        // With the peer's window closed the retransmission timer is
        // supplanted by persist probing: 1-byte probes at exponentially
        // backed-off intervals, forever (a zero window is flow control,
        // not loss — the give-up counter does not apply).
        let persist_eligible = self.handshake_done()
            && self.snd_wnd == 0
            && matches!(
                self.state,
                TcpState::Established
                    | TcpState::CloseWait
                    | TcpState::FinWait1
                    | TcpState::Closing
            )
            && (self.probe_inflight
                || (self.snd_una == self.snd_nxt && seq_lt(self.snd_nxt, self.send_buf.end_seq())));
        if persist_eligible {
            match self.persist_deadline {
                None => {
                    self.persist_deadline =
                        Some(now + SimDuration::from_nanos(self.persist_interval()));
                    self.rtx_deadline = None;
                }
                Some(d) if now >= d => {
                    let seq = self.snd_una;
                    if self.probe_inflight {
                        self.stats.retransmits += 1;
                    } else {
                        debug_assert_eq!(self.snd_nxt, seq);
                        self.snd_nxt = self.snd_nxt.wrapping_add(1);
                        self.probe_inflight = true;
                        self.stats.bytes_out += 1;
                    }
                    self.stats.persist_probes += 1;
                    let seg = self.make_seg(now, TcpFlags::only_ack(), seq, FrameBuf::new());
                    emit(&seg, SegPayload::Range(&self.send_buf, seq, 1));
                    emitted += 1;
                    self.persist_backoff = (self.persist_backoff + 1).min(MAX_PERSIST_BACKOFF);
                    self.persist_deadline =
                        Some(now + SimDuration::from_nanos(self.persist_interval()));
                    self.rtx_deadline = None;
                }
                _ => {}
            }
        }

        // --- retransmission timer ---
        if let Some(deadline) = self.rtx_deadline {
            if now >= deadline && seq_lt(self.snd_una, self.snd_nxt) {
                self.rtx_attempts += 1;
                if self.rtx_attempts > MAX_RTX_ATTEMPTS {
                    // R2 exceeded (RFC 1122 §4.2.3.5): every backoff tier
                    // went unanswered — declare the peer dead so closing
                    // states (LAST_ACK against a vanished peer, FIN
                    // retransmission storms) converge instead of looping.
                    // The give-up is counted and flagged so SYN, data and
                    // FIN retransmission all surface as ETIMEDOUT, never
                    // as a zombie TCB.
                    self.state = TcpState::Closed;
                    self.rtx_deadline = None;
                    self.timed_out = true;
                    self.stats.rtx_giveups += 1;
                    return;
                }
                self.retransmit_head(now, true, emit);
                emitted += 1;
                self.backoff = (self.backoff + 1).min(10);
                self.rtx_deadline = Some(now + SimDuration::from_nanos(self.backed_rto()));
            }
        }

        // --- fast retransmit ---
        if self.fast_rtx {
            self.fast_rtx = false;
            if self.sack_active() && !self.sack_scoreboard.is_empty() {
                // Scoreboard-driven: fill the reported holes directly
                // instead of blindly resending the head.
                emitted += self.sack_retransmit(now, 4, emit);
            } else {
                self.retransmit_head(now, false, emit);
                emitted += 1;
            }
        }

        // --- new data within min(cwnd, peer window) ---
        if matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::Closing
        ) {
            let wnd = self.cc.cwnd().min(self.snd_wnd);
            loop {
                let inflight = self.inflight();
                if inflight >= wnd {
                    break;
                }
                let budget = (wnd - inflight) as usize;
                let avail_end = self.send_buf.end_seq();
                if !seq_lt(self.snd_nxt, avail_end) {
                    break;
                }
                let len = budget
                    .min(self.mss)
                    .min(avail_end.wrapping_sub(self.snd_nxt) as usize);
                if len == 0 {
                    break;
                }
                let seq = self.snd_nxt;
                self.snd_nxt = self.snd_nxt.wrapping_add(len as u32);
                self.stats.bytes_out += len as u64;
                let mut seg = self.make_seg(now, TcpFlags::only_ack(), seq, FrameBuf::new());
                seg.flags.psh = !seq_lt(self.snd_nxt, avail_end);
                emit(&seg, SegPayload::Range(&self.send_buf, seq, len));
                emitted += 1;
                self.arm_rtx(now);
            }
        }

        // --- FIN emission ---
        if self.close_requested
            && self.fin_seq.is_none()
            && self.send_buf.is_empty()
            && matches!(self.state, TcpState::Established | TcpState::CloseWait)
            && self.snd_una == self.snd_nxt
        {
            let seq = self.snd_nxt;
            let mut seg = self.make_seg(now, TcpFlags::only_ack(), seq, FrameBuf::new());
            seg.flags.fin = true;
            self.fin_seq = Some(seq);
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.state = match self.state {
                TcpState::Established => TcpState::FinWait1,
                TcpState::CloseWait => TcpState::LastAck,
                s => s,
            };
            emit(&seg, SegPayload::Inline);
            emitted += 1;
            self.arm_rtx(now);
        }

        // --- pure ACK (delayed-ack policy) ---
        let delack_due = self
            .ack_deadline
            .map(|d| now >= d && self.ack_pending > 0)
            .unwrap_or(false);
        if (self.ack_now || delack_due) && emitted == 0 && self.handshake_done() {
            let seg = self.make_seg(now, TcpFlags::only_ack(), self.snd_nxt, FrameBuf::new());
            emit(&seg, SegPayload::Inline);
            emitted += 1;
        }
        if emitted > 0 {
            // Any emitted segment carries the latest ACK.
            self.ack_now = false;
            self.ack_pending = 0;
            self.ack_deadline = None;
            self.stats.segs_out += emitted;
        }
    }

    fn handshake_done(&self) -> bool {
        !matches!(self.state, TcpState::SynSent | TcpState::SynReceived) || self.snd_nxt != self.iss
    }

    /// The next sequence number we expect from the peer (their FIN, once
    /// received, occupies one number).
    fn rcv_nxt(&self) -> u32 {
        self.recv_buf
            .next_seq()
            .wrapping_add(u32::from(self.fin_rcvd))
    }

    fn arm_rtx(&mut self, now: SimTime) {
        if self.rtx_deadline.is_none() {
            self.rtx_deadline = Some(now + SimDuration::from_nanos(self.rto));
        }
    }

    /// The current persist-probe interval: RTO backed off exponentially
    /// per probe already sent, clamped like the RTO itself.
    fn persist_interval(&self) -> u64 {
        (self.rto << self.persist_backoff).clamp(MIN_RTO, MAX_RTO)
    }

    /// Re-emits the oldest unacknowledged segment (SYN, FIN or the head of
    /// the send buffer — the latter as a [`SegPayload::Range`], copied
    /// straight into the emitter's frame buffer).
    fn retransmit_head(
        &mut self,
        now: SimTime,
        timeout: bool,
        emit: &mut dyn FnMut(&TcpSegment, SegPayload<'_>),
    ) {
        self.stats.retransmits += 1;
        if timeout {
            self.cc.on_timeout(now.as_nanos() / 1_000);
        }
        // Karn's algorithm: every ACK at or below the current frontier may
        // now be answering this retransmission — no RTT samples from it.
        self.rtx_recover = Some(self.snd_nxt);
        if self.snd_una == self.iss {
            // The SYN (or SYN-ACK) itself is lost.
            let seg = self.make_syn(now, self.state == TcpState::SynReceived);
            emit(&seg, SegPayload::Inline);
            return;
        }
        if Some(self.snd_una) == self.fin_seq {
            let mut seg = self.make_seg(now, TcpFlags::only_ack(), self.snd_una, FrameBuf::new());
            seg.flags.fin = true;
            emit(&seg, SegPayload::Inline);
            return;
        }
        // Clamp to what was actually sent and to the peer's window: a
        // receiver advertising zero window must never see more than the
        // 1-byte probe it already refused.
        let cap = self
            .mss
            .min(self.inflight().max(1) as usize)
            .min(self.snd_wnd.max(1) as usize);
        let len = self.send_buf.range_len(self.snd_una, cap);
        let seg = self.make_seg(now, TcpFlags::only_ack(), self.snd_una, FrameBuf::new());
        emit(&seg, SegPayload::Range(&self.send_buf, self.snd_una, len));
    }

    fn make_syn(&mut self, now: SimTime, with_ack: bool) -> TcpSegment {
        self.stats.segs_out += 1;
        let mut seg = self.make_seg(
            now,
            TcpFlags {
                syn: true,
                ack: with_ack,
                ..Default::default()
            },
            self.iss,
            FrameBuf::new(),
        );
        seg.options.mss = Some(1460);
        // Advertise SACK-permitted when configured; a SYN-ACK offers it
        // only if the peer's SYN did (RFC 2018 §2).
        seg.options.sack_permitted = self.sack_enabled && (!with_ack || self.peer_sack);
        seg
    }

    fn make_seg(&self, now: SimTime, flags: TcpFlags, seq: u32, payload: FrameBuf) -> TcpSegment {
        let ack = if flags.ack { self.rcv_nxt() } else { 0 };
        // Report our reassembly holes so the peer's scoreboard can drive
        // selective retransmission.
        let mut sack = SackBlocks::EMPTY;
        if self.sack_active() && !flags.syn {
            for (l, r) in self.recv_buf.sack_ranges(MAX_SACK_BLOCKS) {
                sack.push(l, r);
            }
        }
        TcpSegment {
            src_port: self.local.1,
            dst_port: self.remote.1,
            seq,
            ack,
            flags,
            window: self.recv_buf.window().min(u32::from(u16::MAX)) as u16,
            options: TcpOptions {
                mss: None,
                ts: Some(((now.as_nanos() / 1_000) as u32, self.ts_recent)),
                sack_permitted: false,
                sack,
            },
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 1), 40000);
    const B: (Ipv4Addr, u16) = (Ipv4Addr::new(10, 0, 0, 2), 5201);
    const MSS: usize = 1448;

    /// Drives both TCBs until neither has anything to say (in-order,
    /// lossless delivery) — a two-node network in a test tube.
    fn pump(now: &mut SimTime, a: &mut Tcb, b: &mut Tcb) {
        let mut quiet_rounds = 0;
        for _ in 0..600 {
            let mut quiet = true;
            for seg in a.poll_output(*now) {
                quiet = false;
                b.on_segment(*now, &seg);
            }
            for seg in b.poll_output(*now) {
                quiet = false;
                a.on_segment(*now, &seg);
            }
            *now += SimDuration::from_micros(50);
            // Stay in the loop long enough for delayed-ACK timers (500 us)
            // to fire even when a round is momentarily silent.
            quiet_rounds = if quiet { quiet_rounds + 1 } else { 0 };
            if quiet_rounds > 14 {
                break;
            }
        }
    }

    fn established_pair() -> (SimTime, Tcb, Tcb) {
        let mut now = SimTime::from_millis(1);
        let mut client = Tcb::connect(A, B, 1000, MSS);
        // Server side: take the SYN from the client.
        let syn = client.poll_output(now).remove(0);
        assert!(syn.flags.syn && !syn.flags.ack);
        let mut server = Tcb::accept_from(B, A, &syn, 9000, MSS);
        pump(&mut now, &mut client, &mut server);
        assert_eq!(client.state(), TcpState::Established);
        assert_eq!(server.state(), TcpState::Established);
        (now, client, server)
    }

    #[test]
    fn three_way_handshake() {
        let (_, c, s) = established_pair();
        assert!(c.is_established() && s.is_established());
        assert_eq!(c.mss(), MSS);
    }

    #[test]
    fn bulk_transfer_is_lossless_and_ordered() {
        let (mut now, mut c, mut s) = established_pair();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        while received.len() < data.len() {
            if sent < data.len() {
                sent += c.write(&data[sent..]);
            }
            pump(&mut now, &mut c, &mut s);
            received.extend(s.read(usize::MAX));
        }
        assert_eq!(received, data);
        assert!(s.stats().bytes_in >= data.len() as u64);
    }

    #[test]
    fn segments_respect_mss() {
        let (mut now, mut c, mut s) = established_pair();
        c.write(&vec![7u8; 10_000]);
        let segs = c.poll_output(now);
        assert!(!segs.is_empty());
        for seg in &segs {
            assert!(seg.payload.len() <= MSS);
            s.on_segment(now, seg);
        }
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.read(usize::MAX).len(), 10_000);
    }

    #[test]
    fn cwnd_limits_inflight() {
        let (now, mut c, _s) = established_pair();
        c.write(&vec![0u8; 1 << 16]);
        let segs = c.poll_output(now);
        let inflight: usize = segs.iter().map(|s| s.payload.len()).sum();
        assert!(inflight as u32 <= c.congestion().cwnd());
        assert!(c.inflight() as usize == inflight);
    }

    #[test]
    fn lost_segment_is_retransmitted_by_timeout() {
        let (mut now, mut c, mut s) = established_pair();
        c.write(b"critical data");
        // The segment is "lost": we never deliver it.
        let lost = c.poll_output(now);
        assert_eq!(lost.len(), 1);
        // Before the RTO: silence.
        now += SimDuration::from_millis(1);
        assert!(c.poll_output(now).is_empty());
        // After the RTO: retransmission, which we deliver.
        now += SimDuration::from_millis(10);
        let rtx = c.poll_output(now);
        assert_eq!(rtx.len(), 1, "exactly one retransmission");
        assert_eq!(rtx[0].payload, b"critical data");
        assert_eq!(c.stats().retransmits, 1);
        s.on_segment(now, &rtx[0]);
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.read(100), b"critical data");
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let (mut now, mut c, mut s) = established_pair();
        c.write(&vec![1u8; MSS * 5]);
        let mut segs = c.poll_output(now);
        assert!(segs.len() >= 4);
        // Drop the first segment; deliver the rest → dup ACKs.
        segs.remove(0);
        for seg in &segs {
            s.on_segment(now, seg);
            for ack in s.poll_output(now) {
                c.on_segment(now, &ack);
            }
            now += SimDuration::from_micros(10);
        }
        assert!(c.stats().dupacks >= 3, "dupacks {}", c.stats().dupacks);
        let rtx = c.poll_output(now);
        assert!(
            rtx.iter()
                .any(|seg| seg.seq == segs[0].seq.wrapping_sub(MSS as u32)),
            "head segment retransmitted"
        );
        assert_eq!(c.stats().retransmits, 1);
        // Deliver the retransmission; recovery completes.
        for seg in &rtx {
            s.on_segment(now, seg);
        }
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.read(usize::MAX).len(), MSS * 5);
    }

    #[test]
    fn orderly_close_both_sides() {
        let (mut now, mut c, mut s) = established_pair();
        c.write(b"bye");
        c.close();
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.read(10), b"bye");
        assert!(s.at_eof());
        assert_eq!(s.state(), TcpState::CloseWait);
        assert!(matches!(c.state(), TcpState::FinWait2));
        s.close();
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.state(), TcpState::Closed);
        assert!(matches!(c.state(), TcpState::TimeWait | TcpState::Closed));
        // TIME_WAIT expires.
        now += SimDuration::from_millis(100);
        c.poll_output(now);
        assert_eq!(c.state(), TcpState::Closed);
    }

    fn rst_seg(seq: u32) -> TcpSegment {
        TcpSegment {
            src_port: B.1,
            dst_port: A.1,
            seq,
            ack: 0,
            flags: TcpFlags {
                rst: true,
                ..Default::default()
            },
            window: 0,
            options: TcpOptions::default(),
            payload: FrameBuf::new(),
        }
    }

    #[test]
    fn rst_kills_the_connection() {
        let (now, mut c, _s) = established_pair();
        // Exact-match RST: seq is the client's rcv_nxt (server iss 9000 + 1).
        c.on_segment(now, &rst_seg(9001));
        assert_eq!(c.state(), TcpState::Closed);
        assert!(!c.writable());
        assert_eq!(c.write(b"x"), 0);
        // Established + RST = reset by peer, not refused.
        assert!(c.was_reset());
        assert!(!c.was_refused());
    }

    #[test]
    fn forged_rst_without_exact_seq_is_dropped_and_counted() {
        let (now, mut c, _s) = established_pair();
        // Out-of-window blind forgery: ignored outright.
        c.on_segment(now, &rst_seg(0xDEAD_BEEF));
        assert_eq!(c.state(), TcpState::Established);
        assert!(!c.was_reset());
        // In-window but inexact: still dropped, but earns a challenge ACK.
        c.on_segment(now, &rst_seg(9001 + 100));
        assert_eq!(c.state(), TcpState::Established);
        let acks = c.poll_output(now);
        assert!(
            acks.iter().any(|s| s.flags.ack && s.payload.is_empty()),
            "challenge ACK for the in-window forgery"
        );
        assert_eq!(c.stats().rst_drops, 2, "both forgeries counted");
        // The exact match still works afterwards.
        c.on_segment(now, &rst_seg(9001));
        assert_eq!(c.state(), TcpState::Closed);
        assert!(c.was_reset());
    }

    #[test]
    fn rst_in_syn_sent_without_matching_ack_is_dropped() {
        let now = SimTime::from_micros(5);
        let mut c = Tcb::connect(A, B, 1_000, MSS);
        let _syn = c.poll_output(now);
        // A blind RST that does not acknowledge our SYN must not refuse
        // the connection (it could be forged by anyone guessing ports).
        let mut rst = rst_seg(0);
        rst.ack = 777; // wrong: our iss+1 is 1_001
        rst.flags.ack = true;
        c.on_segment(now, &rst);
        assert_eq!(c.state(), TcpState::SynSent);
        assert!(!c.was_refused());
        assert_eq!(c.stats().rst_drops, 1);
        // RST without any ACK flag at all: equally ignored in SYN_SENT.
        c.on_segment(now, &rst_seg(0));
        assert_eq!(c.state(), TcpState::SynSent);
        assert_eq!(c.stats().rst_drops, 2);
    }

    #[test]
    fn forged_syn_on_established_is_dropped_with_challenge_ack() {
        let (now, mut c, _s) = established_pair();
        let mut syn = rst_seg(0x1234_5678);
        syn.flags.rst = false;
        syn.flags.syn = true;
        c.on_segment(now, &syn);
        assert_eq!(
            c.state(),
            TcpState::Established,
            "blind SYN changes nothing"
        );
        assert_eq!(c.stats().syn_drops, 1);
        let acks = c.poll_output(now);
        assert!(
            acks.iter().any(|s| s.flags.ack && !s.flags.syn),
            "challenge ACK emitted"
        );
    }

    #[test]
    fn time_wait_is_immune_to_rst_assassination() {
        let (mut now, mut c, mut s) = established_pair();
        c.close();
        pump(&mut now, &mut c, &mut s);
        s.close();
        pump(&mut now, &mut c, &mut s);
        assert_eq!(c.state(), TcpState::TimeWait);
        // Even an exact-sequence RST must not shortcut the 2MSL drain
        // (RFC 1337: TIME-WAIT assassination).
        c.on_segment(now, &rst_seg(9002));
        assert_eq!(c.state(), TcpState::TimeWait);
        assert!(!c.was_reset());
        assert_eq!(c.stats().rst_drops, 1);
    }

    #[test]
    fn rst_during_handshake_means_refused() {
        let now = SimTime::from_micros(5);
        let mut c = Tcb::connect(A, B, 1_000, MSS);
        let _syn = c.poll_output(now);
        let rst = TcpSegment {
            src_port: B.1,
            dst_port: A.1,
            seq: 0,
            ack: 1_001,
            flags: TcpFlags {
                rst: true,
                ack: true,
                ..Default::default()
            },
            window: 0,
            options: TcpOptions::default(),
            payload: FrameBuf::new(),
        };
        c.on_segment(now, &rst);
        assert_eq!(c.state(), TcpState::Closed);
        assert!(c.was_refused(), "RST in SynSent is connection-refused");
        assert!(!c.was_reset());
    }

    #[test]
    fn orderly_close_sets_neither_error_flag() {
        let (mut now, mut c, mut s) = established_pair();
        c.close();
        s.close();
        for _ in 0..20 {
            pump(&mut now, &mut c, &mut s);
            now += SimDuration::from_millis(40);
        }
        assert!(!c.was_refused() && !c.was_reset());
        assert!(!s.was_refused() && !s.was_reset());
    }

    #[test]
    fn receive_window_backpressure() {
        let (mut now, mut c, mut s) = established_pair();
        // Fill far more than one window; the server never reads.
        let data = vec![9u8; SOCK_BUF * 2];
        let mut pushed = 0;
        for _ in 0..50 {
            pushed += c.write(&data[pushed..]);
            pump(&mut now, &mut c, &mut s);
        }
        // The server's buffer holds at most SOCK_BUF…
        assert!(s.readable_bytes() <= SOCK_BUF);
        // …and the client has stopped sending (peer window closed).
        assert!(
            s.readable_bytes() >= SOCK_BUF - MSS,
            "receiver nearly full: {}",
            s.readable_bytes()
        );
        // Reading re-opens the window and the rest flows.
        let mut total = Vec::new();
        for _ in 0..200 {
            total.extend(s.read(usize::MAX));
            pushed += c.write(&data[pushed..]);
            pump(&mut now, &mut c, &mut s);
            if total.len() == data.len() {
                break;
            }
        }
        assert_eq!(total.len(), data.len());
    }

    #[test]
    fn rtt_is_measured_from_timestamps() {
        let (_now, c, s) = established_pair();
        assert!(c.srtt().is_some() || s.srtt().is_some());
    }

    #[test]
    fn zero_window_sends_one_byte_persist_probes() {
        let (mut now, mut c, mut s) = established_pair();
        // Fill the receiver completely; it never reads.
        let data = vec![3u8; SOCK_BUF * 2];
        let mut pushed = 0;
        for _ in 0..50 {
            pushed += c.write(&data[pushed..]);
            pump(&mut now, &mut c, &mut s);
        }
        assert_eq!(s.readable_bytes(), SOCK_BUF, "receiver full");
        // From here on the advertised window is zero: everything the
        // sender emits must be a probe of at most one byte.
        let probes_base = c.stats().persist_probes;
        let mut probes = 0;
        for round in 0..200 {
            for seg in c.poll_output(now) {
                assert!(
                    seg.payload.len() <= 1,
                    "round {round}: {}-byte segment into a zero window",
                    seg.payload.len()
                );
                if seg.payload.len() == 1 {
                    probes += 1;
                }
                s.on_segment(now, &seg);
            }
            for seg in s.poll_output(now) {
                assert_eq!(seg.payload.len(), 0, "receiver only ACKs");
                c.on_segment(now, &seg);
            }
            now += SimDuration::from_millis(2);
        }
        assert!(probes >= 2, "persist probes kept flowing: {probes}");
        assert_eq!(c.stats().persist_probes, probes_base + probes);
        // Probe cadence backs off: well under one probe per 2ms round.
        assert!(probes < 100, "persist backoff applied: {probes}");
        // Draining the receiver reopens the window and the rest flows.
        for _ in 0..400 {
            s.read(usize::MAX);
            pushed += c.write(&data[pushed..]);
            pump(&mut now, &mut c, &mut s);
            s.read(usize::MAX);
            if pushed == data.len() && c.inflight() == 0 {
                break;
            }
        }
        assert_eq!(pushed, data.len(), "everything was eventually sent");
        assert_eq!(c.inflight(), 0, "…and acknowledged");
    }

    #[test]
    fn karn_ambiguous_ack_takes_no_rtt_sample() {
        let (mut now, mut c, mut s) = established_pair();
        // Settle an initial SRTT.
        c.write(b"warmup");
        pump(&mut now, &mut c, &mut s);
        let srtt_before = c.srtt().expect("srtt measured");
        // Lose a segment, let the RTO retransmit it…
        c.write(b"lost once");
        let lost = c.poll_output(now);
        assert_eq!(lost.len(), 1);
        now += SimDuration::from_millis(20);
        let rtx = c.poll_output(now);
        assert_eq!(rtx.len(), 1, "timeout retransmission");
        // …and deliver only the retransmission, after a long delay that
        // would wreck SRTT if the ambiguous ACK were sampled.
        now += SimDuration::from_millis(400);
        s.on_segment(now, &rtx[0]);
        // Let the receiver's delayed-ACK timer (500 us) fire.
        now += SimDuration::from_millis(1);
        for seg in s.poll_output(now) {
            c.on_segment(now, &seg);
        }
        assert_eq!(c.inflight(), 0, "retransmission was acked");
        assert_eq!(
            c.srtt().expect("still measured"),
            srtt_before,
            "Karn: no RTT sample from a segment that was retransmitted"
        );
        // A fresh segment still round-trips cleanly afterwards.
        c.write(b"fresh");
        pump(&mut now, &mut c, &mut s);
        assert_eq!(c.inflight(), 0, "fresh data acked after recovery");
        assert!(c.srtt().is_some(), "sampling continues");
    }

    #[test]
    fn time_wait_reacks_a_retransmitted_fin() {
        let (mut now, mut c, mut s) = established_pair();
        c.close();
        pump(&mut now, &mut c, &mut s);
        s.close();
        // Capture the server's FIN, deliver it, but "lose" the final ACK.
        let fin = s
            .poll_output(now)
            .into_iter()
            .find(|seg| seg.flags.fin)
            .expect("server FIN");
        c.on_segment(now, &fin);
        let _lost_ack = c.poll_output(now);
        assert_eq!(c.state(), TcpState::TimeWait);
        // The server times out and retransmits its FIN; TIME_WAIT must
        // re-ACK it (and restart 2MSL), not ignore it.
        now += SimDuration::from_millis(20);
        let acks = {
            c.on_segment(now, &fin);
            c.poll_output(now)
        };
        assert_eq!(acks.len(), 1, "re-ACK for the retransmitted FIN");
        assert!(acks[0].flags.ack && !acks[0].flags.fin);
        s.on_segment(now, &acks[0]);
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.state(), TcpState::Closed);
        // 2MSL after the re-ACK the socket finally dies.
        now += SimDuration::from_millis(100);
        c.poll_output(now);
        assert_eq!(c.state(), TcpState::Closed);
    }

    #[test]
    fn fin_wait2_orphan_times_out_without_peer_fin() {
        let (mut now, mut c, mut s) = established_pair();
        c.close();
        pump(&mut now, &mut c, &mut s);
        assert_eq!(c.state(), TcpState::FinWait2);
        assert_eq!(s.state(), TcpState::CloseWait);
        // The peer never closes and never speaks again: after the orphan
        // timeout the half-closed socket is released.
        now += SimDuration::from_millis(200);
        c.poll_output(now);
        assert_eq!(c.state(), TcpState::Closed);
    }

    #[test]
    fn fin_wait2_survives_while_peer_is_active() {
        let (mut now, mut c, mut s) = established_pair();
        c.close();
        pump(&mut now, &mut c, &mut s);
        assert_eq!(c.state(), TcpState::FinWait2);
        // A peer that keeps sending data holds the half-close open: the
        // deadline refreshes on every segment.
        for _ in 0..8 {
            now += SimDuration::from_millis(100);
            s.write(b"still here");
            for seg in s.poll_output(now) {
                c.on_segment(now, &seg);
            }
            for seg in c.poll_output(now) {
                s.on_segment(now, &seg);
            }
            assert_eq!(c.state(), TcpState::FinWait2, "refreshed by activity");
        }
        // Once it goes quiet, the orphan timer finally fires.
        now += SimDuration::from_millis(500);
        c.poll_output(now);
        assert_eq!(c.state(), TcpState::Closed);
    }

    #[test]
    fn last_ack_against_a_dead_peer_converges() {
        let (mut now, mut c, mut s) = established_pair();
        c.close();
        pump(&mut now, &mut c, &mut s);
        s.close();
        // The client vanishes: the server's FIN (LAST_ACK) is never
        // acknowledged. Exponential backoff must eventually give up.
        let mut polls = 0u32;
        while s.state() != TcpState::Closed && polls < 10_000 {
            let _ = s.poll_output(now);
            now += SimDuration::from_millis(5);
            polls += 1;
        }
        assert_eq!(s.state(), TcpState::Closed, "gave up after R2");
        assert!(s.stats().retransmits >= 3, "FIN was retried first");
        assert!(s.was_timed_out(), "give-up is flagged for ETIMEDOUT");
        assert_eq!(s.stats().rtx_giveups, 1, "give-up is counted");
    }

    /// Polls `t` forward until it reaches `Closed`, returning the virtual
    /// time that took. Panics past `bound` — the give-up must be bounded.
    fn drive_to_closed(t: &mut Tcb, mut now: SimTime, bound: SimDuration) -> SimDuration {
        let start = now;
        while t.state() != TcpState::Closed {
            assert!(
                now - start <= bound,
                "no give-up after {:?} in {:?}",
                now - start,
                t.state()
            );
            let _ = t.poll_output(now);
            now += SimDuration::from_millis(5);
        }
        now - start
    }

    /// A stale FIN from the 4-tuple's previous incarnation reaches a fresh
    /// passive open before its SYN-ACK left. It acknowledges nothing of
    /// ours, so it must not be taken: the handshake proceeds as if it had
    /// never arrived (found by the epoll oracle's script fuzzing, which
    /// tripped the send path's "range shrank underfoot" assertion).
    #[test]
    fn syn_received_ignores_a_fin_that_does_not_ack_our_syn() {
        let now = SimTime::from_millis(1);
        let mut client = Tcb::connect(A, B, 1000, MSS);
        let syn = client.poll_output(now).remove(0);
        let mut server = Tcb::accept_from(B, A, &syn, 9000, MSS);
        let mut stale = TcpSegment {
            src_port: A.1,
            dst_port: B.1,
            seq: syn.seq.wrapping_add(1),
            ack: 777, // the old incarnation's numbering
            flags: TcpFlags::only_ack(),
            window: 1000,
            options: TcpOptions::default(),
            payload: FrameBuf::new(),
        };
        stale.flags.fin = true;
        server.on_segment(now, &stale);
        assert_eq!(server.state(), TcpState::SynReceived);
        let out = server.poll_output(now);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].flags.syn && out[0].flags.ack,
            "the SYN-ACK, nothing else"
        );
        client.on_segment(now, &out[0]);
        assert_eq!(client.state(), TcpState::Established);
    }

    /// The zombie-TCB audit bound: R2 give-up with full exponential
    /// backoff is ≈1.1 s of virtual silence; three seconds is generous.
    fn give_up_bound() -> SimDuration {
        SimDuration::from_millis(3_000)
    }

    #[test]
    fn syn_sent_against_a_dead_peer_times_out() {
        let now = SimTime::from_millis(1);
        let mut c = Tcb::connect(A, B, 1_000, MSS);
        // Every SYN vanishes into the partition.
        let took = drive_to_closed(&mut c, now, give_up_bound());
        assert!(c.was_timed_out(), "SYN give-up surfaces as timeout");
        assert!(!c.was_refused() && !c.was_reset());
        assert_eq!(c.stats().rtx_giveups, 1);
        assert!(c.stats().retransmits >= 3, "SYN was retried first");
        assert!(took > SimDuration::from_millis(20), "not an instant fail");
    }

    #[test]
    fn established_mid_transfer_against_a_dead_peer_times_out() {
        let (now, mut c, _s) = established_pair();
        c.write(b"into the void");
        // The peer crashed: nothing is ever delivered again.
        let _ = drive_to_closed(&mut c, now, give_up_bound());
        assert!(c.was_timed_out());
        assert_eq!(c.stats().rtx_giveups, 1);
        assert!(c.stats().retransmits >= 3, "data was retried first");
    }

    #[test]
    fn fin_wait_1_against_a_dead_peer_times_out() {
        let (now, mut c, _s) = established_pair();
        c.close();
        // Our FIN is emitted but never acknowledged.
        let _ = drive_to_closed(&mut c, now, give_up_bound());
        assert!(c.was_timed_out());
        assert_eq!(c.stats().rtx_giveups, 1);
        assert!(c.stats().retransmits >= 3, "FIN was retried first");
    }

    fn established_sack_pair() -> (SimTime, Tcb, Tcb) {
        let mut now = SimTime::from_millis(1);
        let mut client = Tcb::connect(A, B, 1000, MSS);
        client.set_sack(true);
        let syn = client.poll_output(now).remove(0);
        assert!(syn.options.sack_permitted, "SYN advertises SACK");
        let mut server = Tcb::accept_from(B, A, &syn, 9000, MSS);
        server.set_sack(true);
        pump(&mut now, &mut client, &mut server);
        assert!(client.sack_active() && server.sack_active());
        (now, client, server)
    }

    #[test]
    fn sack_scoreboard_fills_exactly_the_holes() {
        let (mut now, mut c, mut s) = established_sack_pair();
        c.write(&vec![5u8; MSS * 8]);
        let mut segs = c.poll_output(now);
        assert_eq!(segs.len(), 8);
        // Drop segments 1 and 4; deliver the rest.
        let hole_a = segs[1].seq;
        let hole_b = segs[4].seq;
        segs.remove(4);
        segs.remove(1);
        for seg in &segs {
            s.on_segment(now, seg);
            for ack in s.poll_output(now) {
                assert!(ack.seq_len() == 0, "pure ACKs while reassembling");
                c.on_segment(now, &ack);
            }
            now += SimDuration::from_micros(10);
        }
        // Fast retransmit fired from dupacks, driven by the scoreboard:
        // exactly the two holes come back, nothing the peer already holds.
        let rtx = c.poll_output(now);
        let seqs: Vec<u32> = rtx.iter().map(|seg| seg.seq).collect();
        assert!(seqs.contains(&hole_a), "hole A retransmitted: {seqs:?}");
        assert!(seqs.contains(&hole_b), "hole B retransmitted: {seqs:?}");
        for seg in &rtx {
            assert!(
                seg.seq == hole_a || seg.seq == hole_b || seg.payload.is_empty(),
                "SACKed range resent: seq {}",
                seg.seq
            );
        }
        assert!(c.stats().sack_retransmits >= 2);
        for seg in &rtx {
            s.on_segment(now, seg);
        }
        pump(&mut now, &mut c, &mut s);
        assert_eq!(s.read(usize::MAX).len(), MSS * 8, "transfer completed");
    }

    #[test]
    fn sack_is_off_unless_both_sides_agree() {
        let mut now = SimTime::from_millis(1);
        let mut client = Tcb::connect(A, B, 1000, MSS);
        client.set_sack(true);
        let syn = client.poll_output(now).remove(0);
        // Server does not enable SACK: its SYN-ACK must not advertise it.
        let mut server = Tcb::accept_from(B, A, &syn, 9000, MSS);
        let synack = server.poll_output(now).remove(0);
        assert!(!synack.options.sack_permitted);
        pump(&mut now, &mut client, &mut server);
        assert!(!client.sack_active() && !server.sack_active());
    }

    #[test]
    fn cubic_pair_completes_a_bulk_transfer() {
        let mut now = SimTime::from_millis(1);
        let mut client = Tcb::connect(A, B, 1000, MSS);
        client.set_cc(CcAlgo::Cubic);
        let syn = client.poll_output(now).remove(0);
        let mut server = Tcb::accept_from(B, A, &syn, 9000, MSS);
        server.set_cc(CcAlgo::Cubic);
        pump(&mut now, &mut client, &mut server);
        assert_eq!(client.congestion().name(), "cubic");
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        while received.len() < data.len() {
            if sent < data.len() {
                sent += client.write(&data[sent..]);
            }
            pump(&mut now, &mut client, &mut server);
            received.extend(server.read(usize::MAX));
        }
        assert_eq!(received, data);
    }

    #[test]
    fn delayed_ack_acks_every_second_segment() {
        let (mut now, mut c, mut s) = established_pair();
        c.write(&vec![1u8; MSS * 2]);
        let segs = c.poll_output(now);
        assert_eq!(segs.len(), 2);
        // First segment: ACK deferred.
        s.on_segment(now, &segs[0]);
        assert!(s.poll_output(now).is_empty(), "delayed");
        // Second segment: immediate ACK.
        s.on_segment(now, &segs[1]);
        let acks = s.poll_output(now);
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, segs[1].seq.wrapping_add(MSS as u32));
        // And a lone segment gets acked by the delack timer.
        c.on_segment(now, &acks[0]);
        c.write(&[2u8; 100]);
        let seg = c.poll_output(now).remove(0);
        s.on_segment(now, &seg);
        assert!(s.poll_output(now).is_empty());
        now += SimDuration::from_millis(1);
        assert_eq!(s.poll_output(now).len(), 1, "delack fired");
    }
}
