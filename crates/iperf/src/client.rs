//! The iperf client (sender): connect and keep the pipe full for a
//! configured duration.

use crate::report::{BandwidthReport, IntervalTracker};
use crate::StepOutcome;
use cheri::{Capability, TaggedMemory};
use chos::errno::Errno;
use chos::fdtable::Fd;
use fstack::epoll::{EpollEvent, EpollFlags};
use fstack::socket::SockType;
use fstack::FStack;
use simkern::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Connecting,
    Running,
    Closing,
    Done,
}

/// The sender application.
#[derive(Debug)]
pub struct ClientApp {
    label: String,
    fd: Fd,
    epfd: Fd,
    /// Capability over the (pattern-filled) payload the app writes from.
    payload: Capability,
    duration: SimDuration,
    phase: Phase,
    started: Option<SimTime>,
    bytes: u64,
    tracker: Option<IntervalTracker>,
    /// Optional gap between writes — the paper increases the inter-write
    /// interval in the uncontended Scenario 2 measurement.
    write_gap: SimDuration,
    next_write_at: SimTime,
    /// The last `ff_write` failed — the send buffer was full (`EAGAIN`) or
    /// the socket errored — so the next one fails too until the fd
    /// changes: send space opens only when an ACK is processed, which
    /// marks the fd dirty and steps the app. Cleared by every step: a step
    /// runs because its fd changed or its clock fired.
    blocked: bool,
    /// Reused event vector for the connection-phase epoll poll.
    events: Vec<EpollEvent>,
}

impl ClientApp {
    /// Connects to `remote` and prepares to send for `duration`.
    ///
    /// `payload` is the capability-bounded source buffer (filled by the
    /// caller; its length is the per-call write size).
    ///
    /// # Errors
    ///
    /// Propagates socket-setup failures.
    pub fn start(
        stack: &mut FStack,
        label: impl Into<String>,
        remote: (Ipv4Addr, u16),
        payload: Capability,
        duration: SimDuration,
        now: SimTime,
    ) -> Result<Self, Errno> {
        let fd = stack.ff_socket(SockType::Stream)?;
        stack.ff_connect(fd, remote, now)?;
        let epfd = stack.ff_epoll_create();
        stack.ff_epoll_ctl_add(epfd, fd, EpollFlags::OUT)?;
        Ok(ClientApp {
            label: label.into(),
            fd,
            epfd,
            payload,
            duration,
            phase: Phase::Connecting,
            started: None,
            bytes: 0,
            tracker: None,
            write_gap: SimDuration::ZERO,
            next_write_at: SimTime::ZERO,
            blocked: false,
            events: Vec::new(),
        })
    }

    /// Sets a minimum gap between consecutive `ff_write` calls (used by the
    /// Fig. 5 uncontended measurement protocol).
    pub fn set_write_gap(&mut self, gap: SimDuration) {
        self.write_gap = gap;
    }

    /// Total bytes accepted by `ff_write`.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// `true` once the connection is closed and the run is over.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// One poll-mode step of the sender.
    ///
    /// # Errors
    ///
    /// Unexpected socket errors (EAGAIN/EPIPE during shutdown are handled).
    pub fn step(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
    ) -> Result<StepOutcome, Errno> {
        let mut out = StepOutcome::default();
        self.blocked = false;
        match self.phase {
            Phase::Connecting => {
                out.ff_calls += 1;
                let mut events = std::mem::take(&mut self.events);
                if let Err(e) = stack.ff_epoll_wait_into(self.epfd, &mut events) {
                    self.events = events;
                    return Err(e);
                }
                let writable = events
                    .iter()
                    .any(|e| e.fd == self.fd && e.events.contains(EpollFlags::OUT));
                self.events = events;
                if writable {
                    self.phase = Phase::Running;
                    self.started = Some(now);
                    self.tracker = Some(IntervalTracker::new(now, SimDuration::from_millis(100)));
                    out.progressed = true;
                }
            }
            Phase::Running => {
                let started = self.started.expect("running implies started");
                if now - started >= self.duration {
                    out.ff_calls += 1;
                    stack.ff_close(self.fd)?;
                    self.phase = Phase::Closing;
                    out.progressed = true;
                    return Ok(out);
                }
                if now < self.next_write_at {
                    return Ok(out);
                }
                // Fill the send buffer until EAGAIN (or one write when a
                // gap is configured).
                loop {
                    out.ff_calls += 1;
                    match stack.ff_write(mem, self.fd, &self.payload, self.payload.len()) {
                        Ok(n) => {
                            self.bytes += n;
                            out.bytes += n;
                            out.progressed = true;
                            if let Some(t) = self.tracker.as_mut() {
                                t.record(now, n);
                            }
                            if !self.write_gap.is_zero() {
                                self.next_write_at = now + self.write_gap;
                                break;
                            }
                        }
                        Err(Errno::EAGAIN) => {
                            self.blocked = true;
                            break;
                        }
                        Err(Errno::EPIPE) => {
                            self.phase = Phase::Done;
                            out.progressed = true;
                            break;
                        }
                        Err(e) => {
                            self.blocked = true;
                            return Err(e);
                        }
                    }
                }
            }
            Phase::Closing => {
                // Wait for the stack to finish the FIN handshake; readiness
                // turns to ERR once the fd is reaped.
                let r = stack.readiness(self.fd);
                if r.contains(EpollFlags::ERR) || r.contains(EpollFlags::HUP) {
                    self.phase = Phase::Done;
                    out.progressed = true;
                }
                out.ff_calls += 1;
            }
            Phase::Done => {}
        }
        out.finished = self.phase == Phase::Done;
        Ok(out)
    }

    /// The next instant at which this app acts on its own clock, without a
    /// stack event prompting it — at or before `now` exactly when a step
    /// now would act. While running: the stop instant, or the next write
    /// instant if that is earlier and the last write did not fail (a
    /// failed write is retried when the fd changes, not on the clock; with
    /// no write gap the next write instant has always passed). `None`
    /// outside the running phase — connecting, closing and done states
    /// only move on stack events (frame arrival or stack timers), so the
    /// driver may park the node's loop until one occurs.
    pub fn next_deadline(&self, _now: SimTime) -> Option<SimTime> {
        if self.phase != Phase::Running {
            return None;
        }
        let stop = self.started? + self.duration;
        Some(if self.blocked {
            stop
        } else {
            stop.min(self.next_write_at)
        })
    }

    /// The `ff_*` calls of a step that finds its fd unchanged and its
    /// clock ([`ClientApp::next_deadline`]) not due: the connect phase's
    /// epoll wait; while running, the write retried after a failed one (a
    /// step inside the write gap makes none — a failed write always came
    /// at or after the write instant, so a blocked sender is never inside
    /// the gap); the closing phase's readiness probe; nothing once done.
    pub fn idle_calls(&self) -> u64 {
        match self.phase {
            Phase::Connecting | Phase::Closing => 1,
            Phase::Running => u64::from(self.blocked),
            Phase::Done => 0,
        }
    }

    /// Produces the run summary at `now`.
    pub fn report(self, now: SimTime) -> BandwidthReport {
        let started = self.started.unwrap_or(now);
        let end = started + self.duration.min(now - started);
        BandwidthReport {
            label: self.label,
            bytes: self.bytes,
            elapsed: end - started,
            intervals: self.tracker.map(|t| t.finish(now)).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri::Perms;
    use fstack::StackConfig;
    use updk::nic::MacAddr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Exchanges frames between the two stacks, 50 µs a round.
    fn pump(a: &mut FStack, b: &mut FStack, now: &mut SimTime, rounds: usize) {
        for _ in 0..rounds {
            *now += SimDuration::from_micros(50);
            for f in a.poll_tx(*now) {
                b.input_buf(*now, &f);
            }
            for f in b.poll_tx(*now) {
                a.input_buf(*now, &f);
            }
        }
    }

    /// The sender's clock is exact: a step that filled the send buffer
    /// leaves the stop instant as its deadline (the retry waits for the fd
    /// to change), the next step forgets that, and with a write gap the
    /// deadline is the next write.
    #[test]
    fn the_clock_waits_out_a_full_send_buffer_and_keeps_the_write_gap() {
        let mut a = FStack::new(StackConfig::new("a", MacAddr::local(1), A));
        let mut b = FStack::new(StackConfig::new("b", MacAddr::local(2), B));
        a.arp_cache_mut().insert_static(B, MacAddr::local(2));
        b.arp_cache_mut().insert_static(A, MacAddr::local(1));
        let lfd = b.ff_socket(SockType::Stream).unwrap();
        b.ff_bind(lfd, 5201).unwrap();
        b.ff_listen(lfd, 4).unwrap();
        let mut mem = TaggedMemory::new(1 << 16);
        let payload = mem
            .root_cap()
            .try_restrict(0, 4_096)
            .unwrap()
            .try_restrict_perms(Perms::data())
            .unwrap();
        let mut now = SimTime::ZERO;
        let duration = SimDuration::from_millis(100);
        let mut app = ClientApp::start(&mut a, "tx", (B, 5201), payload, duration, now).unwrap();
        assert_eq!(app.next_deadline(now), None, "connecting: input-driven");
        pump(&mut a, &mut b, &mut now, 4);
        assert!(app.step(&mut a, &mut mem, now).unwrap().progressed);
        let stop = now + duration;
        assert_eq!(
            app.next_deadline(now),
            Some(SimTime::ZERO),
            "a write is owed"
        );

        // No write gap: the step writes until EAGAIN.
        assert!(app.step(&mut a, &mut mem, now).unwrap().bytes > 0);
        assert_eq!(app.next_deadline(now), Some(stop));

        // ACKs open send space; the next step writes once under the gap.
        let gap = SimDuration::from_millis(1);
        app.set_write_gap(gap);
        pump(&mut a, &mut b, &mut now, 4);
        assert_eq!(app.next_deadline(now), Some(stop), "blocked until a step");
        assert!(app.step(&mut a, &mut mem, now).unwrap().bytes > 0);
        assert_eq!(app.next_deadline(now), Some(now + gap));
    }
}
