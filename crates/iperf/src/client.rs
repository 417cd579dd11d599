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

    /// `true` when the app would act at `now` without any new stack event:
    /// the sending phase with the write gap elapsed (a write may proceed)
    /// or the stop instant reached (the close is owed). Together with the
    /// dirty-fd set this is the driver's complete "can a step progress?"
    /// test.
    pub fn due(&self, now: SimTime) -> bool {
        match self.phase {
            Phase::Running => {
                let started = self.started.expect("running implies started");
                now >= self.next_write_at || now - started >= self.duration
            }
            _ => false,
        }
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
                        Err(Errno::EAGAIN) => break,
                        Err(Errno::EPIPE) => {
                            self.phase = Phase::Done;
                            out.progressed = true;
                            break;
                        }
                        Err(e) => return Err(e),
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

    /// The next instant at which this app will act on its own (without an
    /// inbound frame prompting it): the configured stop instant and, when a
    /// write gap is set and still pending, the next write instant. `None`
    /// outside the running phase — connecting, closing and done states only
    /// move on stack events (frame arrival or stack timers), so the driver
    /// may park the node's loop until one occurs.
    pub fn next_deadline(&self, now: SimTime) -> Option<SimTime> {
        if self.phase != Phase::Running {
            return None;
        }
        let started = self.started?;
        let mut d = started + self.duration;
        if self.next_write_at > now && self.next_write_at < d {
            d = self.next_write_at;
        }
        Some(d)
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
