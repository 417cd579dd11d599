//! The iperf server (receiver): accept connections, drain them, count bytes.

use crate::report::{BandwidthReport, IntervalTracker};
use crate::StepOutcome;
use cheri::Capability;
use cheri::TaggedMemory;
use chos::errno::Errno;
use chos::fdtable::Fd;
use fstack::epoll::{EpollEvent, EpollFlags};
use fstack::socket::SockType;
use fstack::FStack;
use simkern::time::{SimDuration, SimTime};

/// The receiver application.
#[derive(Debug)]
pub struct ServerApp {
    label: String,
    listen_fd: Fd,
    epfd: Fd,
    conns: Vec<Fd>,
    /// Capability-bounded scratch buffer `ff_read` fills.
    read_buf: Capability,
    bytes: u64,
    started: Option<SimTime>,
    last_byte_at: Option<SimTime>,
    tracker: Option<IntervalTracker>,
    /// Reused event vector for the per-turn epoll poll (no allocation in
    /// steady state).
    events: Vec<EpollEvent>,
}

impl ServerApp {
    /// Creates the listener on `port` and registers it with epoll.
    ///
    /// `read_buf` is the app's receive scratch buffer — in the CHERI
    /// scenarios it is a capability bounded to the app cVM's own region, so
    /// a compromised stack could not use it to scribble elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates socket-setup failures.
    pub fn start(
        stack: &mut FStack,
        label: impl Into<String>,
        port: u16,
        read_buf: Capability,
    ) -> Result<Self, Errno> {
        let listen_fd = stack.ff_socket(SockType::Stream)?;
        stack.ff_bind(listen_fd, port)?;
        stack.ff_listen(listen_fd, 16)?;
        let epfd = stack.ff_epoll_create();
        stack.ff_epoll_ctl_add(epfd, listen_fd, EpollFlags::IN)?;
        Ok(ServerApp {
            label: label.into(),
            listen_fd,
            epfd,
            conns: Vec::new(),
            read_buf,
            bytes: 0,
            started: None,
            last_byte_at: None,
            tracker: None,
            events: Vec::new(),
        })
    }

    /// Total payload bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Open connection count.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// One poll-mode step: accept anything pending, drain readable sockets.
    ///
    /// # Errors
    ///
    /// Unexpected socket errors (EAGAIN is handled internally).
    pub fn step(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
    ) -> Result<StepOutcome, Errno> {
        let mut out = StepOutcome::default();
        // Accept new connections.
        out.ff_calls += 1;
        match stack.ff_accept(self.listen_fd) {
            Ok(fd) => {
                stack.ff_epoll_ctl_add(self.epfd, fd, EpollFlags::IN)?;
                self.conns.push(fd);
                out.progressed = true;
                if self.started.is_none() {
                    self.started = Some(now);
                    self.tracker = Some(IntervalTracker::new(now, SimDuration::from_millis(100)));
                }
            }
            Err(Errno::EAGAIN) => {}
            Err(e) => return Err(e),
        }
        // Drain readable connections (epoll-driven, as the ported iperf3).
        out.ff_calls += 1;
        let mut events = std::mem::take(&mut self.events);
        if let Err(e) = stack.ff_epoll_wait_into(self.epfd, &mut events) {
            self.events = events;
            return Err(e);
        }
        let drained = self.drain_ready(stack, mem, now, &events, &mut out);
        self.events = events;
        drained?;
        out.finished = self.started.is_some() && self.conns.is_empty();
        Ok(out)
    }

    /// The `ff_*` calls of a step that finds no connection and no fd
    /// changed: the accept that returns `EAGAIN` and the epoll wait that
    /// reports nothing to read.
    pub fn idle_calls(&self) -> u64 {
        2
    }

    /// Drains every readable connection in `events` (split out so the
    /// caller can restore the reused event vector even on error).
    fn drain_ready(
        &mut self,
        stack: &mut FStack,
        mem: &mut TaggedMemory,
        now: SimTime,
        events: &[EpollEvent],
        out: &mut StepOutcome,
    ) -> Result<(), Errno> {
        for &ev in events {
            if ev.fd == self.listen_fd || !ev.events.contains(EpollFlags::IN) {
                continue;
            }
            loop {
                out.ff_calls += 1;
                match stack.ff_read(mem, ev.fd, &self.read_buf, self.read_buf.len()) {
                    Ok(0) => {
                        // EOF: the sender is done.
                        out.ff_calls += 1;
                        stack.ff_close(ev.fd)?;
                        self.conns.retain(|&c| c != ev.fd);
                        out.progressed = true;
                        break;
                    }
                    Ok(n) => {
                        self.bytes += n;
                        out.bytes += n;
                        out.progressed = true;
                        self.last_byte_at = Some(now);
                        if let Some(t) = self.tracker.as_mut() {
                            t.record(now, n);
                        }
                    }
                    Err(Errno::EAGAIN) => break,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// Produces the run summary at `now`. The measured span ends at the
    /// last received byte (the sender may have stopped before `now`).
    pub fn report(self, now: SimTime) -> BandwidthReport {
        let started = self.started.unwrap_or(now);
        let end = self.last_byte_at.unwrap_or(now).min(now);
        BandwidthReport {
            label: self.label,
            bytes: self.bytes,
            elapsed: end - started,
            intervals: self.tracker.map(|t| t.finish(now)).unwrap_or_default(),
        }
    }
}
