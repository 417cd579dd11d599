//! `ff_epoll` — the event interface the paper moved iperf3 onto.
//!
//! Paper §III.B: *"we replaced the select function, with the epoll
//! mechanism, which adapts better to F-Stack."* The point of epoll over
//! `select` is that a turn costs what is *ready*, not what is
//! *registered*, so each instance keeps a **maybe-ready set** and
//! `ff_epoll_wait` evaluates readiness only for its members:
//!
//! * **Membership.** An fd joins an instance's set when it is registered
//!   or re-registered (`EPOLL_CTL_ADD`/`MOD`) and whenever the stack
//!   *touches* it ([`EpollTable::touch`]) — at every site where the
//!   socket's state may have changed: segment or datagram input, handshake
//!   completion and listener-queue changes, asynchronous errors, reaping
//!   (`mark_dirty`); the application's tx-side calls `ff_write`/
//!   `ff_close`/`ff_connect`/`ff_sendto` and due timers (`mark_hot`); and
//!   every socket a `poll_tx` visited, whose output pass can expire
//!   TIME_WAIT or give up retransmitting *after* the application's last
//!   wait dropped it. The last two overlap on purpose — one marks the
//!   call, the other the pass that acts on it. The invariant is *nothing
//!   becomes ready without a touch*; `crates/fstack/tests/properties.rs`
//!   checks it against a brute-force scan after every step of random
//!   two-stack scripts.
//! * **Cost of a touch.** It reaches the instances watching the fd
//!   through a per-fd watcher list — O(watchers), no walk over instances
//!   or interest sets — and not even that while every watcher still lists
//!   the fd: one per-fd byte says so, which is all the per-segment touches
//!   of a busy socket read.
//! * **Level-triggered keep rule.** `wait` reports every member whose
//!   readiness (masked by its interest; `ERR`/`HUP` always pass) is
//!   non-empty and **keeps** it — still ready ⇒ still a member, so the
//!   next `wait` reports it again without any touch. Members that are not
//!   ready are dropped and cost nothing until touched again.
//! * **Ordering.** Events come out in ascending fd order. Members are
//!   appended unsorted and sorted at `wait`, and only when something was
//!   appended out of order since the last one.
//! * **Close.** [`EpollTable::forget`] (from `ff_close`) removes the fd
//!   from every instance watching it, as Linux does: a registration never
//!   outlives its socket into a reused fd number.

use chos::errno::Errno;
use chos::fdtable::Fd;
use std::ops::{BitAnd, BitOr};

/// Epoll event mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct EpollFlags(u8);

impl EpollFlags {
    /// No events.
    pub const NONE: EpollFlags = EpollFlags(0);
    /// Readable (`EPOLLIN`).
    pub const IN: EpollFlags = EpollFlags(1);
    /// Writable (`EPOLLOUT`).
    pub const OUT: EpollFlags = EpollFlags(4);
    /// Error (`EPOLLERR`).
    pub const ERR: EpollFlags = EpollFlags(8);
    /// Peer hung up (`EPOLLHUP`).
    pub const HUP: EpollFlags = EpollFlags(16);

    /// `true` if every flag in `other` is set.
    pub fn contains(self, other: EpollFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// `true` if no flags are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl BitOr for EpollFlags {
    type Output = EpollFlags;
    fn bitor(self, rhs: EpollFlags) -> EpollFlags {
        EpollFlags(self.0 | rhs.0)
    }
}

impl BitAnd for EpollFlags {
    type Output = EpollFlags;
    fn bitand(self, rhs: EpollFlags) -> EpollFlags {
        EpollFlags(self.0 & rhs.0)
    }
}

/// One ready event returned by `ff_epoll_wait`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpollEvent {
    /// The ready socket.
    pub fd: Fd,
    /// The events that are ready (intersection with the interest mask).
    pub events: EpollFlags,
}

/// End of a watcher chain: no (further) instance.
const NO_EPFD: Fd = -1;

/// What one instance knows about one fd (8 bytes: a stack with a thousand
/// fds ever registered pays 8 KiB per instance for them).
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The registered interest mask; `None` while the fd is not registered.
    interest: Option<EpollFlags>,
    /// The fd sits in [`Instance::maybe`] (exactly once while set).
    member: bool,
    /// While registered: the next instance watching the same fd — the
    /// per-fd watcher list is a chain through the watching instances'
    /// slots, headed by [`EpollTable::first_watcher`].
    next_watcher: Fd,
}

/// The slot of an fd the instance does not watch.
const UNREGISTERED: Slot = Slot {
    interest: None,
    member: false,
    next_watcher: NO_EPFD,
};

/// One epoll instance.
#[derive(Debug, Clone, Default)]
struct Instance {
    /// Indexed by fd, grown on registration.
    slots: Vec<Slot>,
    /// The maybe-ready set. Deregistered fds linger here until the next
    /// `wait` drops them.
    maybe: Vec<Fd>,
    /// An fd was appended to `maybe` below its predecessor since the last
    /// sort.
    unsorted: bool,
}

impl Instance {
    /// Adds a registered `fd` to the maybe-ready set (idempotent).
    fn enlist(&mut self, fd: Fd) {
        let slot = &mut self.slots[fd as usize];
        if !slot.member {
            slot.member = true;
            self.unsorted |= self.maybe.last().is_some_and(|&last| last > fd);
            self.maybe.push(fd);
        }
    }
}

/// The epoll instance table (epfds are a separate namespace from sockets,
/// as in F-Stack's `ff_epoll_create`).
///
/// Socket fds index dense per-instance vectors, so callers register only
/// fds of the socket table's (small, recycled) range — [`crate::FStack`]
/// rejects anything else with `EBADF` before it gets here.
#[derive(Debug, Clone, Default)]
pub struct EpollTable {
    /// Indexed by epfd; instances are never destroyed.
    instances: Vec<Instance>,
    /// Indexed by socket fd: the head of the chain of instances the fd is
    /// registered with ([`Slot::next_watcher`] links it) — an instance is
    /// on the chain exactly while its slot for the fd has an interest mask.
    first_watcher: Vec<Fd>,
    /// Indexed by socket fd, as long as `first_watcher`: every instance
    /// watching the fd (there may be none) has it in its maybe-ready set
    /// already, so a touch has nothing to do. One byte per fd, and the only
    /// thing the per-segment touches of a busy socket ever read.
    listed: Vec<bool>,
}

impl EpollTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// `ff_epoll_create`.
    pub fn create(&mut self) -> Fd {
        self.instances.push(Instance::default());
        (self.instances.len() - 1) as Fd
    }

    /// The instance `epfd` names (over the field, so callers can borrow
    /// the per-fd vectors next to it).
    fn instance(instances: &mut [Instance], epfd: Fd) -> Result<&mut Instance, Errno> {
        usize::try_from(epfd)
            .ok()
            .and_then(|i| instances.get_mut(i))
            .ok_or(Errno::EBADF)
    }

    /// `ff_epoll_ctl(EPOLL_CTL_ADD/MOD)`. Either way `fd` joins the
    /// instance's maybe-ready set: its readiness against the new mask is
    /// unknown until the next `wait` looks.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] for an unknown epfd or a negative `fd`.
    pub fn add(&mut self, epfd: Fd, fd: Fd, interest: EpollFlags) -> Result<(), Errno> {
        let idx = usize::try_from(fd).map_err(|_| Errno::EBADF)?;
        let inst = Self::instance(&mut self.instances, epfd)?;
        if inst.slots.len() <= idx {
            inst.slots.resize(idx + 1, UNREGISTERED);
        }
        if self.first_watcher.len() <= idx {
            self.first_watcher.resize(idx + 1, NO_EPFD);
            self.listed.resize(idx + 1, false);
        }
        let slot = &mut inst.slots[idx];
        if slot.interest.replace(interest).is_none() {
            // ADD, not MOD: the instance joins the fd's watcher chain.
            slot.next_watcher = std::mem::replace(&mut self.first_watcher[idx], epfd);
        }
        // The new watcher lists it too, so `listed[fd]` stays as it was.
        inst.enlist(fd);
        Ok(())
    }

    /// `ff_epoll_ctl(EPOLL_CTL_DEL)`.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] for an unknown epfd, [`Errno::ENOENT`] if `fd` was
    /// not registered.
    pub fn remove(&mut self, epfd: Fd, fd: Fd) -> Result<(), Errno> {
        let inst = Self::instance(&mut self.instances, epfd)?;
        let slot = usize::try_from(fd)
            .ok()
            .and_then(|i| inst.slots.get_mut(i))
            .filter(|slot| slot.interest.is_some())
            .ok_or(Errno::ENOENT)?;
        slot.interest = None;
        let next = slot.next_watcher;
        // Unlink the instance from the fd's watcher chain.
        let idx = fd as usize;
        let mut link = &mut self.first_watcher[idx];
        while *link != epfd {
            let watcher = *link as usize;
            link = &mut self.instances[watcher].slots[idx].next_watcher;
        }
        *link = next;
        Ok(())
    }

    /// Drops `fd` from every instance watching it — what closing a socket
    /// does to its epoll registrations.
    pub fn forget(&mut self, fd: Fd) {
        let Some(first) = self.first_watcher.get_mut(fd as usize) else {
            return;
        };
        let mut epfd = std::mem::replace(first, NO_EPFD);
        while epfd != NO_EPFD {
            let slot = &mut self.instances[epfd as usize].slots[fd as usize];
            slot.interest = None;
            epfd = slot.next_watcher;
        }
    }

    /// Notes that `fd`'s readiness may have changed: it joins the
    /// maybe-ready set of every instance watching it. O(watchers) — and
    /// one byte read while every watcher still lists it, which is the
    /// state of a socket busy enough to be touched per segment.
    pub fn touch(&mut self, fd: Fd) {
        let Some(listed) = self.listed.get_mut(fd as usize) else {
            return; // never registered anywhere
        };
        if !*listed {
            *listed = true;
            let mut epfd = self.first_watcher[fd as usize];
            while epfd != NO_EPFD {
                let inst = &mut self.instances[epfd as usize];
                epfd = inst.slots[fd as usize].next_watcher;
                inst.enlist(fd);
            }
        }
    }

    /// `ff_epoll_wait` (non-blocking poll-mode variant): asks `readiness`
    /// about each member of the maybe-ready set and returns the ready ones,
    /// in ascending fd order.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] for an unknown epfd.
    pub fn wait<F>(&mut self, epfd: Fd, readiness: F) -> Result<Vec<EpollEvent>, Errno>
    where
        F: FnMut(Fd) -> EpollFlags,
    {
        let mut out = Vec::new();
        self.wait_into(epfd, readiness, &mut out)?;
        Ok(out)
    }

    /// [`EpollTable::wait`], collecting into a caller-supplied vector
    /// (cleared first). Poll-mode applications call this every loop turn;
    /// reusing their event vector keeps the steady-state poll
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// [`Errno::EBADF`] for an unknown epfd.
    pub fn wait_into<F>(
        &mut self,
        epfd: Fd,
        mut readiness: F,
        out: &mut Vec<EpollEvent>,
    ) -> Result<(), Errno>
    where
        F: FnMut(Fd) -> EpollFlags,
    {
        let inst = Self::instance(&mut self.instances, epfd)?;
        out.clear();
        if inst.unsorted {
            inst.maybe.sort_unstable();
            inst.unsorted = false;
        }
        let (slots, listed) = (&mut inst.slots, &mut self.listed);
        inst.maybe.retain(|&fd| {
            let slot = &mut slots[fd as usize];
            if let Some(mask) = slot.interest {
                let ready = readiness(fd);
                // ERR/HUP are always reported; IN/OUT follow the interest mask.
                let events = (ready & mask) | (ready & (EpollFlags::ERR | EpollFlags::HUP));
                if !events.is_empty() {
                    out.push(EpollEvent { fd, events });
                    return true;
                }
            }
            slot.member = false;
            listed[fd as usize] = false;
            false
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_algebra() {
        let io = EpollFlags::IN | EpollFlags::OUT;
        assert!(io.contains(EpollFlags::IN));
        assert!(!io.contains(EpollFlags::ERR));
        assert!((io & EpollFlags::IN) == EpollFlags::IN);
        assert!(EpollFlags::NONE.is_empty());
    }

    #[test]
    fn wait_filters_by_interest() {
        let mut t = EpollTable::new();
        let ep = t.create();
        t.add(ep, 3, EpollFlags::IN).unwrap();
        t.add(ep, 4, EpollFlags::OUT).unwrap();
        // fd 3 is writable only; fd 4 is writable: only fd 4 reports.
        let ev = t.wait(ep, |_fd| EpollFlags::OUT).unwrap();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].fd, 4);
        assert_eq!(ev[0].events, EpollFlags::OUT);
    }

    #[test]
    fn err_and_hup_bypass_the_mask() {
        let mut t = EpollTable::new();
        let ep = t.create();
        t.add(ep, 3, EpollFlags::IN).unwrap();
        let ev = t.wait(ep, |_| EpollFlags::HUP).unwrap();
        assert_eq!(ev.len(), 1);
        assert!(ev[0].events.contains(EpollFlags::HUP));
    }

    #[test]
    fn ctl_errors() {
        let mut t = EpollTable::new();
        assert_eq!(t.add(9, 1, EpollFlags::IN).unwrap_err(), Errno::EBADF);
        let ep = t.create();
        assert_eq!(t.add(ep, -1, EpollFlags::IN).unwrap_err(), Errno::EBADF);
        assert_eq!(t.remove(ep, 1).unwrap_err(), Errno::ENOENT);
        t.add(ep, 1, EpollFlags::IN).unwrap();
        t.remove(ep, 1).unwrap();
        assert_eq!(t.remove(ep, 1).unwrap_err(), Errno::ENOENT);
        assert!(t.wait(ep, |_| EpollFlags::IN).unwrap().is_empty());
        assert_eq!(t.wait(99, |_| EpollFlags::IN).unwrap_err(), Errno::EBADF);
    }

    #[test]
    fn distinct_instances() {
        let mut t = EpollTable::new();
        let a = t.create();
        let b = t.create();
        assert_ne!(a, b);
        t.add(a, 1, EpollFlags::IN).unwrap();
        assert!(t.wait(b, |_| EpollFlags::IN).unwrap().is_empty());
    }

    impl EpollTable {
        /// `fd`'s watcher chain, head first.
        fn watchers_of(&self, fd: Fd) -> Vec<Fd> {
            let mut chain = Vec::new();
            let mut epfd = self.first_watcher[fd as usize];
            while epfd != NO_EPFD {
                chain.push(epfd);
                epfd = self.instances[epfd as usize].slots[fd as usize].next_watcher;
            }
            chain
        }
    }

    /// The fds `wait` asks `readiness` about, with `ready` reported ready.
    fn evaluated(t: &mut EpollTable, ep: Fd, ready: &[Fd]) -> (Vec<Fd>, Vec<Fd>) {
        let mut asked = Vec::new();
        let ev = t
            .wait(ep, |fd| {
                asked.push(fd);
                if ready.contains(&fd) {
                    EpollFlags::IN
                } else {
                    EpollFlags::NONE
                }
            })
            .unwrap();
        (asked, ev.iter().map(|e| e.fd).collect())
    }

    #[test]
    fn only_members_are_evaluated_and_ready_ones_stay() {
        let mut t = EpollTable::new();
        let ep = t.create();
        for fd in [7, 2, 5] {
            t.add(ep, fd, EpollFlags::IN).unwrap();
        }
        // Registration enlists: all three are asked, in ascending order.
        assert_eq!(evaluated(&mut t, ep, &[5]), (vec![2, 5, 7], vec![5]));
        // Level-triggered: 5 was ready so it is asked again untouched; the
        // other two cost nothing until something touches them.
        assert_eq!(evaluated(&mut t, ep, &[5]), (vec![5], vec![5]));
        t.touch(2);
        t.touch(2);
        assert_eq!(evaluated(&mut t, ep, &[2, 5]), (vec![2, 5], vec![2, 5]));
        assert_eq!(evaluated(&mut t, ep, &[]), (vec![2, 5], vec![]));
        assert_eq!(evaluated(&mut t, ep, &[2, 5, 7]), (vec![], vec![]));
        // Touching an unregistered fd is a no-op.
        t.touch(3);
        t.touch(-1);
        assert_eq!(evaluated(&mut t, ep, &[3]), (vec![], vec![]));
    }

    #[test]
    fn a_mod_registers_one_watcher_and_re_enlists() {
        let mut t = EpollTable::new();
        let ep = t.create();
        t.add(ep, 4, EpollFlags::IN).unwrap();
        let writable = |_| EpollFlags::OUT;
        assert!(t.wait(ep, writable).unwrap().is_empty());
        // MOD to IN | OUT: reported without any touch, through one watcher.
        t.add(ep, 4, EpollFlags::IN | EpollFlags::OUT).unwrap();
        assert_eq!(t.watchers_of(4), vec![ep]);
        assert_eq!(t.wait(ep, writable).unwrap().len(), 1);
        t.remove(ep, 4).unwrap();
        assert!(t.watchers_of(4).is_empty());
        t.touch(4);
        assert!(t.wait(ep, writable).unwrap().is_empty());
    }

    #[test]
    fn a_del_unlinks_head_middle_and_tail_of_the_watcher_chain() {
        assert_eq!(std::mem::size_of::<Slot>(), 8);
        let mut t = EpollTable::new();
        let eps = [t.create(), t.create(), t.create(), t.create()];
        for ep in eps {
            t.add(ep, 5, EpollFlags::IN).unwrap();
        }
        assert_eq!(t.watchers_of(5), vec![eps[3], eps[2], eps[1], eps[0]]);
        t.remove(eps[2], 5).unwrap(); // middle
        t.remove(eps[3], 5).unwrap(); // head
        t.remove(eps[0], 5).unwrap(); // tail
        assert_eq!(t.watchers_of(5), vec![eps[1]]);
        // Everyone drops the fd as not ready; a touch re-enlists it with
        // the one instance still watching.
        for ep in eps {
            assert!(t.wait(ep, |_| EpollFlags::NONE).unwrap().is_empty());
        }
        t.touch(5);
        for ep in eps {
            let n = t.wait(ep, |_| EpollFlags::IN).unwrap().len();
            assert_eq!(n, usize::from(ep == eps[1]));
        }
    }

    #[test]
    fn del_then_add_before_a_wait_reports_once() {
        let mut t = EpollTable::new();
        let ep = t.create();
        t.add(ep, 4, EpollFlags::IN).unwrap();
        t.remove(ep, 4).unwrap();
        t.add(ep, 4, EpollFlags::IN).unwrap();
        assert_eq!(t.wait(ep, |_| EpollFlags::IN).unwrap().len(), 1);
    }

    #[test]
    fn forget_drops_the_fd_from_every_instance() {
        let mut t = EpollTable::new();
        let a = t.create();
        let b = t.create();
        t.add(a, 4, EpollFlags::IN).unwrap();
        t.add(b, 4, EpollFlags::IN).unwrap();
        t.add(b, 6, EpollFlags::IN).unwrap();
        t.forget(4);
        t.touch(4);
        assert!(t.wait(a, |_| EpollFlags::IN).unwrap().is_empty());
        let ev = t.wait(b, |_| EpollFlags::IN).unwrap();
        assert_eq!(ev.iter().map(|e| e.fd).collect::<Vec<_>>(), vec![6]);
        assert_eq!(t.remove(a, 4).unwrap_err(), Errno::ENOENT);
    }
}
