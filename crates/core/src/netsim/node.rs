//! A host and its poll loop: RX ring → stack, the application steps, stack
//! timers → TX ring, then reschedule — or park until a frame or a known
//! deadline makes another iteration worth running.

use super::{Ep, IsolationProfile, NetEvent, NetSim};
use crate::app::{App, AppKind, AppSpec};
use crate::CapnetError;
use chos::fdtable::Fd;
use fstack::loop_::{rx_phase, tx_phase, TurnScratch};
use fstack::{FStack, StackConfig};
use simkern::engine::{Engine, EventHandle};
use simkern::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use updk::nic::MacAddr;
use updk::wire::Frame;

/// How contending app cVMs are scheduled against the Scenario 2 service
/// loop.
///
/// The paper's contended Table II rows are *unbalanced* on the client side
/// (531 vs 410 Mbit/s), which the authors attribute to "the lack of
/// mechanisms for fairness control" — their service mutex lets whichever
/// cVM retries first barge ahead. [`AppSched::Barging`] models that
/// testbed behavior; [`AppSched::RoundRobin`] (the default here) is the
/// fairness-control fix the paper defers to future work, under which the
/// contended flows split the port evenly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AppSched {
    /// Every app cVM steps once per service-loop turn (FIFO-fair).
    #[default]
    RoundRobin,
    /// The first app cVM runs every turn; each later cVM is only granted
    /// `grant` of every `period` turns, as when an unfair mutex plus the
    /// OS scheduler systematically favor one waiter.
    Barging {
        /// Turns (out of `period`) in which a non-first cVM may step.
        grant: u32,
        /// The scheduling period in loop turns.
        period: u32,
    },
    /// Explicit QoS (the paper's deferred future work, via
    /// [`updk::qos`]-style weighted service): the second app cVM steps in
    /// proportion `weight_rest / weight_first` of the first's turns, in
    /// starvation-free convoys. `Weighted { 1, 1 }` behaves like
    /// [`AppSched::RoundRobin`]; `Weighted { 2, 1 }` gives the first cVM
    /// twice the client bandwidth.
    Weighted {
        /// Service weight of the first app cVM.
        weight_first: u32,
        /// Service weight of every other app cVM.
        weight_rest: u32,
    },
}

impl AppSched {
    /// The paper's testbed asymmetry, calibrated so the contended client
    /// split lands near Table II's 531/410 Mbit/s.
    ///
    /// The denial windows must be *convoys* (hundreds of loop turns), not
    /// per-turn interleaving: TCP's send buffer rides out short denials,
    /// so only a starvation burst long enough to drain the buffer (≈130 µs
    /// at line rate) shifts bandwidth — which is exactly how a mutex convoy
    /// plus an unfair scheduler starve a waiter in the real system.
    pub fn paper_barging() -> Self {
        AppSched::Barging {
            grant: 950,
            period: 2_000,
        }
    }

    /// Whether [`AppSched::allows`] reads its `turn`: under such a policy
    /// which apps step — hence how many `ff_*` calls an idle turn makes,
    /// hence how long it lasts — changes from one turn to the next.
    pub(super) fn turn_dependent(&self) -> bool {
        !matches!(self, AppSched::RoundRobin)
    }

    /// Whether app index `idx` gets to step on loop turn `turn`.
    pub(super) fn allows(&self, idx: usize, turn: u64) -> bool {
        match *self {
            AppSched::RoundRobin => true,
            AppSched::Barging { grant, period } => {
                idx == 0 || (turn % u64::from(period.max(1))) < u64::from(grant)
            }
            AppSched::Weighted {
                weight_first,
                weight_rest,
            } => {
                // Time-division service in convoys of QUANTUM turns per
                // weight point: long enough that the active flow's TCP
                // pipeline saturates the port during its window, so the
                // bandwidth split equals the weight ratio.
                const QUANTUM: u64 = 500;
                let wf = u64::from(weight_first.max(1)) * QUANTUM;
                let wr = u64::from(weight_rest.max(1)) * QUANTUM;
                let pos = turn % (wf + wr);
                if idx == 0 {
                    pos < wf
                } else {
                    pos >= wf
                }
            }
        }
    }
}

/// One installed application on a [`Node`].
pub(super) struct AppSlot {
    /// The install-time blueprint; [`Fault::NodeRestart`] rebuilds from it.
    spec: AppSpec,
    /// The live app. `None` between a crash and its restart, and after a
    /// restart that failed to start it — a dead slot stays in place, so
    /// later slots keep their indices.
    pub(super) app: Option<Box<dyn App>>,
    /// Index among the node's apps of the same kind, in installation
    /// order ([`AppSched::allows`] takes a client's index among clients).
    ordinal: usize,
    /// Installation sequence number on this node. A restart rebuilds in
    /// this order, so sockets are created — fds allocated — exactly as
    /// the original installation created them. It is also the id the app
    /// calls the stack under ([`FStack::set_caller`]): slot indices move
    /// while apps are still being installed, this never does.
    installed: usize,
    /// "A step could progress" flag of the dirty-fd gate (gated hosts
    /// only). A set flag has an entry in [`Node::ready`], and the other way
    /// round.
    runnable: bool,
}

/// A parked node's scheduled [`NetEvent::Wake`].
struct PendingWake {
    /// Cancels the event in place when a delivery supersedes it.
    handle: EventHandle,
    /// The lattice tick it is scheduled for.
    at: SimTime,
    /// A delivery put it here (or claimed it); otherwise it stands for the
    /// earliest deadline known when the node parked.
    by_delivery: bool,
}

pub(super) struct Node {
    pub(super) name: String,
    pub(super) dev: usize,
    pub(super) port: usize,
    pub(super) mem: usize,
    pub(super) stack: FStack,
    /// Every installed app, **in step order**: kind-major
    /// ([`AppKind`]'s order), installation order within a kind. An index
    /// into this list is the app's slot.
    pub(super) apps: Vec<AppSlot>,
    pub(super) profile: IsolationProfile,
    /// Loop turns taken, the ones a park folded away included.
    turns: u64,
    /// `true` when app steps are gated on the stack's dirty-fd set: ideal
    /// hosts only. A charged host (per-call isolation cost, the S2 service
    /// mutex) steps every app every turn, because the `ff_*` calls of even
    /// a no-op step are part of the turn's accounted cost. Both kinds drain
    /// the dirty-fd set at the start of the app turn, so both read
    /// [`FStack::is_quiet`] the same way and park by one rule; they differ
    /// only in which apps a turn steps. Resolved at `run()` start.
    gated: bool,
    /// `true` on the two kinds of host whose next idle period is not a
    /// function of their own state, so they never park: an S2 service node
    /// under a turn-dependent [`AppSched`], and an S2 service node whose
    /// mutex a second service node also takes (its wait depends on the
    /// other's turns). Resolved from configuration at `run()` start.
    pub(super) polls: bool,
    /// Installation sequence number → slot: turns the owner the stack
    /// reports for a dirty fd ([`FStack::owner_of`]) into the app to step.
    slot_of: Vec<u32>,
    /// Scratch for draining the stack's dirty-fd set (no per-turn alloc).
    fd_scratch: Vec<Fd>,
    /// The RX and TX bursts' vectors, empty between turns.
    turn_scratch: TurnScratch,
    /// The turn's frames for the wire, `(frame, departure)`, empty between
    /// turns.
    tx_out: Vec<(Frame, SimTime)>,
    /// Gated hosts: the slots whose `runnable` flag is set, in the order
    /// they were flagged. Fed where a flag flips false → true, drained
    /// into `visit` by the next app turn.
    ready: Vec<u32>,
    /// The live slots whose app keeps a clock of its own
    /// ([`App::has_clock`]), ascending. A gated host asks these — and no
    /// other slot — for [`App::next_deadline`] on every turn and every park.
    clocked: Vec<u32>,
    /// The slots the app turn examines, ascending. A gated host rebuilds
    /// it every turn as `ready ∪ clocked`; a charged host steps every slot
    /// every turn, so its list is all of them, fixed.
    visit: Vec<u32>,
    /// What this node's port is cabled to, resolved once at `run()` start
    /// so the TX hot path never touches the topology `HashMap`.
    pub(super) cabled: Option<Ep>,
    /// `true` while the node's poll loop is parked: quiescent, with no
    /// event scheduled except possibly one [`NetEvent::Wake`]. It stays
    /// parked through deliveries — they only move the wake — until a wake
    /// dispatches.
    parked: bool,
    /// Loop generation; bumped by every crash and restart, and whenever a
    /// wake is scheduled. A pending [`NetEvent::LoopIter`] carries the
    /// value it was scheduled under and dies if the loop has crashed
    /// since — a restart inside the old loop's last period must not leave
    /// two loops polling one host. Superseded wakes are cancelled in
    /// place, so a dispatched wake must always match: for them the epoch
    /// survives as the debug assertion of that invariant.
    pub(super) epoch: u64,
    /// The pending scheduled [`NetEvent::Wake`], if any.
    wake: Option<PendingWake>,
    /// While parked: the first instant of the poll lattice
    /// (`anchor + k·period`) not yet accounted for — where the next
    /// iteration of the polling loop would have run. Wakes land on the
    /// lattice, so a woken loop observes the world at exactly the instants
    /// the unconditional polling loop would have.
    anchor: SimTime,
    /// While parked: the lattice step in nanoseconds — what an idle
    /// iteration of this host takes, which is what every iteration until
    /// the wake would have taken: `mainloop_idle_ns`, plus on a charged
    /// host `per_ff_call_ns` for each of its apps' [`App::idle_calls`] and
    /// on an S2 service node the mutex fast path ([`NetSim::idle_turn_ns`]).
    period: u64,
    /// While parked: the instant the iteration that parked ran — the one
    /// that would have scheduled the polling loop's iteration at `anchor`
    /// ([`Node::tick_gen`]).
    parked_at: SimTime,
    /// `true` between a [`Fault::NodeCrash`] and its restart: the poll
    /// loop is dead, the stack is an empty husk, and arriving frames are
    /// discarded at the NIC.
    pub(super) crashed: bool,
}

impl Node {
    pub(super) fn new(
        name: String,
        dev: usize,
        port: usize,
        mem: usize,
        stack: FStack,
        profile: IsolationProfile,
    ) -> Node {
        Node {
            name,
            dev,
            port,
            mem,
            stack,
            apps: Vec::new(),
            profile,
            turns: 0,
            gated: false,
            polls: false,
            slot_of: Vec::new(),
            fd_scratch: Vec::new(),
            turn_scratch: TurnScratch::default(),
            tx_out: Vec::new(),
            ready: Vec::new(),
            clocked: Vec::new(),
            visit: Vec::new(),
            cabled: None,
            parked: false,
            epoch: 0,
            wake: None,
            anchor: SimTime::ZERO,
            period: 1,
            parked_at: SimTime::ZERO,
            crashed: false,
        }
    }

    /// A placeholder for a foreign (other-shard) node slot: shard worlds
    /// keep full-length, globally indexed vectors so every handler keeps
    /// using global ids, and these slots are never touched.
    pub(super) fn shadow(i: usize) -> Node {
        let stack = FStack::with_socket_capacity(
            StackConfig::new(
                format!("shadow{i}"),
                MacAddr::local(0),
                Ipv4Addr::UNSPECIFIED,
            ),
            0, // never opens a socket; size no per-fd bookkeeping
        );
        Node::new(String::new(), 0, 0, 0, stack, IsolationProfile::default())
    }

    /// How many `kind` apps are installed (the next one's ordinal).
    pub(super) fn kind_count(&self, kind: AppKind) -> usize {
        self.apps.iter().filter(|s| s.spec.kind() == kind).count()
    }

    /// Builds the app `spec` describes on this node's stack — its calls
    /// made under the next installation sequence number — and files it at
    /// the end of its kind's run in the step order.
    pub(super) fn install(&mut self, spec: AppSpec) -> Result<(), CapnetError> {
        let installed = self.apps.len();
        self.stack.set_caller(installed as u32);
        let app = spec.start(&mut self.stack, SimTime::ZERO)?;
        let kind = spec.kind();
        let at = self.apps.partition_point(|s| s.spec.kind() <= kind);
        let slot = AppSlot {
            ordinal: self.kind_count(kind),
            installed,
            spec,
            app: Some(app),
            runnable: false,
        };
        self.apps.insert(at, slot);
        Ok(())
    }

    /// Dirty-fd app gating (ideal hosts): seeds the app turn's lists and
    /// maps each app's caller id to its slot, so the stack changes on an fd
    /// route to the app that obtained it.
    pub(super) fn resolve_routing(&mut self) {
        self.gated = self.profile.per_ff_call_ns == 0 && !self.profile.s2_service;
        self.seed_turn();
        self.slot_of = vec![0; self.apps.len()];
        for (si, slot) in self.apps.iter().enumerate() {
            self.slot_of[slot.installed] = si as u32;
        }
    }

    /// Seeds the app turn from the slots as they stand: on a gated host
    /// every live app is runnable (its first turn steps it), the clocked
    /// list names the live apps with a clock, a dead slot is in no list. The
    /// only writer of `ready`/`clocked` wholesale and the only place a flag
    /// is set without a dirty fd — run start, crash (no slot is live:
    /// everything empties) and restart all come through here, so flags and
    /// lists cannot drift apart. A charged host steps every slot every turn
    /// and keeps no flags.
    fn seed_turn(&mut self) {
        self.ready.clear();
        self.clocked.clear();
        self.visit.clear();
        for (si, slot) in self.apps.iter_mut().enumerate() {
            slot.runnable = self.gated && slot.app.is_some();
            if let Some(app) = slot.app.as_ref() {
                if self.gated {
                    self.ready.push(si as u32);
                }
                if app.has_clock() {
                    self.clocked.push(si as u32);
                }
            }
        }
        if !self.gated {
            self.visit.extend(0..self.apps.len() as u32);
        }
    }

    /// [`Fault::NodeCrash`]: every app is dropped (its report with it)
    /// and the stack is replaced by an empty husk — every TCB, listener
    /// and ARP entry gone; peers get no FIN, exactly like a real power
    /// loss. The blueprints stay for the restart. Frames arriving at the
    /// NIC are discarded until then. Idempotent.
    pub(super) fn crash(&mut self, engine: &mut Engine<NetSim>) {
        if self.crashed {
            return;
        }
        self.crashed = true;
        // A parked wake is cancelled in place; a pending LoopIter is of
        // an older epoch from here on and dies at dispatch.
        if let Some(stale) = self.wake.take() {
            engine.cancel(stale.handle);
        }
        self.parked = false;
        self.epoch += 1;
        for slot in &mut self.apps {
            slot.app = None;
        }
        self.seed_turn();
        let cfg = self.stack.config().clone();
        self.stack = FStack::with_socket_capacity(cfg, 0);
    }

    /// [`Fault::NodeRestart`]: a fresh stack with the same interface
    /// config, and every app rebuilt from its blueprint in installation
    /// order (same labels, configs, seeds and arena buffers — listeners
    /// come back, fleets re-launch their schedule from `now`). An app
    /// that fails to start leaves its slot dead.
    pub(super) fn restart(&mut self, now: SimTime) {
        self.crashed = false;
        let cfg = self.stack.config().clone();
        self.stack = FStack::new(cfg);
        self.turns = 0;
        self.parked = false;
        self.epoch += 1;
        self.anchor = now;
        let mut order: Vec<usize> = (0..self.apps.len()).collect();
        order.sort_unstable_by_key(|&si| self.apps[si].installed);
        for si in order {
            let slot = &mut self.apps[si];
            self.stack.set_caller(slot.installed as u32);
            slot.app = slot.spec.start(&mut self.stack, now).ok();
        }
        self.resolve_routing();
    }

    /// The `gen` of the polling loop's iteration at tick `t` of this park's
    /// lattice: the instant the iteration before it ran, which scheduled
    /// it. That is the turn that parked for the first tick, and one period
    /// earlier for every later one — the two differ after a productive
    /// turn, which lasts longer than the idle ones that follow it.
    fn tick_gen(&self, t: SimTime) -> u64 {
        if t == self.anchor {
            self.parked_at.as_nanos()
        } else {
            t.as_nanos() - self.period
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Test-only switch that runs the specification instead of the
    /// optimisation: while set, no host on this thread ever parks — every
    /// loop polls every tick, as paper §III.B describes it. The
    /// differential oracle (`netsim/polled_reference.rs`) runs each
    /// configuration both ways and compares.
    pub(super) static POLLED_REFERENCE: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}

/// How many ticks of the lattice `anchor + k·period` (`k ≥ 0`) lie strictly
/// before `at`; equally, the index of the first tick at or after `at`.
fn ticks_before(anchor: SimTime, at: SimTime, period: u64) -> u64 {
    if at <= anchor {
        return 0;
    }
    (at.as_nanos() - anchor.as_nanos()).div_ceil(period)
}

impl NetSim {
    /// The first poll-lattice instant at or after `at`. Parked nodes wake
    /// on this lattice so their iterations land exactly where the
    /// unconditional polling loop's would have.
    fn lattice_tick(anchor: SimTime, at: SimTime, period: u64) -> SimTime {
        anchor + SimDuration::from_nanos(ticks_before(anchor, at, period) * period)
    }

    /// One main-loop iteration of node `i` (event handler).
    pub(super) fn loop_iter(&mut self, i: usize, engine: &mut Engine<NetSim>) {
        self.counters.loop_polls += 1;
        let now = engine.now();
        if now >= self.stop_at {
            return;
        }
        let (di, pi, mi) = {
            let n = &self.nodes[i];
            (n.dev, n.port, n.mem)
        };
        // Split-borrow the distinct world fields.
        let node = &mut self.nodes[i];
        let dev = &mut self.devs[di];
        let mem = &mut self.mems[mi];

        // (i) RX ring → stack.
        let rx = rx_phase(&mut node.stack, dev, pi, mem, now, &mut node.turn_scratch).unwrap_or(0);

        // (ii) the user-defined function: application steps, gated by the
        // app-cVM scheduling policy (RoundRobin steps everyone; Barging
        // starves non-first cVMs on a fraction of turns). The policy is a
        // property of the DUT's service mutex, so it only applies to app
        // cVMs behind the Scenario 2 service node — never to the ideal
        // measurement hosts.
        let sched = if node.profile.s2_service {
            self.app_sched
        } else {
            AppSched::RoundRobin
        };
        let turn = node.turns;
        node.turns += 1;
        let mut ff_calls: u64 = 0;
        let mut progressed = false;
        // Drain the stack's changed fds; on a gated (ideal) host, route
        // them to their owning apps, and step only runnable apps: an app
        // with no changed fd and no due clock would repeat its previous
        // no-op step, so skipping it is behaviourally invisible — the hub
        // of an N-client star examines O(frames received) server apps per
        // poll instead of all N. Charged hosts (per-call isolation, the S2
        // service loop) step everything, because even a no-op step's ff_*
        // calls carry an accounted cost there; they drain the set all the
        // same, so what is left in it after the turn was changed by it.
        let Node {
            stack,
            apps,
            gated,
            slot_of,
            fd_scratch,
            ready,
            clocked,
            visit,
            ..
        } = node;
        let gated = *gated;
        fd_scratch.clear();
        stack.take_dirty_fds(fd_scratch);
        if gated {
            for &fd in fd_scratch.iter() {
                if let Some(id) = stack.owner_of(fd) {
                    let si = slot_of[id as usize];
                    let slot = &mut apps[si as usize];
                    if !slot.runnable {
                        slot.runnable = true;
                        ready.push(si);
                    }
                }
            }
            // This turn's slots: the runnable ones and the clocked ones,
            // in slot (= step) order. Every other slot would fail the
            // runnable-or-due test below — its clock is the trait's
            // constant `None` — so leaving it unvisited changes nothing,
            // and the turn costs what is runnable, not what is installed.
            visit.clear();
            visit.append(ready);
            visit.extend(clocked.iter().filter(|&&si| !apps[si as usize].runnable));
            visit.sort_unstable();
        }
        // A charged turn on which nothing reached any app — no fd changed,
        // no clock due — is an idle turn for each of them: each step must
        // make exactly the calls its `idle_calls` declares, which is what
        // a park charges for the turns it skips. (Not under a turn-dependent
        // policy: an app it held back may step on a change drained on an
        // earlier turn. Such a loop never parks.)
        #[cfg(debug_assertions)]
        let idle_check = !gated
            && !sched.turn_dependent()
            && fd_scratch.is_empty()
            && clocked.iter().all(|&si| {
                let app = apps[si as usize].app.as_ref();
                app.and_then(|a| a.next_deadline(now))
                    .is_none_or(|d| d > now)
            });
        self.counters.app_visits += visit.len() as u64;
        for &si in visit.iter() {
            let si = si as usize;
            let slot = &mut apps[si];
            let Some(app) = slot.app.as_mut() else {
                continue;
            };
            // Policy first: it is a plain `match` that says yes on every
            // host but the S2 service node (never a gated one, so it holds
            // back no slot drained from `ready`), and the common turn never
            // asks the app.
            if !sched.allows(slot.ordinal, turn) && app.sched_gated() {
                continue;
            }
            // An app's own clock fires it on a gated host with no stack
            // event pending; a gated slot with neither is skipped.
            if gated && !slot.runnable && app.next_deadline(now).is_none_or(|d| d > now) {
                continue;
            }
            slot.runnable = false;
            #[cfg(debug_assertions)]
            let declared = app.idle_calls();
            // The fds this step obtains are this app's.
            stack.set_caller(slot.installed as u32);
            let (calls, moved) = app.step(stack, mem, now);
            #[cfg(debug_assertions)]
            debug_assert!(
                !idle_check || (calls, moved) == (declared, false),
                "{:?} app #{} on {} at {now:?}: an idle step made {calls} ff_* calls \
                 (progressed: {moved}), its idle_calls says {declared}",
                slot.spec.kind(),
                slot.installed,
                node.name,
            );
            ff_calls += calls;
            progressed |= moved;
        }

        // (iii) stack timers + TX ring. A driver error ends the burst; the
        // frames sent before it still leave.
        let mut tx = std::mem::take(&mut node.tx_out);
        let _ = tx_phase(
            &mut node.stack,
            dev,
            pi,
            mem,
            now,
            &mut node.turn_scratch,
            &mut tx,
        );
        // Pool conservation: RX and TX each return their mbufs within the
        // turn.
        debug_assert_eq!(
            dev.stats(pi).bufs_in_use,
            0,
            "{}: a turn ended holding mbufs",
            node.name
        );

        // Wire propagation to whatever the port is cabled to (a peer NIC
        // directly, or a switch that forwards hop by hop). The endpoint was
        // resolved once at run() start — no topology lookup per iteration.
        let n_tx = tx.len();
        if n_tx > 0 && !self.link_down.is_empty() && self.link_down.contains(&Ep::Dev(di, pi)) {
            // The uplink cable is administratively down: every frame is
            // blackholed at this TX hop. No impairment draws happen — the
            // wire never sees the frame, so a healed link's RNG streams
            // are exactly where a fault-free run's would be minus the
            // frames that never crossed.
            self.impairment_stats.blackholed += n_tx as u64;
        } else if let Some(to) = self.nodes[i].cabled {
            let origin = Self::node_origin(i);
            for (frame, departure) in tx.drain(..) {
                self.transmit(engine, origin, to, departure, frame);
            }
        }
        tx.clear();
        self.nodes[i].tx_out = tx;

        // Iteration cost: loop work + per-call isolation charges.
        let work = self.costs.mainloop_idle_ns
            + self.costs.mainloop_per_frame_ns * (rx as u64 + n_tx as u64)
            + self.nodes[i].profile.per_ff_call_ns * ff_calls;
        let work = SimDuration::from_nanos(work);
        // Scenario 2: the service loop holds the F-Stack mutex for its
        // iteration; app calls contend (their wait shows up as lock delay
        // on the next loop turn).
        let (next, waited) = if self.nodes[i].profile.s2_service {
            let m = self.s2_mutex.as_mut().expect("s2 mutex exists");
            let grant = m.acquire(now, work);
            (grant.released_at, grant.contended)
        } else {
            (now + work, false)
        };

        // Quiescence: the loop parks instead of rescheduling once the turn
        // at `next` would be idle — no RX, no TX, no app progress. Such a
        // turn would find the same stack and the same apps, make each app's
        // `idle_calls` and take the idle period, and so would every turn
        // after it until something reaches the host from outside or one of
        // its own deadlines falls due; so the loop sleeps on the lattice
        // `next + k·period`, waking at the first tick at or after the
        // earliest of: a stack timer, a clocked app's deadline, the instant
        // the RX ring's head finishes its DMA, and — moved in by
        // `wake_on_delivery` — a frame reaching the port. What the skipped
        // iterations would have left in the model besides the clock is
        // settled at the wake (`fold_skipped`).
        //
        // The turn at `next` is idle when this one was, and also when this
        // one left the stack quiet with no app runnable: the stack's dirty
        // set was drained before the app steps, so a quiet stack means
        // nothing this turn did changed an fd for an app, and no output or
        // link-layer frame is owed. That turn could then only read a frame
        // that is a deadline (the RX head) or a delivery, step an app whose
        // clock fired and send what a due timer owes — deadlines all. So
        // one rule serves both kinds of host, and a turn that did the work
        // parks without a confirming idle turn after it. A turn that had
        // to wait for the service mutex (a loop rebooted inside its crashed
        // predecessor's last hold) took longer than the idle turns after
        // it will: it reschedules, and the next one parks.
        let idle = rx == 0 && n_tx == 0 && !progressed;
        if idle {
            self.counters.idle_polls += 1;
        }
        let node = &self.nodes[i];
        let quiet = idle || (node.ready.is_empty() && node.stack.is_quiet());
        let parkable = quiet && !node.polls && !waited;
        #[cfg(test)]
        let parkable = parkable && !POLLED_REFERENCE.with(std::cell::Cell::get);
        if parkable {
            let period = self.idle_turn_ns(i);
            let node = &mut self.nodes[i];
            // Stack timers, every app's own clock (client write-gap and
            // stop instants, fleet arrivals and think timers, the HTTP
            // server's idle reaper, chaos rounds) and a frame still mid-DMA
            // must wake a parked node; everything else is input-driven. A
            // reap-only deadline (a closed connection leaving TIME_WAIT)
            // changes nothing a turn would see: it is settled by
            // `fold_skipped`, not woken for.
            let mut deadline = node.stack.next_wake_deadline();
            let clocks = node.clocked.iter().filter_map(|&si| {
                let app = node.apps[si as usize].app.as_ref();
                app.and_then(|a| a.next_deadline(now))
            });
            for d in clocks.chain(self.devs[di].rx_head_ready(pi)) {
                deadline = Some(deadline.map_or(d, |m| m.min(d)));
            }
            node.parked = true;
            node.parked_at = now;
            node.anchor = next;
            node.period = period;
            self.counters.parks += 1;
            debug_assert!(node.wake.is_none(), "parking with a wake still scheduled");
            if let Some(d) = deadline {
                let tick = Self::lattice_tick(next, d, node.period);
                self.schedule_wake(i, tick, false, engine);
            }
        } else {
            let epoch = self.nodes[i].epoch;
            engine.schedule_from(
                Self::node_origin(i),
                next,
                NetEvent::LoopIter { node: i, epoch },
            );
        }
    }

    /// How long an idle turn of node `i` takes, in nanoseconds: the loop's
    /// own idle work, the per-call charge for every `ff_*` call its apps
    /// make on a step that finds nothing changed ([`App::idle_calls`]; a
    /// gated host's calls are free, so it does not ask), and on an S2
    /// service node the uncontended acquisition of the service mutex.
    /// Exactly the `next − now` such a turn computes.
    fn idle_turn_ns(&self, i: usize) -> u64 {
        let node = &self.nodes[i];
        let per_call = node.profile.per_ff_call_ns;
        let calls: u64 = if per_call == 0 {
            0
        } else {
            let live = node.apps.iter().filter_map(|s| s.app.as_ref());
            live.map(|a| a.idle_calls()).sum()
        };
        let fast_path = if node.profile.s2_service {
            self.costs.mutex_fast_ns
        } else {
            0
        };
        (self.costs.mainloop_idle_ns + per_call * calls + fast_path).max(1)
    }

    /// Puts parked node `i`'s one [`NetEvent::Wake`] at lattice tick `at`,
    /// cancelling in place the wake it supersedes — which is what keeps
    /// `stale_wakes` at zero. The wake carries the key the polling loop's
    /// iteration at that tick would have carried — scheduled by this node
    /// at [`Node::tick_gen`] — so it runs exactly where that iteration
    /// would among the deliveries of its instant, and what it schedules is
    /// keyed as that iteration's would be.
    fn schedule_wake(
        &mut self,
        i: usize,
        at: SimTime,
        by_delivery: bool,
        engine: &mut Engine<NetSim>,
    ) {
        let node = &mut self.nodes[i];
        if let Some(stale) = node.wake.take() {
            engine.cancel(stale.handle);
        }
        node.epoch += 1;
        let epoch = node.epoch;
        let mut key = engine.make_key(Self::node_origin(i));
        key.gen = node.tick_gen(at);
        let handle = engine.schedule_cancellable(at, key, NetEvent::Wake { node: i, epoch });
        node.wake = Some(PendingWake {
            handle,
            at,
            by_delivery,
        });
    }

    /// Settles what parked node `i`'s lattice ticks before `upto` would
    /// have done had the loop polled through them: each is one more turn
    /// and, on an S2 service node, one more uncontended acquisition of the
    /// service mutex held for the idle period; and the stack reaps every
    /// TCB whose reap-only deadline fell due by the last of them. Runs
    /// wherever a park ends — at the wake, at a crash, at the run horizon
    /// — so the modelled system is the polling loop's; a no-op on a node
    /// that is not parked.
    ///
    /// The reaps stop at the last skipped tick, not at `upto`: a deadline
    /// after it is the wake turn's own, reaped by that turn's TX phase
    /// after its RX phase — a FIN retransmitted onto that tick still meets
    /// the TIME_WAIT TCB, as in the polling loop.
    pub(super) fn fold_skipped(&mut self, i: usize, upto: SimTime) {
        let node = &mut self.nodes[i];
        if !node.parked {
            return;
        }
        let skipped = ticks_before(node.anchor, upto, node.period);
        if skipped == 0 {
            return;
        }
        let period = SimDuration::from_nanos(node.period);
        if node.profile.s2_service {
            let m = self.s2_mutex.as_mut().expect("s2 mutex exists");
            m.acquire_uncontended_run(node.anchor, period, skipped);
        }
        node.turns += skipped;
        node.anchor += period * skipped;
        node.stack.settle_reaps(node.anchor - period);
    }

    /// A scheduled [`NetEvent::Wake`] dispatching: the parked node runs
    /// the iteration the polling loop would have run at this tick.
    pub(super) fn wake_iter(&mut self, i: usize, epoch: u64, engine: &mut Engine<NetSim>) {
        let node = &mut self.nodes[i];
        // Superseded wakes are cancelled in place and never dispatch; a
        // mismatched epoch here would mean a cancellation was missed.
        debug_assert_eq!(node.epoch, epoch, "stale wake leaked past cancellation");
        if node.epoch != epoch {
            // Release-mode safety net (kept for robustness; the counter
            // stays visible in BENCH json as the witness that
            // cancellation works).
            self.counters.stale_wakes += 1;
            return;
        }
        let wake = node
            .wake
            .take()
            .expect("a dispatching wake is the pending one");
        if !wake.by_delivery {
            self.counters.timer_wakes += 1;
        }
        self.fold_skipped(i, engine.now());
        self.nodes[i].parked = false;
        self.loop_iter(i, engine);
    }

    /// A frame reached parked node `ni`'s port. The polling loop would
    /// first see it on the first lattice tick at or after the instant the
    /// RX ring's head is readable (on a host NIC that is now; behind the
    /// 82576's bus, its DMA-complete instant), so the wake moves there
    /// unless it already stands earlier; the node stays parked.
    pub(super) fn wake_on_delivery(&mut self, ni: usize, engine: &mut Engine<NetSim>) {
        let node = &self.nodes[ni];
        if !node.parked {
            return;
        }
        let now = engine.now();
        let head = self.devs[node.dev].rx_head_ready(node.port);
        let readable = head.map_or(now, |ready| ready.max(now));
        let mut tick = Self::lattice_tick(node.anchor, readable, node.period);
        if tick == now {
            // Readable at the very tick it arrives on. This tick's wake
            // would carry `(tick_gen(now), this node)` (`schedule_wake`); if
            // that sorts before the delivery now running, the polling
            // loop's iteration here has already run without the frame
            // (DESIGN.md, *Same-instant order*) and the frame waits for the
            // next tick. The test is exact, and it is also what keeps a
            // wake from being filed at `now` ahead of the running event:
            // the order has no past.
            let key = engine.current_key();
            let polled = (node.tick_gen(now), Self::node_origin(ni));
            if (key.gen, key.origin) > polled {
                tick += SimDuration::from_nanos(node.period);
            }
        }
        // An earlier wake stands: its iteration finds the frame queued and
        // either reads it or re-parks with the ring head as a deadline. A
        // deadline's wake on the same tick is claimed as this delivery's.
        if node
            .wake
            .as_ref()
            .is_some_and(|w| w.at < tick || (w.at == tick && w.by_delivery))
        {
            return;
        }
        self.counters.wakes += 1;
        self.schedule_wake(ni, tick, true, engine);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::NodeId;
    use capnet_httpd::HttpServerConfig;
    use fstack::tcp::TcpState;
    use simkern::cost::CostModel;

    /// A 4-leaf star (no traffic sources) whose hub hosts four iperf
    /// receivers and an HTTP server, resolved and ready to poll.
    fn hub_with_five_apps() -> (NetSim, usize) {
        let mut sim = NetSim::new(CostModel::morello());
        let star = crate::topology::build_star(&mut sim, 4).expect("star builds");
        for i in 0..4u16 {
            sim.add_server(star.hub, format!("rx{i}"), 5201 + i)
                .expect("server");
        }
        sim.add_http_server(star.hub, "httpd", 8080, HttpServerConfig::default())
            .expect("http server");
        sim.start_devices().expect("devices start");
        sim.resolve_caches();
        let NodeId(hub) = star.hub;
        (sim, hub)
    }

    /// Flags and lists, as the app turn sees them.
    fn turn_state(node: &Node) -> (Vec<bool>, Vec<u32>, Vec<u32>) {
        let flags = node.apps.iter().map(|s| s.runnable).collect();
        (flags, node.ready.clone(), node.clocked.clone())
    }

    /// Run start seeds every app runnable; the first turn examines them
    /// all, and from then on only the clocked slot (the HTTP server, slot
    /// 4) is looked at while nothing arrives.
    #[test]
    fn the_first_turn_examines_every_app_and_later_turns_only_the_clocked() {
        let (mut sim, hub) = hub_with_five_apps();
        assert!(sim.nodes[hub].gated);
        assert_eq!(
            turn_state(&sim.nodes[hub]),
            (vec![true; 5], vec![0, 1, 2, 3, 4], vec![4])
        );
        let mut engine = Engine::new();
        sim.loop_iter(hub, &mut engine);
        assert_eq!(sim.counters.app_visits, 5);
        assert_eq!(
            turn_state(&sim.nodes[hub]),
            (vec![false; 5], vec![], vec![4])
        );
        sim.loop_iter(hub, &mut engine);
        assert_eq!(sim.counters.app_visits, 5 + 1);
    }

    /// Crash leaves no flag set and no list entry behind (a stale entry
    /// would name a dead slot); restart re-seeds both from the re-created
    /// apps, so the reborn host's first turn steps every one of them.
    #[test]
    fn crash_empties_the_turn_and_restart_reseeds_it() {
        let (mut sim, hub) = hub_with_five_apps();
        let mut engine = Engine::new();
        sim.loop_iter(hub, &mut engine);
        // Leave a flag and a `ready` entry standing, as a frame arriving
        // just before the crash would.
        let node = &mut sim.nodes[hub];
        node.apps[2].runnable = true;
        node.ready.push(2);

        node.crash(&mut engine);
        assert_eq!(turn_state(node), (vec![false; 5], vec![], vec![]));
        assert!(node.apps.iter().all(|s| s.app.is_none()));

        node.restart(SimTime::from_millis(1));
        assert!(node.apps.iter().all(|s| s.app.is_some()));
        assert_eq!(
            turn_state(node),
            (vec![true; 5], vec![0, 1, 2, 3, 4], vec![4])
        );
        let before = sim.counters.app_visits;
        sim.loop_iter(hub, &mut engine);
        assert_eq!(sim.counters.app_visits - before, 5);
        assert!(sim.nodes[hub].apps.iter().all(|s| !s.runnable));
    }

    /// The hub of [`hub_with_five_apps`] on a host NIC, made a charged host
    /// if `charged` (it is built gated), booted and left to go quiet
    /// (parked, or polling on under [`POLLED_REFERENCE`]), then handed one
    /// frame per `(at, gen)` of `deliveries`: delivered at `at` by the
    /// switch, from an event that ran at `gen`. No frame is for the hub, so
    /// reading one is all a turn does with it. Returns the instant the
    /// hub's stack takes each frame in, and the lattice `(anchor, period)`
    /// the hub is parked on once it has read the last one.
    fn frames_read_at(
        charged: bool,
        polled: bool,
        deliveries: &[(SimTime, u64)],
    ) -> (Vec<SimTime>, (SimTime, u64)) {
        use simkern::engine::OrderKey;
        use updk::wire::Frame;

        POLLED_REFERENCE.with(|f| f.set(polled));
        let (mut sim, hub) = hub_with_five_apps();
        if charged {
            sim.nodes[hub].profile.per_ff_call_ns = 400;
            sim.resolve_caches();
        }
        let mut engine = Engine::new();
        let boot = SimTime::from_nanos(97);
        let ev = NetEvent::LoopIter {
            node: hub,
            epoch: 0,
        };
        engine.schedule_from(NetSim::node_origin(hub), boot, ev);
        engine.run_until(&mut sim, SimTime::from_micros(50));
        let node = &sim.nodes[hub];
        assert_eq!(node.parked, !polled);
        for (n, &(at, gen)) in deliveries.iter().enumerate() {
            let key = OrderKey {
                gen,
                origin: sim.switch_origin(0),
                ctr: n as u64 + 1,
            };
            assert!(key.origin > NetSim::node_origin(hub));
            let ev = NetEvent::Deliver {
                dev: node.dev,
                port: node.port,
                at,
                frame: Frame::new(vec![0; 60]),
            };
            engine.schedule_injected(at, key, ev);
        }
        let mut read = Vec::new();
        while read.len() < deliveries.len() {
            assert!(engine.step(&mut sim), "every frame is read eventually");
            let taken = sim.nodes[hub].stack.stats().frames_in as usize;
            read.resize(taken, engine.now());
        }
        POLLED_REFERENCE.with(|f| f.set(false));
        let node = &sim.nodes[hub];
        (read, (node.anchor, node.period))
    }

    /// The quiet charged hub's lattice and a tick of it well after the boot.
    fn a_quiet_tick() -> (SimTime, u64) {
        let (_, (anchor, period)) = frames_read_at(true, false, &[]);
        assert!(
            period > 1_672,
            "the hazard needs an idle period longer than a minimum frame's flight, got {period} ns"
        );
        let tick = NetSim::lattice_tick(anchor, SimTime::from_micros(60), period);
        (tick, period)
    }

    /// *Same-instant order* (DESIGN.md): a frame readable on the very
    /// lattice tick it arrives on is read at that tick when its delivery
    /// sorts before the polling loop's iteration there — an event this
    /// node scheduled one period earlier — and at the next tick otherwise.
    /// A wake carries that iteration's key, so a delivery that sorts after
    /// it must not put one at the instant it runs in; both loops must read
    /// each frame at the same instant.
    #[test]
    fn a_delivery_on_a_tick_is_read_when_the_polling_loop_would_read_it() {
        let (tick, period) = a_quiet_tick();
        let (t, p) = (tick.as_nanos(), SimDuration::from_nanos(period));
        let ns = SimDuration::from_nanos;
        let cases = [
            ("scheduled before the iteration", tick, t - period - 1, tick),
            ("scheduled after it", tick, t - period + 1, tick + p),
            ("same instant, later origin", tick, t - period, tick + p),
            (
                "just off the lattice: no tie",
                tick + ns(1),
                t - 1,
                tick + p,
            ),
            ("just before the tick: no tie", tick - ns(1), t - 2, tick),
        ];
        for (what, at, gen, expect) in cases {
            let (polled, _) = frames_read_at(true, true, &[(at, gen)]);
            let (parked, _) = frames_read_at(true, false, &[(at, gen)]);
            assert_eq!(polled, [expect], "{what}: the polling loop");
            assert_eq!(parked, polled, "{what}: the parked loop");
        }
    }

    /// The same tie with a wake already standing on the tick: a first frame
    /// arrives half a period early, so its wake lands on the tick; a second
    /// is delivered on the tick itself by an event scheduled after the
    /// polling loop's iteration there. That iteration runs before the second
    /// delivery and reads one frame — and so must the wake that stands for
    /// it, leaving the second frame to the following iteration.
    #[test]
    fn a_standing_wake_runs_where_the_polling_iteration_would() {
        let (tick, period) = a_quiet_tick();
        let t = tick.as_nanos();
        let early = tick - SimDuration::from_nanos(period / 2);
        let frames = [(early, early.as_nanos() - 1), (tick, t - period + 1)];
        let (polled, _) = frames_read_at(true, true, &frames);
        let (parked, _) = frames_read_at(true, false, &frames);
        assert_eq!(polled[0], tick, "the polling loop reads the first frame");
        assert!(polled[1] > tick, "and the second an iteration later");
        assert_eq!(parked, polled, "the parked loop");
    }

    /// The first tick after a productive park. A gated hub that reads a
    /// frame parks at the end of that turn, which outlasts an idle one: its
    /// lattice starts at `anchor`, where the turn ends, and the polling
    /// loop's iteration there was scheduled by the turn that parked — not
    /// one idle period before `anchor`, as on every later tick. A frame
    /// delivered on `anchor` by an event that ran between those two
    /// instants sorts after that iteration, so both loops read it a tick
    /// later; a wake keyed `anchor − period` would read it at once.
    #[test]
    fn the_first_tick_after_a_productive_park_is_keyed_by_the_turn_that_parked() {
        let first_at = SimTime::from_nanos(60_001);
        let first = (first_at, first_at.as_nanos() - 1_672);
        let (read, (anchor, period)) = frames_read_at(false, false, &[first]);
        let parked_at = read[0].as_nanos();
        assert_eq!(period, CostModel::morello().mainloop_idle_ns);
        let polled_gen = anchor.as_nanos() - period;
        assert!(
            polled_gen > parked_at + 1,
            "the reading turn outlasts an idle one"
        );
        let late = (anchor, parked_at + 1);
        let (polled, _) = frames_read_at(false, true, &[first, late]);
        let (parked, _) = frames_read_at(false, false, &[first, late]);
        let p = SimDuration::from_nanos(period);
        assert_eq!(polled, [read[0], anchor + p], "the polling loop");
        assert_eq!(parked, polled, "the parked loop");
    }

    /// The hub of [`hub_with_five_apps`] (gated), booted and left to go
    /// quiet, holding one connection in TIME_WAIT whose 2MSL expires on a
    /// tick `expiry` of its poll lattice: its active close ran outside the
    /// loop against a bare peer stack, and the hub's last ACK was lost. On
    /// that very tick the peer's retransmitted FIN is delivered, sorting
    /// before the polling loop's iteration there. Returns the hub's
    /// `(frames_out, rsts_out)` over the run and its TIME_WAIT state after.
    fn fin_retransmitted_onto_the_expiry_tick(polled: bool) -> (u64, u64, Option<TcpState>) {
        use fstack::socket::SockType;
        use simkern::engine::OrderKey;
        use updk::wire::Frame;

        let (_, (anchor, period)) = frames_read_at(false, false, &[]);
        let expiry = NetSim::lattice_tick(anchor, SimTime::from_millis(60), period);
        let closed_at = expiry - SimDuration::from_millis(50);

        POLLED_REFERENCE.with(|f| f.set(polled));
        let (mut sim, hub) = hub_with_five_apps();
        let mut engine = Engine::new();
        let ev = NetEvent::LoopIter {
            node: hub,
            epoch: 0,
        };
        engine.schedule_from(NetSim::node_origin(hub), SimTime::from_nanos(97), ev);
        engine.run_until(&mut sim, SimTime::from_micros(50));
        if !polled {
            assert_eq!(
                (sim.nodes[hub].anchor, sim.nodes[hub].period),
                (anchor, period)
            );
        }

        let node = &mut sim.nodes[hub];
        let (hub_mac, hub_ip) = (node.stack.config().mac, node.stack.config().ip);
        let peer_ip = Ipv4Addr::new(10, 0, 0, 77);
        let mut peer = FStack::new(StackConfig::new("peer", MacAddr::local(77), peer_ip));
        peer.arp_cache_mut().insert_static(hub_ip, hub_mac);
        node.stack
            .arp_cache_mut()
            .insert_static(peer_ip, MacAddr::local(77));
        let lfd = peer.ff_socket(SockType::Stream).unwrap();
        peer.ff_bind(lfd, 9_000).unwrap();
        peer.ff_listen(lfd, 1).unwrap();
        let fd = node.stack.ff_socket(SockType::Stream).unwrap();
        let mut now = SimTime::from_millis(1);
        node.stack.ff_connect(fd, (peer_ip, 9_000), now).unwrap();
        let exchange = |hub: &mut FStack, peer: &mut FStack, now: SimTime| {
            for f in hub.poll_tx(now) {
                peer.input_buf(now, &f);
            }
            for f in peer.poll_tx(now) {
                hub.input_buf(now, &f);
            }
        };
        for _ in 0..3 {
            now += SimDuration::from_micros(20);
            exchange(&mut node.stack, &mut peer, now);
        }
        let pfd = peer.ff_accept(lfd).expect("handshake done");
        node.stack.ff_close(fd).unwrap();
        now += SimDuration::from_micros(20);
        exchange(&mut node.stack, &mut peer, now); // our FIN, its ACK
        peer.ff_close(pfd).unwrap();
        let fin = peer.poll_tx(closed_at);
        assert_eq!(fin.len(), 1, "the peer's FIN");
        node.stack.input_buf(closed_at, &fin[0]);
        assert_eq!(node.stack.poll_tx(closed_at).len(), 1, "our last ACK, lost");
        assert_eq!(node.stack.tcp_state(fd), Some(TcpState::TimeWait));
        assert_eq!(node.stack.next_timer_deadline(), Some(expiry));
        node.stack.take_dirty_fds(&mut Vec::new());
        let before = node.stack.stats();
        let (dev, port) = (node.dev, node.port);

        let key = OrderKey {
            gen: expiry.as_nanos() - period - 1,
            origin: sim.switch_origin(0),
            ctr: 1,
        };
        let ev = NetEvent::Deliver {
            dev,
            port,
            at: expiry,
            frame: Frame::from_buf(fin[0].clone()),
        };
        engine.schedule_injected(expiry, key, ev);
        engine.run_until(&mut sim, expiry + SimDuration::from_micros(20));
        POLLED_REFERENCE.with(|f| f.set(false));
        let stack = &sim.nodes[hub].stack;
        let after = stack.stats();
        (
            after.frames_out - before.frames_out,
            after.rsts_out - before.rsts_out,
            stack.tcp_state(fd),
        )
    }

    /// The expiry-tick tie: a 2MSL deadline on the very tick a parked host
    /// wakes at is that turn's own, reaped by its TX phase after its RX
    /// phase — so a FIN retransmitted onto the tick still meets the
    /// TIME_WAIT TCB, which re-ACKs it and restarts 2MSL, exactly as in
    /// the polling loop. Settling reaps through the wake instant would
    /// free the TCB first and answer the FIN with a reset.
    #[test]
    fn a_fin_on_the_expiry_tick_meets_the_time_wait_tcb_in_both_loops() {
        let polled = fin_retransmitted_onto_the_expiry_tick(true);
        assert_eq!(
            polled,
            (1, 0, Some(TcpState::TimeWait)),
            "the polling loop re-ACKs"
        );
        assert_eq!(
            fin_retransmitted_onto_the_expiry_tick(false),
            polled,
            "the parked loop"
        );
    }

    /// Every host parks at the end of the turn that did the work when that
    /// turn leaves the stack quiet: the hub reads an ARP request and
    /// answers it in one turn, and no confirming idle turn follows — the
    /// lattice starts where the turn ends and steps by the idle period. On
    /// a charged hub that period is the one its idle turn would take: four
    /// receivers and an HTTP server, two calls each.
    #[test]
    fn a_productive_turn_that_leaves_the_stack_quiet_parks() {
        use fstack::arp::ArpPacket;
        use fstack::ether::{EthHdr, EtherType};
        use updk::wire::Frame;

        for per_call in [0, 40] {
            let (mut sim, hub) = hub_with_five_apps();
            sim.nodes[hub].profile.per_ff_call_ns = per_call;
            sim.resolve_caches();
            let node = &sim.nodes[hub];
            assert_eq!(node.gated, per_call == 0);
            let asker = MacAddr::local(77);
            let req =
                ArpPacket::request(asker, Ipv4Addr::new(10, 0, 0, 77), node.stack.config().ip);
            let frame = EthHdr {
                dst: MacAddr::BROADCAST,
                src: asker,
                ethertype: EtherType::Arp,
            }
            .build(&req.build());
            let (dev, port) = (node.dev, node.port);
            sim.devs[dev].deliver(port, SimTime::ZERO, Frame::new(frame));
            let mut engine = Engine::new();
            sim.loop_iter(hub, &mut engine);

            let c = sim.counters;
            assert_eq!((c.loop_polls, c.idle_polls, c.parks), (1, 0, 1), "{c:?}");
            let node = &sim.nodes[hub];
            assert_eq!(node.stack.stats().frames_out, 1, "the reply left");
            assert!(node.parked && node.wake.is_none(), "nothing to wake for");
            let costs = CostModel::morello();
            let calls = 5 * 2;
            let next = costs.mainloop_idle_ns + 2 * costs.mainloop_per_frame_ns + per_call * calls;
            assert_eq!(node.anchor, SimTime::from_nanos(next));
            assert_eq!(node.period, costs.mainloop_idle_ns + per_call * calls);
        }
    }

    /// A charged host is not gated: every turn examines every slot.
    #[test]
    fn a_charged_host_examines_every_slot_every_turn() {
        let (mut sim, hub) = hub_with_five_apps();
        sim.nodes[hub].profile.per_ff_call_ns = 40;
        sim.resolve_caches();
        assert!(!sim.nodes[hub].gated);
        let mut engine = Engine::new();
        for turn in 1..=3 {
            sim.loop_iter(hub, &mut engine);
            assert_eq!(sim.counters.app_visits, 5 * turn);
        }
    }
}
