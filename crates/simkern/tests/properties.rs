//! Property tests of the simulation kernel's ordering laws.

use proptest::prelude::*;
use proptest::runner::TestCaseError;
use simkern::cost::CostModel;
use simkern::engine::{Engine, EventHandle, OrderKey, World};
use simkern::resource::{BusyResource, FifoMutex};
use simkern::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A typed test world: every event carries its insertion index, and the
/// log records `(dispatch instant, index)`.
struct Log(Vec<(u64, usize)>);
impl World for Log {
    type Event = usize;
    fn handle(&mut self, i: usize, eng: &mut Engine<Self>) {
        self.0.push((eng.now().as_nanos(), i));
    }
}

/// Width of one fine wheel slot, of one fine rotation (= one coarse slot)
/// and of one coarse rotation, in nanoseconds — the calendar's band
/// boundaries, which the oracle aims its offsets at.
const GRAN: u64 = 1 << 10;
const BLOCK: u64 = 512 * GRAN;
const COARSE: u64 = 512 * BLOCK;

/// The origin handler-time `schedule_from` children carry, the one their
/// cancellable children are keyed under, and the first of the four origins
/// the foreign keys use.
const CHILD_ORIGIN: u32 = 3;
const KEYED_CHILD_ORIGIN: u32 = 4;
const FOREIGN_ORIGIN: u32 = 100;

/// An oracle event: its id (assigned in schedule order on both sides) and
/// the children it schedules when it dispatches ([`kids_of`]).
struct Ev {
    id: u32,
    kids: u8,
}

/// What an event carrying `kids` schedules when it dispatches at `now`, as
/// `(kind, at)` with kind 0 = `schedule`, 1 = `schedule_cancellable` under
/// [`keyed_child`], 2 = `schedule_from(CHILD_ORIGIN)`: into the cursor slot
/// at the current instant, there again under a key that sorts before
/// everything the slot still holds, a little later (same or next slot), and
/// three blocks out on the coarse level.
fn kids_of(kids: u8, now: u64) -> impl Iterator<Item = (u8, u64)> {
    [
        (0, now),
        (1, now),
        (0, now + 600),
        (2, now + 3 * BLOCK + 17),
    ]
    .into_iter()
    .enumerate()
    .filter(move |(bit, _)| kids & (1 << bit) != 0)
    .map(|(_, kid)| kid)
}

/// The key of a handler-time cancellable child: the `n`-th, scheduled at
/// `now` as if from one fine slot earlier — ahead of the running event's
/// own key and of every entry left in the ordered cursor slot.
fn keyed_child(now: u64, n: u64) -> OrderKey {
    OrderKey {
        gen: now.saturating_sub(GRAN),
        origin: KEYED_CHILD_ORIGIN,
        ctr: n,
    }
}

/// The engine side of the oracle.
struct Sut {
    dispatched: Vec<u32>,
    next_id: u32,
    /// Every cancellation handle ever issued, in issue order — kept for
    /// good, so a script cancels some twice, some after their event
    /// dispatched, some after `clear` recycled their slot.
    handles: Vec<EventHandle>,
}
impl World for Sut {
    type Event = Ev;
    fn handle(&mut self, ev: Ev, eng: &mut Engine<Self>) {
        self.dispatched.push(ev.id);
        let now = eng.now().as_nanos();
        for (kind, at) in kids_of(ev.kids, now) {
            let child = Ev {
                id: self.next_id,
                kids: 0,
            };
            self.next_id += 1;
            let at = SimTime::from_nanos(at);
            match kind {
                0 => eng.schedule(at, child),
                1 => {
                    let key = keyed_child(now, self.handles.len() as u64);
                    self.handles.push(eng.schedule_cancellable(at, key, child));
                }
                _ => eng.schedule_from(CHILD_ORIGIN, at, child),
            }
        }
    }
}

/// The specification: a `BTreeMap` ordered by the dispatch order itself,
/// `(at, OrderKey)`, with the engine's documented key rules — plain
/// schedules draw the global sequence number, origin-tagged ones their
/// origin's counter, both stamped with the scheduling instant; a
/// cancellable or injected event sits wherever the key it was given says.
#[derive(Default)]
struct Model {
    now: u64,
    executed: u64,
    seq: u64,
    origin_ctrs: BTreeMap<u32, u64>,
    queue: BTreeMap<(u64, OrderKey), Ev>,
    dispatched: Vec<u32>,
    next_id: u32,
    /// The position each of [`Sut::handles`] names, in the same order.
    cancellable: Vec<(u64, OrderKey)>,
}

impl Model {
    fn compat_key(&mut self) -> OrderKey {
        self.seq += 1;
        OrderKey {
            gen: self.now,
            origin: u32::MAX,
            ctr: self.seq,
        }
    }

    fn origin_key(&mut self, origin: u32) -> OrderKey {
        let ctr = self.origin_ctrs.entry(origin).or_default();
        *ctr += 1;
        OrderKey {
            gen: self.now,
            origin,
            ctr: *ctr,
        }
    }

    /// Queues an event (clamped to `now`, like the engine) and returns the
    /// position a later cancel removes.
    fn insert(&mut self, at: u64, key: OrderKey, kids: u8) -> (u64, OrderKey) {
        let pos = (at.max(self.now), key);
        let id = self.next_id;
        self.next_id += 1;
        let clash = self.queue.insert(pos, Ev { id, kids });
        assert!(clash.is_none(), "the oracle builds unique (origin, ctr)");
        pos
    }

    fn step(&mut self) -> bool {
        let Some(((at, _), ev)) = self.queue.pop_first() else {
            return false;
        };
        self.now = at;
        self.executed += 1;
        self.dispatched.push(ev.id);
        for (kind, at) in kids_of(ev.kids, self.now) {
            match kind {
                0 => {
                    let key = self.compat_key();
                    self.insert(at, key, 0);
                }
                1 => {
                    let key = keyed_child(self.now, self.cancellable.len() as u64);
                    let pos = self.insert(at, key, 0);
                    self.cancellable.push(pos);
                }
                _ => {
                    let key = self.origin_key(CHILD_ORIGIN);
                    self.insert(at, key, 0);
                }
            }
        }
        true
    }

    fn run_until(&mut self, deadline: u64) {
        while self
            .queue
            .first_key_value()
            .is_some_and(|(&(at, _), _)| at <= deadline)
        {
            self.step();
        }
    }

    fn next_event_at(&self) -> Option<SimTime> {
        self.queue
            .first_key_value()
            .map(|(&(at, _), _)| SimTime::from_nanos(at))
    }
}

/// Engine and model side by side, driven by one script.
struct CalendarOracle {
    eng: Engine<Sut>,
    sut: Sut,
    model: Model,
    foreign_ctr: u64,
}

impl CalendarOracle {
    fn new() -> Self {
        CalendarOracle {
            eng: Engine::new(),
            sut: Sut {
                dispatched: Vec::new(),
                next_id: 0,
                handles: Vec::new(),
            },
            model: Model::default(),
            foreign_ctr: 0,
        }
    }

    /// An absolute instant aimed at one of the calendar's boundaries as
    /// seen from `now`: this instant, a dense handful of instants beside
    /// it, the same slot, the slot edge, inside the block, the block edge
    /// (as aligned and as a distance) ± 1 ns, the coarse level, the coarse
    /// horizon (both ways) ± 1 ns, past it, and behind `now`.
    fn instant(&self, class: u8, jitter: u8) -> u64 {
        let now = self.model.now;
        let j = u64::from(jitter);
        let edge = |boundary: u64| boundary - 1 + j % 3;
        match class % 13 {
            0 => now,
            1 => now + j % 4,
            2 => now + 4 * j,
            3 => edge((now / GRAN + 1) * GRAN),
            4 => now + 2 * GRAN * j,
            5 => edge((now / BLOCK + 1) * BLOCK),
            6 => edge(now + BLOCK),
            7 => now + BLOCK + j * (COARSE / 256),
            8 => edge((now / BLOCK + 512) * BLOCK),
            9 => edge(now + COARSE),
            10 => now + COARSE + j * 3_000_000,
            11 => now.saturating_sub(100 * j),
            _ => now + 1_000 * j,
        }
    }

    /// A key some other engine built: everything but the `(origin, ctr)`
    /// pair may equal a local key's components, and `gen` may lie before
    /// `now` — by more than a fine slot when bit 7 of `jitter` is set, so
    /// before every entry an ordered cursor slot holds.
    fn foreign_key(&mut self, jitter: u8) -> OrderKey {
        self.foreign_ctr += 1;
        let now = self.model.now;
        let gen = [0, now, now.saturating_sub(5)][usize::from(jitter % 3)];
        OrderKey {
            gen: gen.saturating_sub(u64::from(jitter >> 7) * 2 * GRAN),
            origin: FOREIGN_ORIGIN + u32::from(jitter % 4),
            ctr: self.foreign_ctr,
        }
    }

    fn schedule(&mut self, how: u8, at: u64, kids: u8, jitter: u8) {
        let ev = Ev {
            id: self.sut.next_id,
            kids,
        };
        self.sut.next_id += 1;
        let t = SimTime::from_nanos(at);
        match how % 5 {
            0 => {
                self.eng.schedule(t, ev);
                let key = self.model.compat_key();
                self.model.insert(at, key, kids);
            }
            1 => {
                let origin = u32::from(jitter % 3);
                self.eng.schedule_from(origin, t, ev);
                let key = self.model.origin_key(origin);
                self.model.insert(at, key, kids);
            }
            2 => {
                // The wake's idiom: the origin's next key, re-stamped with
                // the instant some earlier event would have scheduled it.
                let origin = u32::from(jitter % 3);
                let gen = at.saturating_sub(u64::from(jitter) * 16);
                let key = OrderKey {
                    gen,
                    ..self.eng.make_key(origin)
                };
                self.sut
                    .handles
                    .push(self.eng.schedule_cancellable(t, key, ev));
                let spec = OrderKey {
                    gen,
                    ..self.model.origin_key(origin)
                };
                assert_eq!(key, spec, "make_key draws the origin's counter");
                let pos = self.model.insert(at, spec, kids);
                self.model.cancellable.push(pos);
            }
            how => {
                let key = self.foreign_key(jitter);
                let pos = self.model.insert(at, key, kids);
                if how == 3 {
                    self.sut
                        .handles
                        .push(self.eng.schedule_cancellable(t, key, ev));
                    self.model.cancellable.push(pos);
                } else {
                    self.eng.schedule_injected(t, key, ev);
                }
            }
        }
    }

    /// One script step. Bit 7 of `op` gives a scheduled event children;
    /// bit 6 makes [`CalendarOracle::check`] peek afterwards.
    fn apply(&mut self, (op, a, b, c): (u8, u8, u8, u8)) -> Result<(), TestCaseError> {
        match op % 16 {
            0..=7 => {
                let kids = if op & 0x80 != 0 { a >> 4 } else { 0 };
                self.schedule(a, self.instant(b, c), kids, c);
            }
            8 | 9 if !self.sut.handles.is_empty() => {
                let i = usize::from(a) % self.sut.handles.len();
                self.eng.cancel(self.sut.handles[i]);
                self.model.queue.remove(&self.model.cancellable[i]);
            }
            12 => {
                let deadline = self.instant(b, c);
                self.eng
                    .run_until(&mut self.sut, SimTime::from_nanos(deadline));
                self.model.run_until(deadline);
            }
            13 => {
                let end = self.instant(b, c);
                self.eng.run_window(&mut self.sut, SimTime::from_nanos(end));
                if let Some(deadline) = end.checked_sub(1) {
                    self.model.run_until(deadline);
                }
            }
            14 => {} // a bare peek: `check` does it
            15 if a < 32 => {
                self.eng.clear();
                self.model.queue.clear();
            }
            _ => {
                let ran = self.eng.step(&mut self.sut);
                prop_assert_eq!(ran, self.model.step(), "step's return value");
            }
        }
        Ok(())
    }

    /// Everything observable must agree. `next_event_at` moves the cursor
    /// and orders its slot (invisibly, if the calendar is right), so it is
    /// compared only when asked: peeking after every step would never leave
    /// a pop to do either by itself.
    fn check(&mut self, peek: bool) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            &self.sut.dispatched,
            &self.model.dispatched,
            "dispatch order"
        );
        prop_assert_eq!(self.eng.now().as_nanos(), self.model.now, "now()");
        prop_assert_eq!(self.eng.executed(), self.model.executed, "executed()");
        prop_assert_eq!(self.eng.pending(), self.model.queue.len(), "pending()");
        prop_assert_eq!(
            self.sut.handles.len(),
            self.model.cancellable.len(),
            "cancellable events issued"
        );
        if peek {
            prop_assert_eq!(
                self.eng.next_event_at(),
                self.model.next_event_at(),
                "next_event_at()"
            );
        }
        Ok(())
    }
}

proptest! {
    /// **The calendar is a `BTreeMap` over `(at, OrderKey)`.** Every way of
    /// scheduling (plain, origin-tagged, cancellable under a re-stamped
    /// local key or a foreign one, injected with a foreign key — the given
    /// keys reaching back before `now` and before what the ordered cursor
    /// slot holds), at instants aimed at every band boundary, from outside
    /// and from inside handlers, with cancels that
    /// come early, late and twice, interleaved with `step`, `run_until`,
    /// `run_window`, `next_event_at` and `clear`: after every single
    /// operation the engine has dispatched the same ids in the same order
    /// as the map, stands at the same `now()`, and reports the same
    /// `executed()`, `pending()` and (when peeked) `next_event_at()`. The
    /// check runs after each step, so a failure names the shortest failing
    /// prefix of its script.
    #[test]
    fn calendar_matches_a_btreemap(
        script in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..240,
        ),
    ) {
        let mut oracle = CalendarOracle::new();
        for (i, &step) in script.iter().enumerate() {
            let peek = step.0 % 16 == 14 || step.0 & 0x40 != 0;
            if let Err(e) = oracle.apply(step).and_then(|()| oracle.check(peek)) {
                prop_assert!(false, "after step {} of {:?}: {}", i, &script[..=i], e);
            }
        }
        // Drain what is left, far bands included.
        oracle.eng.run(&mut oracle.sut);
        oracle.model.run_until(u64::MAX);
        if let Err(e) = oracle.check(true) {
            prop_assert!(false, "draining after {:?}: {}", script, e);
        }
    }

    /// The engine executes events in nondecreasing time order, regardless
    /// of insertion order (including across the wheel/heap band split), and
    /// FIFO among equal timestamps.
    #[test]
    fn engine_is_a_priority_queue(times in proptest::collection::vec(0u64..600_000, 1..200)) {
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Log(Vec::new());
        for (i, &t) in times.iter().enumerate() {
            eng.schedule(SimTime::from_nanos(t), i);
        }
        eng.run(&mut log);
        let log = log.0;
        prop_assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO among ties");
            }
        }
    }

    /// run_until never executes an event past the deadline, and a
    /// subsequent run executes exactly the remainder — with deadlines and
    /// instants spanning both calendar bands.
    #[test]
    fn run_until_partitions_execution(times in proptest::collection::vec(0u64..600_000, 1..100), cut in 0u64..600_000) {
        let mut eng: Engine<Log> = Engine::new();
        let mut log = Log(Vec::new());
        for (i, &t) in times.iter().enumerate() {
            eng.schedule(SimTime::from_nanos(t), i);
        }
        eng.run_until(&mut log, SimTime::from_nanos(cut));
        let expect_first = times.iter().filter(|&&t| t <= cut).count();
        prop_assert_eq!(log.0.len(), expect_first);
        eng.run(&mut log);
        prop_assert_eq!(log.0.len(), times.len());
    }

    /// A BusyResource never overlaps grants and serves work conservatively:
    /// total busy time equals the sum of holds.
    #[test]
    fn busy_resource_non_overlap(reqs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100)) {
        let mut r = BusyResource::new();
        let mut prev_end = 0u64;
        let mut total = 0u64;
        // Requests must be made in nondecreasing request order for FIFO.
        let mut reqs = reqs;
        reqs.sort_by_key(|&(t, _)| t);
        for &(t, hold) in &reqs {
            let done = r.occupy(SimTime::from_nanos(t), SimDuration::from_nanos(hold));
            // Completion is after both the request and the previous grant.
            prop_assert!(done.as_nanos() >= t + hold);
            prop_assert!(done.as_nanos() >= prev_end + hold);
            prev_end = done.as_nanos();
            total += hold;
        }
        prop_assert_eq!(r.total_busy().as_nanos(), total);
        prop_assert_eq!(r.grants(), reqs.len() as u64);
    }

    /// FIFO mutex: grants never overlap and are ordered by request time.
    #[test]
    fn fifo_mutex_grants_are_serialized(reqs in proptest::collection::vec((0u64..10_000, 1u64..2_000), 1..80)) {
        let mut m = FifoMutex::new(&CostModel::morello());
        let mut reqs = reqs;
        reqs.sort_by_key(|&(t, _)| t);
        let mut prev_release = 0u64;
        let mut prev_acquire = 0u64;
        for &(t, hold) in &reqs {
            let g = m.acquire(SimTime::from_nanos(t), SimDuration::from_nanos(hold));
            prop_assert!(g.acquired_at.as_nanos() >= t, "no time travel");
            prop_assert!(g.acquired_at.as_nanos() >= prev_acquire, "FIFO order");
            prop_assert!(
                g.acquired_at.as_nanos() >= prev_release
                    || prev_release == 0,
                "no overlap with the previous critical section"
            );
            prop_assert!(g.released_at > g.acquired_at || hold == 0);
            prop_assert_eq!(g.contended, g.wait.as_nanos() > 0 || g.acquired_at.as_nanos() > t);
            prev_release = g.released_at.as_nanos();
            prev_acquire = g.acquired_at.as_nanos();
        }
        prop_assert_eq!(m.acquisitions(), reqs.len() as u64);
        prop_assert!(m.contentions() <= m.acquisitions());
    }

    /// Time arithmetic: (t + d) - t == d for all representable values.
    #[test]
    fn time_add_sub_inverse(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 4) {
        let ti = SimTime::from_nanos(t);
        let du = SimDuration::from_nanos(d);
        prop_assert_eq!((ti + du) - ti, du);
        prop_assert_eq!((ti + du) - du, ti);
    }

    /// Quantization is idempotent and floors.
    #[test]
    fn quantize_laws(t in 0u64..1_000_000, tick in 1u64..1_000) {
        let ti = SimTime::from_nanos(t);
        let tk = SimDuration::from_nanos(tick);
        let q = ti.quantize(tk);
        prop_assert!(q <= ti);
        prop_assert_eq!(q.quantize(tk), q, "idempotent");
        prop_assert_eq!(q.as_nanos() % tick, 0);
        prop_assert!(ti.as_nanos() - q.as_nanos() < tick);
    }

    /// Serialization time is monotone in bytes and inversely so in rate.
    #[test]
    fn wire_time_monotonicity(bytes in 1u64..100_000, rate in 1_000u64..10_000_000_000) {
        let d1 = SimDuration::for_bytes_at_rate(bytes, rate);
        let d2 = SimDuration::for_bytes_at_rate(bytes + 1, rate);
        prop_assert!(d2 >= d1);
        let d3 = SimDuration::for_bytes_at_rate(bytes, rate * 2);
        prop_assert!(d3 <= d1);
    }
}
