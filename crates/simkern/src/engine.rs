//! The event engine: a typed, allocation-free calendar queue over a world `W`.
//!
//! The engine owns no domain state — the scenario drivers in the `capnet`
//! crate define their own world structs holding the Intravisor, NICs, stacks
//! and apps. A world declares its event vocabulary through the [`World`]
//! trait: `type Event` is a small enum interpreted by [`World::handle`],
//! stored **inline** in a hierarchical timing wheel: a fine level of 512 slots
//! × 1024 ns for the ≈ 524 µs block the cursor is in, a coarse level of 512
//! slots × one block for the ≈ 268 ms after it (egress backlogs,
//! retransmission and delayed-ACK timers), and a binary heap only for what
//! lies further out (stop instants, TIME_WAIT, backed-off RTOs). Scheduling is
//! an O(1) push on either level; a coarse slot cascades into the fine level
//! when the cursor enters its block, and only the slot under the cursor is
//! ever ordered — once, when the cursor gets there. There is no second event
//! representation: every schedule stores a `W::Event` by value.
//!
//! # Dispatch order
//!
//! Dispatch follows the total order `(at, key)`, where `key` is an
//! [`OrderKey`] — the tie-break among same-instant events. An event that
//! must run at a particular place among those of its instant is scheduled
//! under the key of that place ([`Engine::schedule_cancellable`]).
//!
//! For plain [`Engine::schedule`] calls the key degenerates to a global
//! sequence number, so ties stay FIFO exactly as the previous engine ordered
//! them. Worlds that are **sharded across several engines** (the parallel
//! `NetSim`) instead schedule through [`Engine::schedule_from`], which builds
//! the key from *execution-invariant* components: the virtual instant the
//! scheduling event ran, the scheduling object's stable `origin` id, and a
//! per-origin emission counter. Two engines partitioning the same
//! world produce the same keys for the same events regardless of how the
//! partition interleaves, which is what makes a sharded run's merge order —
//! and therefore its wire behaviour — byte-identical to the single-engine
//! run (see `capnet-core`'s `tests/parallel_determinism.rs`).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A world drivable by the engine: the event vocabulary plus its interpreter.
///
/// `Event` should be a small plain enum — it is stored by value in the
/// calendar, so scheduling one allocates nothing.
pub trait World: Sized {
    /// The typed event vocabulary of this world.
    type Event;
    /// Interprets one event at its scheduled instant (`engine.now()`).
    fn handle(&mut self, ev: Self::Event, engine: &mut Engine<Self>);
}

/// The origin id carried by plain (non-[`Engine::schedule_from`]) schedules:
/// sorts after every explicit origin, and its `ctr` component is the global
/// sequence number, preserving the legacy FIFO tie-break.
const COMPAT_ORIGIN: u32 = u32::MAX;

/// The execution-invariant tie-break among same-instant events.
///
/// Components compare in order:
///
/// 1. `gen` — the virtual instant of the event that *scheduled* this one
///    (events scheduled earlier in virtual time dispatch first);
/// 2. `origin` — the stable id of the scheduling object, assigned by the
///    world (a sharded world must assign ids that are identical across
///    partitions);
/// 3. `ctr` — the origin's monotone emission counter (a single handler
///    emitting several events keeps their order).
///
/// Every component is derived from the scheduling event's own (by induction,
/// invariant) execution — never from engine-global state — so keys are
/// identical no matter how the world is partitioned across engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrderKey {
    /// Virtual instant of the scheduling event.
    pub gen: u64,
    /// Stable id of the scheduling object (`u32::MAX` for plain
    /// schedules).
    pub origin: u32,
    /// Per-origin monotone emission counter (the global sequence number for
    /// plain schedules).
    pub ctr: u64,
}

/// Identifies one scheduled typed event, for [`Engine::cancel`]: a slot of
/// the engine's token table plus the slot's generation when the event was
/// scheduled. The slot is recycled once its event leaves the calendar
/// (dispatched or reaped); a handle that outlives it names a generation
/// that no longer exists and cancels nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    slot: u32,
    gen: u32,
}

/// The `token` of an event no [`EventHandle`] names — every event but those
/// of [`Engine::schedule_cancellable`]. Such events are never tested for
/// cancellation.
const NO_TOKEN: u32 = u32::MAX;

/// One slot of the token table.
#[derive(Clone, Copy)]
struct Token {
    /// Bumped when the slot's event leaves the calendar.
    gen: u32,
    /// Set by [`Engine::cancel`]: the event is dropped where the calendar
    /// next meets it.
    cancelled: bool,
}

/// The cancellation state of every queued event that has a handle. An
/// event carries its slot index, so asking "was this cancelled?" is one
/// indexed byte load — no hashing. Slots are recycled through `free`, so
/// the table is as large as the most handles ever queued at once (live
/// plus cancelled-but-not-yet-reaped), not the number ever issued.
#[derive(Default)]
struct Tokens {
    slots: Vec<Token>,
    free: Vec<u32>,
    /// Cancelled events still physically queued (what [`Calendar::len`]
    /// subtracts).
    tombstones: usize,
    /// Cancelled events released so far ([`CalendarStats::reaped`]).
    reaped: u64,
}

impl Tokens {
    /// Claims a slot for a newly scheduled event.
    fn issue(&mut self) -> EventHandle {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Token {
                gen: 0,
                cancelled: false,
            });
            (self.slots.len() - 1) as u32
        });
        EventHandle {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Marks the handle's event cancelled; `false` (and no effect) when the
    /// event already left the calendar or was already cancelled.
    fn cancel(&mut self, handle: EventHandle) -> bool {
        let t = &mut self.slots[handle.slot as usize];
        if t.gen != handle.gen || t.cancelled {
            return false;
        }
        t.cancelled = true;
        self.tombstones += 1;
        true
    }

    fn is_cancelled(&self, token: u32) -> bool {
        token != NO_TOKEN && self.slots[token as usize].cancelled
    }

    /// Releases the event carrying `token` if it was cancelled: `true` when
    /// it was, and the caller drops the event where it found it.
    fn reap(&mut self, token: u32) -> bool {
        self.is_cancelled(token) && self.release(token)
    }

    /// The event carrying `token` left the calendar: recycles its slot and
    /// says whether the event had been cancelled (so must not dispatch).
    fn release(&mut self, token: u32) -> bool {
        if token == NO_TOKEN {
            return false;
        }
        let t = &mut self.slots[token as usize];
        let cancelled = std::mem::take(&mut t.cancelled);
        t.gen = t.gen.wrapping_add(1);
        self.free.push(token);
        self.tombstones -= usize::from(cancelled);
        self.reaped += u64::from(cancelled);
        cancelled
    }

    /// Every queued event is gone at once ([`Engine::clear`]): outstanding
    /// handles go stale, every slot is free again.
    fn clear(&mut self) {
        self.free.clear();
        for (i, t) in self.slots.iter_mut().enumerate() {
            t.cancelled = false;
            t.gen = t.gen.wrapping_add(1);
            self.free.push(i as u32);
        }
        self.tombstones = 0;
    }
}

struct Scheduled<W: World> {
    at: SimTime,
    /// Slot of the token table naming this event, or [`NO_TOKEN`].
    token: u32,
    key: OrderKey,
    event: W::Event,
}

impl<W: World> Scheduled<W> {
    /// The dispatch order `(at, key)`. Strict: `(origin, ctr)` is unique
    /// among queued events, so two entries never compare equal. Most pairs
    /// differ in `at`, one `u64`; the key is read on a tie.
    fn dispatch_cmp(&self, other: &Self) -> Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| self.key.cmp(&other.key))
    }
}

impl<W: World> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.dispatch_cmp(other) == Ordering::Equal
    }
}
impl<W: World> Eq for Scheduled<W> {}
impl<W: World> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W: World> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other.dispatch_cmp(self)
    }
}

/// log2 of the fine slot width in nanoseconds: 1024 ns, one or two
/// main-loop ticks per slot.
const GRAN_SHIFT: u32 = 10;
/// Slots per wheel level.
const SLOTS: usize = 512;
/// log2 of a block in nanoseconds. A block is one fine rotation (`SLOTS`
/// fine slots ≈ 524 µs) and the width of one coarse slot: poll-loop ticks,
/// wire hops and deliveries behind an egress backlog of up to ~40 MTU frames
/// stay on the fine level. Deeper queues do not: the star builders size each
/// egress queue at 64 frames per attached port (8 256 frames at star128), so
/// a hub-bound delivery can sit ~60 ms out, and a parked host's stack-timer
/// wake further still — both on the coarse level, whose rotation is `SLOTS`
/// blocks ≈ 268 ms.
const BLOCK_SHIFT: u32 = GRAN_SHIFT + SLOTS.trailing_zeros();

/// Exact work counters of one engine's calendar: where schedules went and
/// what keeping the dispatch order cost. They describe the engine that ran
/// — a sharded run sums its engines' — not the simulation, so unlike the
/// event total they may differ between worker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CalendarStats {
    /// Schedules filed on the fine level: in the cursor's ≈ 524 µs block.
    pub near: u64,
    /// Schedules filed on the coarse level: up to ≈ 268 ms ahead.
    pub coarse: u64,
    /// Schedules further ahead than that, pushed onto the overflow heap.
    pub overflow: u64,
    /// Dispatch-order comparisons made ordering cursor slots and inserting
    /// into ordered ones.
    pub compares: u64,
    /// Entries shifted by inserts into an ordered cursor slot.
    pub moved: u64,
    /// Entries handed to the fine level when the cursor entered their
    /// block, from the coarse level or the heap.
    pub cascaded: u64,
    /// Cancelled entries released, wherever the calendar met them.
    pub reaped: u64,
    /// The most entries the slot under the cursor ever held.
    pub max_slot: u64,
}

/// Which slots of one wheel level hold anything: lets the cursor jump to
/// the next occupied slot instead of stepping over the empty ones.
#[derive(Default)]
struct Occupancy([u64; SLOTS / 64]);

impl Occupancy {
    fn set(&mut self, slot: usize) {
        self.0[slot / 64] |= 1 << (slot % 64);
    }

    fn clear(&mut self, slot: usize) {
        self.0[slot / 64] &= !(1 << (slot % 64));
    }

    /// The first marked slot at or after `from`, without wrapping.
    fn next(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = *self.0.get(word)? & (!0 << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.0.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }
}

/// The calendar: two wheel levels and an overflow heap, selected by how far
/// ahead of the cursor an instant lies.
///
/// Time is cut into aligned blocks of `1 << BLOCK_SHIFT` ns. With the
/// cursor in block `c`:
/// * the **fine** level holds block `c` — and anything scheduled behind the
///   cursor, legal while `now` trails a partially drained slot, in the
///   cursor slot — one slot per `1 << GRAN_SHIFT` ns;
/// * **coarse** slot `k % SLOTS` holds block `k` for `c < k < c + SLOTS`,
///   unordered, and cascades into the fine slots when the cursor enters `k`;
/// * the **heap** takes what is `SLOTS` blocks or more ahead when scheduled
///   (iperf stop instants, fleet `open_end`, backed-off RTOs) and hands a
///   block's entries to the fine level at the same moment.
///
/// Invariants:
/// * `base`, the cursor, is the start of a fine slot and never decreases;
///   the fine slots behind it are empty;
/// * a level's `Occupancy` marks every nonempty slot (the fine one may
///   still mark the cursor slot after it drained);
/// * while `sorted`, the cursor slot is in dispatch order, earliest at the
///   end; every other slot is unordered.
struct Calendar<W: World> {
    fine: Vec<Vec<Scheduled<W>>>,
    fine_map: Occupancy,
    coarse: Vec<Vec<Scheduled<W>>>,
    coarse_map: Occupancy,
    /// Entries on the two wheel levels, cancelled ones included.
    wheel_len: usize,
    base: u64,
    /// The cursor slot has been put in dispatch order. A pop or a peek
    /// orders the slot once, when it first looks at it; until the cursor
    /// moves on, a schedule into the slot is inserted in place.
    sorted: bool,
    heap: BinaryHeap<Scheduled<W>>,
    /// Cancellation state of the queued events that have a handle;
    /// cancelled events are removed lazily, when the cursor, a cascade or
    /// a peek reaches them ([`Engine::cancel`]).
    tokens: Tokens,
    /// Memoized earliest-live-event instant (a sharded driver polls it
    /// every window round); invalidated by pops, cancellations and any
    /// push that could undercut it.
    next_cache: Option<SimTime>,
    /// All but `reaped`, which [`Tokens`] counts where it releases.
    stats: CalendarStats,
}

impl<W: World> Calendar<W> {
    fn new() -> Self {
        Calendar {
            fine: (0..SLOTS).map(|_| Vec::new()).collect(),
            fine_map: Occupancy::default(),
            coarse: (0..SLOTS).map(|_| Vec::new()).collect(),
            coarse_map: Occupancy::default(),
            wheel_len: 0,
            base: 0,
            sorted: false,
            heap: BinaryHeap::new(),
            tokens: Tokens::default(),
            next_cache: None,
            stats: CalendarStats::default(),
        }
    }

    fn len(&self) -> usize {
        self.wheel_len + self.heap.len() - self.tokens.tombstones
    }

    /// The fine slot of instant `at`.
    fn slot_of(at: u64) -> usize {
        (at >> GRAN_SHIFT) as usize % SLOTS
    }

    fn push(&mut self, ev: Scheduled<W>) {
        if self.next_cache.is_some_and(|c| ev.at < c) {
            self.next_cache = None;
        }
        let block = ev.at.as_nanos() >> BLOCK_SHIFT;
        let cursor = self.base >> BLOCK_SHIFT;
        if block <= cursor {
            // One at or behind the cursor lands in the cursor slot, where
            // its real instant orders it.
            let idx = Self::slot_of(ev.at.as_nanos().max(self.base));
            let slot = &mut self.fine[idx];
            if self.sorted && idx == Self::slot_of(self.base) {
                // Ahead of the entries that dispatch before it — few of
                // what remains do: a handler schedules an instant or two
                // after `now`, so the insert moves next to nothing.
                let stats = &mut self.stats;
                let pos = slot.partition_point(|e| {
                    stats.compares += 1;
                    e.dispatch_cmp(&ev) == Ordering::Greater
                });
                stats.moved += (slot.len() - pos) as u64;
                slot.insert(pos, ev);
                stats.max_slot = stats.max_slot.max(slot.len() as u64);
            } else {
                slot.push(ev);
            }
            self.fine_map.set(idx);
            self.wheel_len += 1;
            self.stats.near += 1;
        } else if block - cursor < SLOTS as u64 {
            let slot = block as usize % SLOTS;
            self.coarse[slot].push(ev);
            self.coarse_map.set(slot);
            self.wheel_len += 1;
            self.stats.coarse += 1;
        } else {
            self.heap.push(ev);
            self.stats.overflow += 1;
        }
    }

    /// Moves the cursor to the first nonempty fine slot at or after it;
    /// `false` when the block has drained.
    fn seek(&mut self) -> bool {
        let cursor = Self::slot_of(self.base);
        if !self.fine[cursor].is_empty() {
            return true;
        }
        self.fine_map.clear(cursor);
        let Some(idx) = self.fine_map.next(cursor + 1) else {
            return false;
        };
        self.base = (self.base >> BLOCK_SHIFT << BLOCK_SHIFT) | (idx as u64) << GRAN_SHIFT;
        self.sorted = false;
        true
    }

    /// The first occupied coarse block after `after`, if the level holds
    /// one: a circular walk from `after`'s slot that stops at the cursor's.
    fn next_coarse(&self, after: u64) -> Option<u64> {
        let from = (after + 1) as usize % SLOTS;
        let slot = self
            .coarse_map
            .next(from)
            .or_else(|| self.coarse_map.next(0))?;
        let block = after + 1 + ((slot + SLOTS - from) % SLOTS) as u64;
        (block < (self.base >> BLOCK_SHIFT) + SLOTS as u64).then_some(block)
    }

    /// Moves the cursor to the start of `block` — the earliest that holds
    /// anything, the fine level being empty — and files what waited for it,
    /// on the coarse level or in the heap, in its fine slots: unordered,
    /// like any slot the cursor has not looked at. Cancelled entries are
    /// released here instead.
    fn enter_block(&mut self, block: u64) {
        self.base = block << BLOCK_SHIFT;
        self.sorted = false;
        let slot = block as usize % SLOTS;
        self.coarse_map.clear(slot);
        // The slot's allocation goes with its entries: it is next used a
        // whole rotation from now.
        let mut waiting = std::mem::take(&mut self.coarse[slot]);
        self.wheel_len -= waiting.len();
        while matches!(self.heap.peek(), Some(top) if top.at.as_nanos() >> BLOCK_SHIFT == block) {
            waiting.extend(self.heap.pop());
        }
        for ev in waiting {
            if !self.tokens.reap(ev.token) {
                let idx = Self::slot_of(ev.at.as_nanos());
                self.fine[idx].push(ev);
                self.fine_map.set(idx);
                self.wheel_len += 1;
                self.stats.cascaded += 1;
            }
        }
    }

    /// The cursor slot, in dispatch order: earliest last, so pops take the
    /// end.
    fn cursor_slot(&mut self) -> &mut Vec<Scheduled<W>> {
        let slot = &mut self.fine[Self::slot_of(self.base)];
        if !self.sorted {
            self.sorted = true;
            let stats = &mut self.stats;
            stats.max_slot = stats.max_slot.max(slot.len() as u64);
            if slot.len() > 1 {
                slot.sort_unstable_by(|a, b| {
                    stats.compares += 1;
                    b.dispatch_cmp(a)
                });
            }
        }
        slot
    }

    /// Pops the globally earliest live event if its instant is `<= deadline`.
    fn pop_if(&mut self, deadline: SimTime) -> Option<Scheduled<W>> {
        loop {
            if !self.seek() {
                // The next block that holds anything (a heap entry is
                // always past the cursor's), entered only if the deadline
                // reaches into it: the cursor must not strand ahead of `now`.
                let heap = self.heap.peek().map(|top| top.at.as_nanos() >> BLOCK_SHIFT);
                let coarse = self.next_coarse(self.base >> BLOCK_SHIFT);
                let block = coarse.into_iter().chain(heap).min()?;
                if block << BLOCK_SHIFT > deadline.as_nanos() {
                    return None;
                }
                self.enter_block(block);
                continue;
            }
            let slot = self.cursor_slot();
            if slot.last().expect("seek stops at an entry").at > deadline {
                return None;
            }
            let ev = slot.pop().expect("seek stops at an entry");
            self.wheel_len -= 1;
            if self.tokens.release(ev.token) {
                continue;
            }
            self.next_cache = None;
            return Some(ev);
        }
    }

    /// The instant of the earliest live event, without removing it. Moves
    /// the cursor within its block and orders the slot it stops at (both
    /// invisible to dispatch), and releases the cancelled entries it meets
    /// before that event.
    fn peek_next_at(&mut self) -> Option<SimTime> {
        if let Some(c) = self.next_cache {
            return Some(c);
        }
        let next = self.peek_next_at_uncached();
        self.next_cache = next;
        next
    }

    fn peek_next_at_uncached(&mut self) -> Option<SimTime> {
        while self.seek() {
            let next = self.cursor_slot().last().expect("seek stops at an entry");
            let (at, token) = (next.at, next.token);
            if !self.tokens.reap(token) {
                return Some(at);
            }
            self.cursor_slot().pop();
            self.wheel_len -= 1;
        }
        // The block has drained. The answer lies beyond it and is read in
        // place: a peek that entered a block would strand the cursor ahead
        // of `now`, and every schedule until `now` caught up would crowd
        // into the cursor slot.
        while let Some(top) = self.heap.peek() {
            if !self.tokens.reap(top.token) {
                break;
            }
            self.heap.pop();
        }
        let heap = self.heap.peek().map(|top| top.at);
        // Coarse blocks are in time order: the first with a live entry
        // holds the level's earliest. Tombstones on the way are released,
        // so no peek reads them twice.
        let mut block = self.base >> BLOCK_SHIFT;
        while let Some(next) = self.next_coarse(block) {
            block = next;
            let idx = block as usize % SLOTS;
            let (slot, tokens) = (&mut self.coarse[idx], &mut self.tokens);
            let held = slot.len();
            slot.retain(|e| !tokens.reap(e.token));
            self.wheel_len -= held - slot.len();
            match slot.iter().map(|e| e.at).min() {
                Some(at) => return Some(heap.map_or(at, |h| h.min(at))),
                None => self.coarse_map.clear(idx),
            }
        }
        heap
    }

    fn clear(&mut self) {
        self.fine.iter_mut().for_each(Vec::clear);
        self.coarse.iter_mut().for_each(Vec::clear);
        self.fine_map = Occupancy::default();
        self.coarse_map = Occupancy::default();
        self.wheel_len = 0;
        self.heap.clear();
        self.tokens.clear();
        self.next_cache = None;
    }
}

/// A discrete-event engine over a caller-owned world type `W`.
///
/// # Example
///
/// A typed world: the event enum is stored inline in the calendar, so the
/// steady state of a simulation schedules without allocating.
///
/// ```
/// use simkern::engine::{Engine, World};
/// use simkern::time::{SimDuration, SimTime};
///
/// struct Counter { ticks: u32 }
/// enum Ev { Tick }
///
/// impl World for Counter {
///     type Event = Ev;
///     fn handle(&mut self, ev: Ev, eng: &mut Engine<Self>) {
///         let Ev::Tick = ev;
///         self.ticks += 1;
///         if self.ticks < 10 {
///             eng.schedule_in(SimDuration::from_nanos(100), Ev::Tick);
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// let mut world = Counter { ticks: 0 };
/// engine.schedule(SimTime::ZERO, Ev::Tick);
/// engine.run(&mut world);
/// assert_eq!(world.ticks, 10);
/// ```
///
/// Events dispatch in time order, whatever order they were scheduled in:
///
/// ```
/// use simkern::engine::{Engine, World};
/// use simkern::time::SimTime;
///
/// struct Small(u32);
/// enum Ev { Add(u32), Double }
/// impl World for Small {
///     type Event = Ev;
///     fn handle(&mut self, ev: Ev, _: &mut Engine<Self>) {
///         match ev {
///             Ev::Add(n) => self.0 += n,
///             Ev::Double => self.0 *= 2,
///         }
///     }
/// }
///
/// let mut engine: Engine<Small> = Engine::new();
/// let mut w = Small(0);
/// engine.schedule(SimTime::from_nanos(10), Ev::Double);
/// engine.schedule(SimTime::from_nanos(5), Ev::Add(10));
/// engine.run(&mut w);
/// assert_eq!(w.0, 20);
/// ```
pub struct Engine<W: World> {
    now: SimTime,
    seq: u64,
    /// Key of the event currently dispatching ([`Engine::current_key`]).
    cur_key: OrderKey,
    /// Per-origin emission counters for [`Engine::schedule_from`].
    origin_ctrs: Vec<u64>,
    queue: Calendar<W>,
    executed: u64,
    event_cap: u64,
}

impl<W: World> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl<W: World> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W: World> Engine<W> {
    /// A generous default runaway guard (see [`Engine::set_event_cap`]).
    pub const DEFAULT_EVENT_CAP: u64 = 2_000_000_000;

    /// Creates an engine at virtual time zero with an empty calendar.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            seq: 0,
            cur_key: OrderKey {
                gen: 0,
                origin: COMPAT_ORIGIN,
                ctr: 0,
            },
            origin_ctrs: Vec::new(),
            queue: Calendar::new(),
            executed: 0,
            event_cap: Self::DEFAULT_EVENT_CAP,
        }
    }

    /// The current virtual instant (the timestamp of the running event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// What the calendar has done so far: schedules by band and the exact
    /// work of keeping them in dispatch order.
    pub fn calendar_stats(&self) -> CalendarStats {
        CalendarStats {
            reaped: self.queue.tokens.reaped,
            ..self.queue.stats
        }
    }

    /// Caps the number of events a run may execute, as a guard against
    /// accidentally non-terminating schedules in tests. Both [`Engine::run`]
    /// / [`Engine::run_until`] and single-stepping via [`Engine::step`]
    /// count against the cap.
    pub fn set_event_cap(&mut self, cap: u64) {
        self.event_cap = cap;
    }

    fn push(&mut self, at: SimTime, token: u32, key: OrderKey, event: W::Event) {
        let at = at.max(self.now);
        self.queue.push(Scheduled {
            at,
            token,
            key,
            event,
        });
    }

    /// The legacy key for plain schedules: generation components plus the
    /// global sequence number, preserving FIFO among same-instant ties.
    fn compat_key(&mut self) -> OrderKey {
        self.seq += 1;
        OrderKey {
            gen: self.now.as_nanos(),
            origin: COMPAT_ORIGIN,
            ctr: self.seq,
        }
    }

    /// The execution-invariant key for origin-tagged schedules.
    fn origin_key(&mut self, origin: u32) -> OrderKey {
        // Origins index a dense per-origin counter table; a huge id (or
        // the reserved compat origin) is a caller bug that would otherwise
        // surface as a giant allocation.
        debug_assert!(
            origin < COMPAT_ORIGIN,
            "origin {origin} is reserved / not a dense object id"
        );
        let idx = origin as usize;
        if idx >= self.origin_ctrs.len() {
            self.origin_ctrs.resize(idx + 1, 0);
        }
        self.origin_ctrs[idx] += 1;
        OrderKey {
            gen: self.now.as_nanos(),
            origin,
            ctr: self.origin_ctrs[idx],
        }
    }

    /// Schedules a typed event at instant `at` (allocation-free).
    ///
    /// Events scheduled in the past of the current event are executed at the
    /// current instant instead (time never goes backwards); this matches how
    /// a hardware completion that "already happened" is observed at poll time.
    pub fn schedule(&mut self, at: SimTime, ev: W::Event) {
        let key = self.compat_key();
        self.push(at, NO_TOKEN, key, ev);
    }

    /// Schedules a typed event `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, ev: W::Event) {
        let at = self.now + delay;
        self.schedule(at, ev);
    }

    /// Schedules a typed event at `at` with an execution-invariant
    /// [`OrderKey`] built from `origin` (the scheduling object's stable id,
    /// below [`u32::MAX`]). Same-instant ties then resolve identically no
    /// matter how the world is sharded across engines.
    pub fn schedule_from(&mut self, origin: u32, at: SimTime, ev: W::Event) {
        let key = self.origin_key(origin);
        self.push(at, NO_TOKEN, key, ev);
    }

    /// Schedules a typed event carrying a key built by *another* engine —
    /// how a sharded world injects a peer shard's cross-boundary events so
    /// the merged dispatch order matches the single-engine run.
    pub fn schedule_injected(&mut self, at: SimTime, key: OrderKey, ev: W::Event) {
        self.push(at, NO_TOKEN, key, ev);
    }

    /// Schedules a typed event at `at` under a key the caller chose — it
    /// dispatches at that key's place among the events of its instant,
    /// whatever the scheduling order — and returns a cancellation handle.
    /// This is the one cancellable schedule (a parked loop's wake tick,
    /// keyed as the polling iteration it stands for, is what a world
    /// supersedes), so only its events carry a token; every other event
    /// skips the cancellation test altogether. A key at `now` must not
    /// sort before [`Engine::current_key`]: the order has no past.
    pub fn schedule_cancellable(
        &mut self,
        at: SimTime,
        key: OrderKey,
        ev: W::Event,
    ) -> EventHandle {
        let handle = self.queue.tokens.issue();
        self.push(at, handle.slot, key, ev);
        handle
    }

    /// Builds (and consumes) the next [`OrderKey`] for `origin` without
    /// scheduling anything locally — for events this world hands to a
    /// *peer* engine ([`Engine::schedule_injected`]) or files under an
    /// adjusted key ([`Engine::schedule_cancellable`]). The per-origin
    /// counter advances exactly as a local [`Engine::schedule_from`] would,
    /// so an origin emitting a mix of local and cross-engine events
    /// produces the same key sequence the single-engine run assigns.
    pub fn make_key(&mut self, origin: u32) -> OrderKey {
        self.origin_key(origin)
    }

    /// The [`OrderKey`] of the event currently dispatching — a handler can
    /// record it to reproduce the global dispatch order of its event later
    /// (the sharded trace-digest merge).
    pub fn current_key(&self) -> OrderKey {
        self.cur_key
    }

    /// Cancels a pending typed event scheduled with
    /// [`Engine::schedule_cancellable`]: the event is unlinked from the
    /// calendar (lazily — its token is flagged and the event dropped when
    /// the cursor, a cascade or a peek reaches it) and will never dispatch
    /// nor count as executed; [`Engine::pending`] stops counting it at once.
    /// Cancelling a handle twice, or after its event dispatched, is a
    /// no-op: the handle's token generation no longer matches.
    pub fn cancel(&mut self, handle: EventHandle) {
        if self.queue.tokens.cancel(handle) {
            self.queue.next_cache = None;
        }
    }

    /// Runs events until the calendar is empty.
    ///
    /// # Panics
    ///
    /// Panics if the event cap is exceeded (runaway schedule).
    pub fn run(&mut self, world: &mut W) {
        self.run_until(world, SimTime::MAX);
    }

    fn dispatch(&mut self, world: &mut W, ev: Scheduled<W>) {
        self.now = ev.at;
        self.cur_key = ev.key;
        self.executed += 1;
        assert!(
            self.executed <= self.event_cap,
            "simulation exceeded event cap of {} events at t={}",
            self.event_cap,
            self.now
        );
        world.handle(ev.event, self);
    }

    /// Runs events with timestamps `<= deadline`, then stops.
    ///
    /// The virtual clock is left at the later of the last executed event and
    /// any previous `now` — it does *not* jump to `deadline`, so interleaved
    /// `run_until` calls compose.
    ///
    /// # Panics
    ///
    /// Panics if the event cap is exceeded (runaway schedule).
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) {
        while let Some(ev) = self.queue.pop_if(deadline) {
            self.dispatch(world, ev);
        }
    }

    /// Runs events with timestamps **strictly before** `end`, then stops —
    /// one lookahead window of a sharded run. Equivalent to
    /// [`Engine::run_until`] with an inclusive deadline of `end − 1 ns`.
    ///
    /// # Panics
    ///
    /// Panics if the event cap is exceeded (runaway schedule).
    pub fn run_window(&mut self, world: &mut W, end: SimTime) {
        let Some(deadline) = end.as_nanos().checked_sub(1) else {
            return;
        };
        self.run_until(world, SimTime::from_nanos(deadline));
    }

    /// The instant of the earliest pending event, if any — what a sharded
    /// driver uses to fast-forward over windows in which this engine has
    /// nothing to do.
    pub fn next_event_at(&mut self) -> Option<SimTime> {
        self.queue.peek_next_at()
    }

    /// Runs exactly one event if one is pending, returning `true` if it ran.
    ///
    /// # Panics
    ///
    /// Panics if the event cap is exceeded — stepping counts against the cap
    /// exactly as [`Engine::run_until`] does.
    pub fn step(&mut self, world: &mut W) -> bool {
        match self.queue.pop_if(SimTime::MAX) {
            Some(ev) => {
                self.dispatch(world, ev);
                true
            }
            None => false,
        }
    }

    /// Discards all pending events (used when tearing a scenario down).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    /// The typed test world: a log of marks, and the few things the
    /// ordering tests need a handler to do.
    struct Log(Vec<u32>);
    enum Tag {
        /// Log the value.
        Mark(u32),
        /// Schedule each `(at_ns, event)` in order, then log the current
        /// instant (ns).
        Spawn(Vec<(u64, Tag)>),
        /// Reschedule itself 1 ns out, forever.
        Forever,
    }
    impl World for Log {
        type Event = Tag;
        fn handle(&mut self, ev: Tag, eng: &mut Engine<Self>) {
            match ev {
                Tag::Mark(v) => self.0.push(v),
                Tag::Spawn(children) => {
                    for (at, child) in children {
                        eng.schedule(SimTime::from_nanos(at), child);
                    }
                    self.0.push(eng.now().as_nanos() as u32);
                }
                Tag::Forever => eng.schedule_in(SimDuration::from_nanos(1), Tag::Forever),
            }
        }
    }

    /// A cancellable schedule under `origin`'s next key, as a world that
    /// does not adjust the key makes it.
    fn cancellable(eng: &mut Engine<Log>, origin: u32, at: SimTime, ev: Tag) -> EventHandle {
        let key = eng.make_key(origin);
        eng.schedule_cancellable(at, key, ev)
    }

    #[test]
    fn events_run_in_time_order() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        eng.schedule(SimTime::from_nanos(30), Tag::Mark(3));
        eng.schedule(SimTime::from_nanos(10), Tag::Mark(1));
        eng.schedule(SimTime::from_nanos(20), Tag::Mark(2));
        eng.run(&mut w);
        assert_eq!(w.0, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_events_are_fifo() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        for i in 0..5 {
            eng.schedule(SimTime::from_nanos(7), Tag::Mark(i));
        }
        eng.run(&mut w);
        assert_eq!(w.0, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn handlers_can_reschedule_themselves() {
        struct W {
            count: u32,
        }
        enum Ev {
            Tick,
        }
        impl World for W {
            type Event = Ev;
            fn handle(&mut self, ev: Ev, eng: &mut Engine<Self>) {
                let Ev::Tick = ev;
                self.count += 1;
                if self.count < 10 {
                    eng.schedule_in(SimDuration::from_nanos(100), Ev::Tick);
                }
            }
        }
        let mut eng = Engine::new();
        let mut w = W { count: 0 };
        eng.schedule(SimTime::ZERO, Ev::Tick);
        eng.run(&mut w);
        assert_eq!(w.count, 10);
        assert_eq!(eng.now(), SimTime::from_nanos(900));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        for i in 1..=10u64 {
            eng.schedule(SimTime::from_nanos(i * 10), Tag::Mark(0));
        }
        eng.run_until(&mut w, SimTime::from_nanos(50));
        assert_eq!(w.0.len(), 5);
        assert_eq!(eng.pending(), 5);
        eng.run(&mut w);
        assert_eq!(w.0.len(), 10);
    }

    #[test]
    fn run_window_excludes_the_end_instant() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        for i in 1..=10u64 {
            eng.schedule(SimTime::from_nanos(i * 10), Tag::Mark(0));
        }
        eng.run_window(&mut w, SimTime::from_nanos(50));
        assert_eq!(
            w.0.len(),
            4,
            "the event at exactly 50 ns belongs to the next window"
        );
        eng.run_window(&mut w, SimTime::ZERO); // empty window: no-op
        assert_eq!(w.0.len(), 4);
        eng.run(&mut w);
        assert_eq!(w.0.len(), 10);
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        // Scheduling "in the past" executes at the current instant.
        eng.schedule(
            SimTime::from_nanos(100),
            Tag::Spawn(vec![(1, Tag::Spawn(vec![]))]),
        );
        eng.run(&mut w);
        assert_eq!(w.0, vec![100, 100]);
    }

    #[test]
    #[should_panic(expected = "event cap")]
    fn runaway_schedules_trip_the_cap() {
        let mut eng: Engine<Log> = Engine::new();
        eng.set_event_cap(1_000);
        eng.schedule(SimTime::ZERO, Tag::Forever);
        eng.run(&mut Log(Vec::new()));
    }

    /// Regression: `step` used to bypass the event-cap guard that
    /// `run_until` enforced, so a runaway schedule driven one event at a
    /// time never tripped the cap.
    #[test]
    #[should_panic(expected = "event cap")]
    fn stepping_counts_against_the_cap() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        eng.set_event_cap(100);
        eng.schedule(SimTime::ZERO, Tag::Forever);
        while eng.step(&mut w) {}
    }

    #[test]
    fn step_runs_one_event() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        eng.schedule(SimTime::from_nanos(1), Tag::Mark(1));
        eng.schedule(SimTime::from_nanos(2), Tag::Mark(2));
        assert!(eng.step(&mut w));
        assert_eq!(w.0, vec![1]);
        eng.clear();
        assert!(!eng.step(&mut w));
    }

    /// One block (a fine rotation) and one coarse rotation, in ns.
    const BLOCK: u64 = 1 << BLOCK_SHIFT;
    const ROTATION: u64 = BLOCK * SLOTS as u64;

    /// Instants beyond the cursor's block wait on the coarse level, those a
    /// coarse rotation or more ahead in the heap; both reach the fine level
    /// when the cursor enters their block — order is unaffected.
    #[test]
    fn heap_band_overflow_preserves_order() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        // Past the coarse rotation (≈ 268 ms), scheduled first.
        eng.schedule(SimTime::from_millis(900), Tag::Mark(7));
        eng.schedule(SimTime::from_millis(300), Tag::Mark(6));
        assert_eq!((eng.queue.wheel_len, eng.queue.heap.len()), (0, 2));
        // Coarse level (≫ 524 µs).
        eng.schedule(SimTime::from_millis(50), Tag::Mark(5));
        eng.schedule(SimTime::from_millis(10), Tag::Mark(3));
        assert_eq!((eng.queue.wheel_len, eng.queue.heap.len()), (2, 2));
        assert!(eng.queue.fine.iter().all(|slot| slot.is_empty()));
        // Fine level.
        eng.schedule(SimTime::from_nanos(900), Tag::Mark(1));
        eng.schedule(SimTime::from_micros(200), Tag::Mark(2));
        // In the block of the 10 ms event, not in the cursor's.
        eng.schedule(
            SimTime::from_millis(10) + SimDuration::from_micros(100),
            Tag::Mark(4),
        );
        eng.run(&mut w);
        assert_eq!(w.0, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    /// The last nanosecond of a block and the first of the next live on
    /// different levels, as do the two sides of the coarse horizon.
    #[test]
    fn band_boundaries_are_exact() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        let fine = |eng: &Engine<Log>| eng.queue.fine.iter().map(|s| s.len()).sum::<usize>();
        eng.schedule(SimTime::from_nanos(ROTATION), Tag::Mark(4));
        assert_eq!((eng.queue.wheel_len, eng.queue.heap.len()), (0, 1));
        eng.schedule(SimTime::from_nanos(ROTATION - 1), Tag::Mark(3));
        eng.schedule(SimTime::from_nanos(BLOCK), Tag::Mark(2));
        assert_eq!((eng.queue.wheel_len, fine(&eng)), (2, 0));
        eng.schedule(SimTime::from_nanos(BLOCK - 1), Tag::Mark(1));
        assert_eq!((eng.queue.wheel_len, fine(&eng)), (3, 1));
        // A window ending on the block edge runs the near side only, even
        // though looking for more entered nothing.
        eng.run_window(&mut w, SimTime::from_nanos(BLOCK));
        assert_eq!(w.0, vec![1]);
        // One whose last instant is the edge enters the block, cascades
        // it, and stops at the entry just past its end.
        eng.schedule(SimTime::from_nanos(BLOCK + 5), Tag::Mark(20));
        eng.run_window(&mut w, SimTime::from_nanos(BLOCK + 5));
        assert_eq!(w.0, vec![1, 2]);
        assert_eq!(fine(&eng), 1);
        eng.run(&mut w);
        assert_eq!(w.0, vec![1, 2, 20, 3, 4]);
    }

    /// With nothing else queued, a lone far event is found from the
    /// occupancy maps: the cursor lands on its slot without visiting the
    /// empty ones in between.
    #[test]
    fn a_lone_far_event_is_reached_by_jumping() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        let at = SimTime::from_millis(1);
        eng.schedule(at, Tag::Mark(1));
        assert_eq!(eng.next_event_at(), Some(at));
        assert_eq!(eng.queue.base, 0, "a peek reads the coarse level in place");
        assert!(eng.step(&mut w));
        assert_eq!(eng.queue.base, at.as_nanos() >> GRAN_SHIFT << GRAN_SHIFT);
        assert_eq!((eng.now(), eng.pending()), (at, 0));
    }

    /// A handler scheduling into its own (partially drained, already
    /// ordered) slot keeps the total order.
    #[test]
    fn rescheduling_into_the_cursor_slot_is_ordered() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        // Both children are inserted into the handler's own slot; they are
        // ordered purely by (at, seq): 600 < 700.
        eng.schedule(
            SimTime::from_nanos(512),
            Tag::Spawn(vec![(700, Tag::Mark(2)), (600, Tag::Mark(3))]),
        );
        eng.run(&mut w);
        assert_eq!(w.0, vec![512, 3, 2]);
    }

    /// A cancellable event dispatches at its key's place among the events
    /// of its instant — before a later-keyed one, after an earlier-keyed
    /// one — whether it was scheduled first or last.
    #[test]
    fn a_cancellable_event_dispatches_at_its_keys_place() {
        let t = SimTime::from_nanos(500);
        let key = |gen, origin| OrderKey {
            gen,
            origin,
            ctr: 1,
        };
        for keyed_first in [true, false] {
            let mut eng: Engine<Log> = Engine::new();
            let mut w = Log(Vec::new());
            if keyed_first {
                eng.schedule_cancellable(t, key(40, 2), Tag::Mark(2));
            }
            eng.schedule_injected(t, key(40, 3), Tag::Mark(3));
            eng.schedule_injected(t, key(39, 9), Tag::Mark(1));
            // Plain schedules carry `gen = now = 0` here.
            eng.schedule(t, Tag::Mark(0));
            if !keyed_first {
                eng.schedule_cancellable(t, key(40, 2), Tag::Mark(2));
            }
            eng.run(&mut w);
            assert_eq!(w.0, vec![0, 1, 2, 3], "keyed first: {keyed_first}");
        }
    }

    /// Same-instant origin-keyed events order by (gen, origin, ctr) — not by
    /// scheduling order.
    #[test]
    fn origin_keys_order_same_instant_ties_invariantly() {
        let t = SimTime::from_nanos(100);
        // Schedule origin 2 first, then origin 1: origin order wins.
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        eng.schedule_from(2, t, Tag::Mark(2));
        eng.schedule_from(1, t, Tag::Mark(1));
        eng.schedule_from(1, t, Tag::Mark(11)); // same origin: ctr keeps order
        eng.run(&mut w);
        assert_eq!(w.0, vec![1, 11, 2]);
    }

    /// An injected event (foreign key) interleaves exactly where the key
    /// says, regardless of injection order.
    #[test]
    fn injected_keys_interleave_by_key() {
        let t = SimTime::from_nanos(64);
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        eng.schedule_from(5, t, Tag::Mark(5));
        // A key another engine would have built for origin 3's first
        // emission at gen 0: sorts before origin 5.
        eng.schedule_injected(
            t,
            OrderKey {
                gen: 0,
                origin: 3,
                ctr: 1,
            },
            Tag::Mark(3),
        );
        eng.run(&mut w);
        assert_eq!(w.0, vec![3, 5]);
    }

    /// A cancelled event never dispatches and never counts as executed —
    /// in a fine slot, on the coarse level and in the heap alike — and
    /// `pending()` is exact after every step.
    #[test]
    fn cancelled_events_never_dispatch() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        let near = cancellable(&mut eng, 1, SimTime::from_nanos(50), Tag::Mark(1));
        let mid = cancellable(&mut eng, 1, SimTime::from_millis(10), Tag::Mark(2));
        let far = cancellable(&mut eng, 1, SimTime::from_nanos(2 * ROTATION), Tag::Mark(4));
        assert_eq!((eng.queue.wheel_len, eng.queue.heap.len()), (2, 1));
        eng.schedule_from(1, SimTime::from_nanos(60), Tag::Mark(3));
        assert_eq!(eng.pending(), 4);
        eng.cancel(near);
        assert_eq!(eng.pending(), 3, "a cancelled event leaves the live count");
        eng.cancel(mid);
        eng.cancel(far);
        assert_eq!(eng.pending(), 1);
        eng.run(&mut w);
        assert_eq!(w.0, vec![3]);
        assert_eq!(eng.executed(), 1, "cancelled events do not execute");
        assert_eq!(eng.pending(), 0);
        // The run entered both far blocks and released the tombstones there.
        assert_eq!((eng.queue.wheel_len, eng.queue.heap.len()), (0, 0));
        assert_eq!(eng.queue.tokens.tombstones, 0);
        assert_eq!(eng.queue.tokens.free.len(), 3, "each slot came back once");
    }

    /// Cancelling a handle twice, or after its event dispatched, changes
    /// nothing — not even when the handle's token slot has since been
    /// recycled for another event.
    #[test]
    fn stale_and_repeated_cancels_are_no_ops() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        let h = cancellable(&mut eng, 1, SimTime::from_nanos(10), Tag::Mark(1));
        eng.cancel(h);
        eng.cancel(h);
        assert_eq!(eng.pending(), 0, "the second cancel does not count again");
        let ran = cancellable(&mut eng, 1, SimTime::from_nanos(20), Tag::Mark(2));
        eng.run(&mut w);
        assert_eq!(w.0, vec![2]);
        // Both slots are free again; the next event reuses one of them.
        let live = cancellable(&mut eng, 1, SimTime::from_nanos(30), Tag::Mark(3));
        assert_eq!(eng.queue.tokens.slots.len(), 2);
        eng.cancel(h);
        eng.cancel(ran);
        assert_eq!(eng.pending(), 1, "stale handles cancel nothing");
        eng.run(&mut w);
        assert_eq!(w.0, vec![2, 3]);
        eng.cancel(live);
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.executed(), 2);
    }

    /// A parked loop's life: schedule a wake at a far deadline, have a
    /// delivery supersede it (cancel, reschedule one tick out), run the
    /// replacement. Ten thousand rounds from one origin keep the token
    /// table at a handful of slots: a tombstone's slot is recycled as soon
    /// as the cursor reaps it.
    #[test]
    fn token_slots_are_recycled() {
        let mut eng: Engine<Log> = Engine::new();
        let mut w = Log(Vec::new());
        let tick = SimDuration::from_nanos(2_000);
        for round in 0..10_000u32 {
            // On the fine level on even rounds, on the coarse on odd ones.
            let out = if round % 2 == 0 { 100_000 } else { 2 * BLOCK };
            let now = eng.now();
            let deadline = cancellable(
                &mut eng,
                7,
                now + SimDuration::from_nanos(out),
                Tag::Mark(0),
            );
            eng.cancel(deadline);
            cancellable(&mut eng, 7, now + tick, Tag::Mark(1));
            assert_eq!(eng.pending(), 1);
            assert!(eng.step(&mut w));
        }
        assert_eq!(eng.executed(), 10_000);
        assert!(w.0.iter().all(|&m| m == 1), "no cancelled wake dispatched");
        // Tombstones standing at once: those of the three blocks a coarse
        // one can wait through, one per round of 2 000 ns; far below the
        // 20 000 handles issued.
        let slots = eng.queue.tokens.slots.len();
        assert!(slots <= (3 * BLOCK / 2_000) as usize, "{slots} slots");
        eng.run(&mut w);
        assert_eq!(eng.queue.tokens.free.len(), slots, "every slot came back");
    }

    /// `next_event_at` reports the earliest live event and skips cancelled
    /// ones.
    #[test]
    fn next_event_at_sees_through_cancellations() {
        let mut eng: Engine<Log> = Engine::new();
        assert_eq!(eng.next_event_at(), None);
        let h = cancellable(&mut eng, 1, SimTime::from_nanos(40), Tag::Mark(1));
        eng.schedule_from(1, SimTime::from_micros(700), Tag::Mark(2)); // coarse level
        assert_eq!(eng.next_event_at(), Some(SimTime::from_nanos(40)));
        eng.cancel(h);
        assert_eq!(eng.next_event_at(), Some(SimTime::from_micros(700)));
        let h2 = cancellable(&mut eng, 2, SimTime::from_micros(600), Tag::Mark(3));
        assert_eq!(eng.next_event_at(), Some(SimTime::from_micros(600)));
        eng.cancel(h2);
        assert_eq!(eng.next_event_at(), Some(SimTime::from_micros(700)));
        let mut w = Log(Vec::new());
        eng.run(&mut w);
        assert_eq!(w.0, vec![2]);
        // Only the heap left: a cancelled head is seen through as well.
        let h3 = cancellable(&mut eng, 2, SimTime::from_secs(1), Tag::Mark(4));
        eng.schedule_from(1, SimTime::from_secs(2), Tag::Mark(5));
        assert_eq!(eng.next_event_at(), Some(SimTime::from_secs(1)));
        eng.cancel(h3);
        assert_eq!(eng.next_event_at(), Some(SimTime::from_secs(2)));
    }
}
