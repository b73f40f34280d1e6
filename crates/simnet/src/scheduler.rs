//! Discrete-event scheduler.
//!
//! The simulation advances by popping the earliest pending event from a
//! priority structure. Events are generic over a user-defined payload type;
//! the node crate drives the loop with its own event enum (message
//! deliveries, protocol timers, churn transitions, workload arrivals, …).
//!
//! Determinism: events scheduled for the same instant are delivered in the
//! order they were scheduled (FIFO tie-breaking by sequence number), so a
//! seeded simulation always produces the same trace.
//!
//! [`Scheduler`] is a hierarchical timer wheel (256-slot levels starting at
//! millisecond granularity, 256× coarser per level, plus an overflow heap
//! for the very far future). `schedule_at`/`pop` are O(1) amortized,
//! `peek_time` is a cached O(1) field read. A scheduled event cannot be
//! cancelled: no caller needs it (a handler that finds its want resolved
//! simply returns), so `schedule_at` and `pop` keep no per-event liveness
//! state. The original `BinaryHeap` implementation lives on in this module's
//! tests, where a property test drives both in lockstep to prove the
//! delivery order identical.
//!
//! The wheel's four levels, each 256 slots, with the span one slot covers:
//!
//! ```text
//! level 0    1 ms/slot      256 slots →      256 ms   "now" — next quarter second
//! level 1  256 ms/slot      256 slots →    ~65.5 s    short timers (re-broadcasts)
//! level 2  ~65.5 s/slot     256 slots →    ~4.66 h    session-scale timers
//! level 3  ~4.66 h/slot     256 slots →   ~49.7 d     whole-run horizon
//! overflow BinaryHeap                  →   beyond     far future (rare)
//! ```
//!
//! An event lands in the coarsest level whose slot resolution still
//! separates it from the current time; when the clock enters a coarse slot,
//! that slot's events *cascade* down one level, regaining resolution. Each
//! event therefore moves at most `levels` times total — the O(1) amortized
//! bound — while a binary heap pays O(log pending) on every operation.

use crate::time::{SimDuration, SimTime};
use ipfs_mon_obs as obs;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Bits per wheel level: each level has 256 slots. Wider levels mean fewer
/// cascade hops per event (at most one per nonzero 8-bit group of its delay).
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// `u64` words per slot bitmap.
const BITMAP_WORDS: usize = SLOTS / 64;
/// Number of wheel levels. Level `k` has slot granularity `256^k` ms, so four
/// levels cover `2^32` ms ≈ 49.7 simulated days; anything further out parks
/// in the overflow heap until the clock approaches.
const LEVELS: usize = 4;

/// Occupancy bitmap over one level's 256 slots.
#[derive(Debug, Clone, Copy, Default)]
struct SlotBitmap([u64; BITMAP_WORDS]);

impl SlotBitmap {
    #[inline]
    fn set(&mut self, slot: usize) {
        self.0[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn clear(&mut self, slot: usize) {
        self.0[slot / 64] &= !(1 << (slot % 64));
    }

    /// First occupied slot with index `>= from`, if any.
    #[inline]
    fn first_from(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut mask = !0u64 << (from % 64);
        while word < BITMAP_WORDS {
            let bits = self.0[word] & mask;
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            mask = !0;
        }
        None
    }

    /// First occupied slot with index `> from`, if any.
    #[inline]
    fn first_after(&self, from: usize) -> Option<usize> {
        if from + 1 >= SLOTS {
            return None;
        }
        self.first_from(from + 1)
    }
}

/// A wheel entry. Within a slot, entries keep their scheduling order, so no
/// sequence number is needed.
#[derive(Debug)]
struct WheelEntry<E> {
    at: u64,
    payload: E,
}

/// Overflow-heap entry ordered by `(at, seq)` via `Reverse` at the call site.
#[derive(Debug)]
struct OverflowEntry<E> {
    at: u64,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for OverflowEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for OverflowEntry<E> {}
impl<E> PartialOrd for OverflowEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for OverflowEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Index of the most significant `LEVEL_BITS`-wide group in which `cursor`
/// and `at` differ — the wheel level an event at `at` belongs to. `LEVELS` or
/// more means the event is beyond the wheel horizon (overflow heap).
fn level_of(cursor: u64, at: u64) -> usize {
    let diff = cursor ^ at;
    if diff == 0 {
        0
    } else {
        (63 - diff.leading_zeros()) as usize / LEVEL_BITS as usize
    }
}

/// A deterministic discrete-event queue built on a hierarchical timer wheel.
///
/// # Examples
///
/// ```
/// use ipfs_mon_simnet::scheduler::Scheduler;
/// use ipfs_mon_simnet::time::{SimDuration, SimTime};
///
/// let mut sched: Scheduler<&'static str> = Scheduler::new();
/// sched.schedule_at(SimTime::from_secs(2), "later");
/// sched.schedule_at(SimTime::from_secs(1), "sooner");
/// let (t, event) = sched.pop().unwrap();
/// assert_eq!((t, event), (SimTime::from_secs(1), "sooner"));
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    /// `LEVELS * SLOTS` slot queues; slot `s` of level `k` is
    /// `slots[k * SLOTS + s]`. Level-0 slots hold events of one exact
    /// millisecond, so FIFO within a slot is FIFO within a timestamp.
    slots: Vec<VecDeque<WheelEntry<E>>>,
    /// Per-level occupancy bitmap: a bit is set exactly while its slot
    /// holds an entry.
    occupied: [SlotBitmap; LEVELS],
    /// Events beyond the wheel horizon, ordered by `(at, seq)`.
    overflow: BinaryHeap<Reverse<OverflowEntry<E>>>,
    /// Wheel position: every pending event's timestamp is `>= cursor`, and
    /// slot indices are interpreted relative to `cursor`'s bit groups. Only
    /// `pop` moves it forward (to the delivered timestamp).
    cursor: u64,
    /// Current simulated time (last delivered event, or `advance_to`).
    now: SimTime,
    next_seq: u64,
    /// Number of pending events.
    pending: usize,
    delivered: u64,
    /// Exact timestamp of the earliest pending event — maintained on every
    /// mutation so [`Scheduler::peek_time`] is a field read.
    cached_next: Option<u64>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Self {
            slots: (0..LEVELS * SLOTS).map(|_| VecDeque::new()).collect(),
            occupied: [SlotBitmap::default(); LEVELS],
            overflow: BinaryHeap::new(),
            cursor: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            pending: 0,
            delivered: 0,
            cached_next: None,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before any event was delivered), advanced externally
    /// via [`Scheduler::advance_to`] when events are delivered out-of-band.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Returns true if no events remain.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Advances the clock without delivering an event. Used by the lazy
    /// event-source loop when an event bypasses the queue, so that
    /// past-scheduling keeps clamping against true simulated time. Clamped
    /// to the earliest pending event so `pop` stays time-monotone.
    pub fn advance_to(&mut self, t: SimTime) {
        let t = match self.cached_next {
            Some(next) => t.min(SimTime::from_millis(next)),
            None => t,
        };
        self.now = self.now.max(t);
    }

    /// Schedules `payload` for the absolute time `at`.
    ///
    /// Scheduling in the past is clamped to the current time: the event will
    /// be delivered next, preserving causality.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        let at_ms = at.as_millis();
        self.cached_next = Some(match self.cached_next {
            Some(t) => t.min(at_ms),
            None => at_ms,
        });
        if level_of(self.cursor, at_ms) >= LEVELS {
            self.overflow.push(Reverse(OverflowEntry {
                at: at_ms,
                seq,
                payload,
            }));
        } else {
            self.insert(WheelEntry { at: at_ms, payload });
        }
    }

    /// Schedules `payload` for `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.cached_next?;
        let entry = self.position_and_take()?;
        let at = SimTime::from_millis(entry.at);
        debug_assert!(at >= self.now, "time must be monotone");
        self.now = at;
        self.cursor = entry.at;
        self.pending -= 1;
        self.delivered += 1;
        self.cached_next = self.scan_min();
        Some((at, entry.payload))
    }

    /// Pops the next event only if it is scheduled at or before `deadline`.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.cached_next? > deadline.as_millis() {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next pending event, if any. O(1).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cached_next.map(SimTime::from_millis)
    }

    // -- internals ---------------------------------------------------------

    /// Files an entry within the wheel's span under its level and slot.
    fn insert(&mut self, entry: WheelEntry<E>) {
        debug_assert!(entry.at >= self.cursor);
        let level = level_of(self.cursor, entry.at);
        debug_assert!(level < LEVELS, "beyond the wheel: overflow heap");
        let slot = (entry.at >> (LEVEL_BITS as u64 * level as u64)) as usize % SLOTS;
        self.slots[level * SLOTS + slot].push_back(entry);
        self.occupied[level].set(slot);
    }

    /// Moves overflow events whose time now falls under the wheel horizon
    /// into the wheel. Called whenever `cursor` advances, *before* anything
    /// in the new window is delivered, so that same-timestamp FIFO order is
    /// preserved (overflow entries always carry older sequence numbers than
    /// direct wheel inserts for the same instant).
    fn drain_overflow(&mut self) {
        while let Some(Reverse(head)) = self.overflow.peek() {
            if level_of(self.cursor, head.at) >= LEVELS {
                return;
            }
            // Coarse obs signal: promotions are rare (far-future events
            // only), so an unbatched counter bump is fine here.
            obs::counter!("sched.overflow_promotions").incr();
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.insert(WheelEntry {
                at: e.at,
                payload: e.payload,
            });
        }
    }

    /// Slot index of `self.cursor` at `level`.
    fn cursor_slot(&self, level: usize) -> u32 {
        (self.cursor >> (LEVEL_BITS as u64 * level as u64)) as u32 % SLOTS as u32
    }

    /// Advances the wheel until the earliest pending event sits in a level-0
    /// slot, then removes and returns it. Only called with at least one
    /// pending event.
    fn position_and_take(&mut self) -> Option<WheelEntry<E>> {
        loop {
            self.drain_overflow();
            // Earliest candidate: the first occupied level-0 slot at or after
            // the cursor's position in the current level-0 window.
            let i0 = self.cursor_slot(0);
            if let Some(slot) = self.occupied[0].first_from(i0 as usize) {
                let queue = &mut self.slots[slot];
                let entry = queue.pop_front().expect("an occupied slot holds an entry");
                if queue.is_empty() {
                    self.occupied[0].clear(slot);
                }
                return Some(entry);
            }
            // Level 0 exhausted: cascade the first occupied slot of the
            // lowest occupied level into the levels below it.
            let mut cascaded = false;
            for level in 1..LEVELS {
                let Some(slot) = self.occupied[level].first_after(self.cursor_slot(level) as usize)
                else {
                    continue;
                };
                let span = 1u64 << (LEVEL_BITS as u64 * (level as u64 + 1));
                let base = (self.cursor & !(span - 1))
                    | ((slot as u64) << (LEVEL_BITS as u64 * level as u64));
                self.occupied[level].clear(slot);
                let entries = std::mem::take(&mut self.slots[level * SLOTS + slot]);
                // Coarse obs signal: one cascade per ~256 deliveries at
                // worst, so the counter stays off the per-pop hot path.
                obs::counter!("sched.cascades").incr();
                self.cursor = base;
                for entry in entries {
                    self.insert(entry);
                }
                cascaded = true;
                break;
            }
            if cascaded {
                continue;
            }
            // Wheel empty: jump to the overflow head, if any.
            match self.overflow.peek() {
                Some(Reverse(head)) => {
                    self.cursor = head.at;
                    // Loop re-enters via drain_overflow.
                }
                None => return None,
            }
        }
    }

    /// Exact timestamp of the earliest pending event without advancing the
    /// wheel: the front of the first occupied level-0 slot, else the
    /// earliest entry of the first occupied slot of the lowest occupied
    /// level, else the overflow head (overflow events all lie beyond the
    /// wheel's span).
    fn scan_min(&self) -> Option<u64> {
        if let Some(slot) = self.occupied[0].first_from(self.cursor_slot(0) as usize) {
            // All entries of a level-0 slot share one timestamp.
            return self.slots[slot].front().map(|e| e.at);
        }
        for level in 1..LEVELS {
            if let Some(slot) = self.occupied[level].first_after(self.cursor_slot(level) as usize) {
                return self.slots[level * SLOTS + slot].iter().map(|e| e.at).min();
            }
        }
        self.overflow.peek().map(|Reverse(head)| head.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug)]
    struct ScheduledEvent<E> {
        at: SimTime,
        seq: u64,
        payload: E,
    }

    // Order by (time, sequence) — BinaryHeap is a max-heap, so comparisons
    // are wrapped in `Reverse` at the call sites.
    impl<E> PartialEq for ScheduledEvent<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for ScheduledEvent<E> {}
    impl<E> PartialOrd for ScheduledEvent<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for ScheduledEvent<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.at, self.seq).cmp(&(other.at, other.seq))
        }
    }

    /// The seed scheduler, the oracle of the lockstep property test: a
    /// `BinaryHeap` ordered by `(time, seq)` with an O(n) `peek_time`.
    #[derive(Debug)]
    struct BaselineScheduler<E> {
        queue: BinaryHeap<Reverse<ScheduledEvent<E>>>,
        now: SimTime,
        next_seq: u64,
        delivered: u64,
    }

    impl<E> BaselineScheduler<E> {
        fn new() -> Self {
            Self {
                queue: BinaryHeap::new(),
                now: SimTime::ZERO,
                next_seq: 0,
                delivered: 0,
            }
        }

        fn now(&self) -> SimTime {
            self.now
        }

        fn delivered(&self) -> u64 {
            self.delivered
        }

        /// Schedules `payload` for the absolute time `at` (clamped to `now`).
        fn schedule_at(&mut self, at: SimTime, payload: E) {
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.queue
                .push(Reverse(ScheduledEvent { at, seq, payload }));
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse(event) = self.queue.pop()?;
            debug_assert!(event.at >= self.now, "time must be monotone");
            self.now = event.at;
            self.delivered += 1;
            Some((event.at, event.payload))
        }

        fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
            let Reverse(head) = self.queue.peek()?;
            if head.at > deadline {
                return None;
            }
            self.pop()
        }

        /// Timestamp of the next pending event, if any.
        fn peek_time(&self) -> Option<SimTime> {
            self.queue.iter().map(|Reverse(e)| e.at).min()
        }
    }

    #[test]
    fn delivers_in_time_order() {
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::from_secs(3), "c");
        sched.schedule_at(SimTime::from_secs(1), "a");
        sched.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(sched.now(), SimTime::from_secs(3));
        assert_eq!(sched.delivered(), 3);
    }

    #[test]
    fn ties_broken_in_fifo_order() {
        let mut sched = Scheduler::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            sched.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::from_secs(10), "first");
        sched.pop();
        sched.schedule_after(SimDuration::from_secs(5), "second");
        let (t, _) = sched.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(15));
    }

    #[test]
    fn scheduling_in_the_past_is_clamped() {
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::from_secs(10), "first");
        sched.pop();
        sched.schedule_at(SimTime::from_secs(1), "late");
        let (t, e) = sched.pop().unwrap();
        assert_eq!(e, "late");
        assert_eq!(t, SimTime::from_secs(10), "clamped to now");
    }

    #[test]
    fn advance_to_clamps_later_schedules() {
        let mut sched = Scheduler::new();
        sched.advance_to(SimTime::from_secs(100));
        sched.schedule_at(SimTime::from_secs(30), "late");
        let (t, _) = sched.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(100));
        assert_eq!(sched.now(), SimTime::from_secs(100));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::from_secs(1), 1);
        sched.schedule_at(SimTime::from_secs(5), 5);
        assert_eq!(
            sched.pop_until(SimTime::from_secs(2)),
            Some((SimTime::from_secs(1), 1))
        );
        assert_eq!(sched.pop_until(SimTime::from_secs(2)), None);
        assert_eq!(
            sched.pop_until(SimTime::from_secs(10)),
            Some((SimTime::from_secs(5), 5))
        );
    }

    #[test]
    fn empty_scheduler_behaviour() {
        let mut sched: Scheduler<()> = Scheduler::new();
        assert!(sched.is_empty());
        assert_eq!(sched.pop(), None);
        assert_eq!(sched.peek_time(), None);
    }

    #[test]
    fn far_future_events_park_in_overflow_and_return() {
        let mut sched = Scheduler::new();
        // Ten simulated years is far beyond the wheel horizon.
        let far = SimTime::ZERO + SimDuration::from_days(3650);
        sched.schedule_at(far, "far");
        sched.schedule_at(SimTime::from_secs(1), "near");
        assert_eq!(sched.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(sched.pop(), Some((SimTime::from_secs(1), "near")));
        assert_eq!(sched.pop(), Some((far, "far")));
        assert_eq!(sched.pop(), None);
    }

    #[test]
    fn peek_time_is_constant_time_on_a_large_queue() {
        // The seed implementation scanned the entire queue per peek; with
        // 200k pending events and a peek before every pop that is O(n²) and
        // would take minutes even in release mode. The wheel serves peeks
        // from a cached field, so this loop must be quick.
        let mut sched = Scheduler::new();
        let n: u64 = 200_000;
        for i in 0..n {
            // Spread across ~55 simulated hours so every wheel level is hit.
            sched.schedule_at(SimTime::from_millis((i * 997) % 200_000_000), i);
        }
        assert_eq!(sched.pending(), n as usize);
        let mut last = SimTime::ZERO;
        let mut pops = 0u64;
        loop {
            let peeked = sched.peek_time();
            match sched.pop() {
                Some((t, _)) => {
                    assert_eq!(peeked, Some(t), "peek must match the pop");
                    assert!(t >= last);
                    last = t;
                    pops += 1;
                }
                None => break,
            }
        }
        assert_eq!(pops, n);
        assert_eq!(sched.peek_time(), None);
    }

    /// One step of the lockstep oracle test, over 64-bit times so the
    /// wheel's higher levels and the overflow heap are exercised too.
    #[derive(Debug, Clone)]
    enum Op64 {
        Schedule(u64),
        Pop,
        PopUntil(u64),
    }

    /// Decodes a raw `(kind, value)` pair into an op, weighted towards
    /// schedules so queues actually build up, and spreading schedule times
    /// across every wheel level *and* past the ~50-day overflow horizon.
    fn decode_op(kind: u8, value: u32) -> Op64 {
        match kind % 10 {
            0 | 1 => Op64::Schedule(value as u64),
            // Up to ~24 simulated days: wheel levels 2-3.
            2 | 3 => Op64::Schedule(value as u64 * 4096),
            // Up to ~8 simulated years: deep into the overflow heap.
            4 => Op64::Schedule(value as u64 * (1 << 19)),
            5..=7 => Op64::Pop,
            8 => Op64::PopUntil(value as u64),
            _ => Op64::PopUntil(value as u64 * 4096),
        }
    }

    proptest! {
        #[test]
        fn pops_are_monotone_in_time(times in proptest::collection::vec(0u64..100_000, 1..200)) {
            let mut sched = Scheduler::new();
            for (i, &t) in times.iter().enumerate() {
                sched.schedule_at(SimTime::from_millis(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut count = 0;
            while let Some((t, _)) = sched.pop() {
                prop_assert!(t >= last);
                last = t;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        /// The tentpole property: on arbitrary interleavings of schedules
        /// and pops, the timer wheel delivers exactly the sequence
        /// the seed heap scheduler delivered, with identical peek times.
        #[test]
        fn wheel_matches_baseline_on_random_interleavings(
            raw_ops in proptest::collection::vec((0u8..10, 0u32..500_000), 1..250),
        ) {
            let ops: Vec<Op64> = raw_ops.iter().map(|&(k, v)| decode_op(k, v)).collect();
            let mut wheel = Scheduler::new();
            let mut baseline = BaselineScheduler::new();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op64::Schedule(ms) => {
                        let at = SimTime::from_millis(ms);
                        wheel.schedule_at(at, i);
                        baseline.schedule_at(at, i);
                    }
                    Op64::Pop => prop_assert_eq!(wheel.pop(), baseline.pop()),
                    Op64::PopUntil(ms) => {
                        let deadline = SimTime::from_millis(ms);
                        prop_assert_eq!(wheel.pop_until(deadline), baseline.pop_until(deadline));
                    }
                }
                prop_assert_eq!(wheel.peek_time(), baseline.peek_time());
                prop_assert_eq!(wheel.now(), baseline.now());
                prop_assert_eq!(wheel.delivered(), baseline.delivered());
            }
            // Drain both completely: the tails must agree too.
            loop {
                let a = wheel.pop();
                let b = baseline.pop();
                prop_assert_eq!(&a, &b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
