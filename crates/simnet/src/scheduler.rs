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
//! `peek_time` is a cached O(1) field read, and cancelled events are
//! tracked by a sliding per-sequence bit window whose memory is bounded by
//! the *live* sequence span, not by the run length. The original
//! `BinaryHeap + HashSet`-tombstone implementation lives on in this module's
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

/// Handle identifying a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

// ---------------------------------------------------------------------------
// Sliding alive-bit window over sequence numbers.
// ---------------------------------------------------------------------------

/// Tracks which sequence numbers are still pending (scheduled, neither
/// delivered nor cancelled) in a sliding bitmap.
///
/// Sequence numbers are dense and mostly short-lived, so the window only
/// spans `[base, next)` where `base` trails the oldest live sequence: memory
/// is O(live span / 64) words, and it shrinks again as old events drain.
/// This replaces the seed implementation's cancellation `HashSet`, which
/// leaked one entry forever for every cancel of an already-delivered id.
#[derive(Debug, Default)]
struct SeqWindow {
    /// First sequence number covered by `words`.
    base: u64,
    /// Bitmap words; bit `i` of word `w` covers sequence `base + 64w + i`.
    words: VecDeque<u64>,
}

impl SeqWindow {
    /// Marks a freshly issued sequence number as pending.
    fn mark(&mut self, seq: u64) {
        debug_assert!(seq >= self.base);
        let idx = (seq - self.base) as usize;
        let word = idx / 64;
        while self.words.len() <= word {
            self.words.push_back(0);
        }
        self.words[word] |= 1 << (idx % 64);
    }

    /// Returns true if `seq` is still pending.
    fn contains(&self, seq: u64) -> bool {
        if seq < self.base {
            return false;
        }
        let idx = (seq - self.base) as usize;
        let word = idx / 64;
        word < self.words.len() && self.words[word] & (1 << (idx % 64)) != 0
    }

    /// Clears `seq` if pending; returns whether it was. Compacts the front of
    /// the window so memory tracks the live span.
    fn clear(&mut self, seq: u64) -> bool {
        if seq < self.base {
            return false;
        }
        let idx = (seq - self.base) as usize;
        let word = idx / 64;
        if word >= self.words.len() || self.words[word] & (1 << (idx % 64)) == 0 {
            return false;
        }
        self.words[word] &= !(1 << (idx % 64));
        // Compact fully-settled leading words, but keep the last word: the
        // issue frontier (the next sequence to be handed out) always lies
        // within or directly after it, and `base` must never pass it.
        while self.words.len() > 1 && self.words.front() == Some(&0) {
            self.words.pop_front();
            self.base += 64;
        }
        true
    }

    /// Number of bitmap words currently resident (for memory assertions).
    fn resident_words(&self) -> usize {
        self.words.len()
    }
}

// ---------------------------------------------------------------------------
// Timer-wheel scheduler.
// ---------------------------------------------------------------------------

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

    #[inline]
    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
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

#[derive(Debug)]
struct WheelEntry<E> {
    at: u64,
    seq: u64,
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
    /// Per-level occupancy bitmap (a set bit may cover only cancelled
    /// entries; they are reaped when the search passes over them).
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
    /// Pending-and-alive markers per sequence number.
    alive: SeqWindow,
    /// Number of cancelled entries still physically parked in a slot or the
    /// overflow heap. While zero — the common case, simulations rarely
    /// cancel — every structural walk skips its liveness checks entirely.
    dead_entries: usize,
    /// Number of pending (non-cancelled) events.
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
            alive: SeqWindow::default(),
            dead_entries: 0,
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

    /// Number of pending events (cancelled events are not counted).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Returns true if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Number of bitmap words resident in the cancellation window — bounded
    /// by the live sequence span, exposed for memory tests.
    pub fn alive_window_words(&self) -> usize {
        self.alive.resident_words()
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
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.alive.mark(seq);
        self.pending += 1;
        let at_ms = at.as_millis();
        self.cached_next = Some(match self.cached_next {
            Some(t) => t.min(at_ms),
            None => at_ms,
        });
        self.insert(WheelEntry {
            at: at_ms,
            seq,
            payload,
        });
        EventId(seq)
    }

    /// Schedules `payload` for `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Cancels a previously scheduled event. Returns true if the event was
    /// still pending; ids of already-delivered (or already-cancelled) events
    /// are rejected and leave no trace behind.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_seq || !self.alive.clear(id.0) {
            return false;
        }
        self.pending -= 1;
        // The cancelled entry still sits in its slot (it is dropped when the
        // search passes over it); only the cached minimum needs refreshing.
        self.dead_entries += 1;
        self.cached_next = self.scan_min();
        true
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
        let cleared = self.alive.clear(entry.seq);
        debug_assert!(cleared, "delivered events must have been alive");
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

    /// Timestamp of the next pending (non-cancelled) event, if any. O(1).
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cached_next.map(SimTime::from_millis)
    }

    // -- internals ---------------------------------------------------------

    fn insert(&mut self, entry: WheelEntry<E>) {
        debug_assert!(entry.at >= self.cursor);
        let level = level_of(self.cursor, entry.at);
        if level >= LEVELS {
            self.overflow.push(Reverse(OverflowEntry {
                at: entry.at,
                seq: entry.seq,
                payload: entry.payload,
            }));
            return;
        }
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
            if self.dead_entries == 0 || self.alive.contains(e.seq) {
                self.insert(WheelEntry {
                    at: e.at,
                    seq: e.seq,
                    payload: e.payload,
                });
            } else {
                self.dead_entries -= 1;
            }
        }
    }

    /// Slot index of `self.cursor` at `level`.
    fn cursor_slot(&self, level: usize) -> u32 {
        (self.cursor >> (LEVEL_BITS as u64 * level as u64)) as u32 % SLOTS as u32
    }

    /// Advances the wheel until the earliest pending event sits in a level-0
    /// slot, then removes and returns it. Cancelled entries encountered on
    /// the way are dropped. Only called with at least one pending event.
    fn position_and_take(&mut self) -> Option<WheelEntry<E>> {
        loop {
            self.drain_overflow();
            // Earliest candidate: the first occupied level-0 slot at or after
            // the cursor's position in the current level-0 window.
            let i0 = self.cursor_slot(0);
            if let Some(slot) = self.occupied[0].first_from(i0 as usize) {
                if self.dead_entries > 0 {
                    while let Some(front) = self.slots[slot].front() {
                        if self.alive.contains(front.seq) {
                            break;
                        }
                        self.slots[slot].pop_front();
                        self.dead_entries -= 1;
                    }
                }
                let queue = &mut self.slots[slot];
                match queue.pop_front() {
                    Some(entry) => {
                        if queue.is_empty() {
                            self.occupied[0].clear(slot);
                        }
                        return Some(entry);
                    }
                    None => {
                        self.occupied[0].clear(slot);
                        continue;
                    }
                }
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
                if self.dead_entries == 0 {
                    for entry in entries {
                        self.insert(entry);
                    }
                } else {
                    for entry in entries {
                        if self.alive.contains(entry.seq) {
                            self.insert(entry);
                        } else {
                            self.dead_entries -= 1;
                        }
                    }
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
    /// wheel. Reaps cancelled entries it passes over, but never moves
    /// `cursor`, so it is safe to call between deliveries.
    fn scan_min(&mut self) -> Option<u64> {
        loop {
            let i0 = self.cursor_slot(0);
            if let Some(slot) = self.occupied[0].first_from(i0 as usize) {
                if self.dead_entries > 0 {
                    while let Some(front) = self.slots[slot].front() {
                        if self.alive.contains(front.seq) {
                            break;
                        }
                        self.slots[slot].pop_front();
                        self.dead_entries -= 1;
                    }
                }
                // All entries of a level-0 slot share one timestamp.
                match self.slots[slot].front() {
                    Some(front) => return Some(front.at),
                    None => {
                        self.occupied[0].clear(slot);
                        continue;
                    }
                }
            }
            for level in 1..LEVELS {
                let Some(slot) = self.occupied[level].first_after(self.cursor_slot(level) as usize)
                else {
                    continue;
                };
                // The first occupied slot of the lowest occupied level holds
                // the minimum; within the slot the earliest timestamp wins.
                // With tombstones outstanding, take the minimum over live
                // entries only (without rewriting the queue — parked dead
                // entries are dropped when the slot cascades).
                let idx = level * SLOTS + slot;
                if self.dead_entries > 0 {
                    let alive = &self.alive;
                    let min = self.slots[idx]
                        .iter()
                        .filter(|e| alive.contains(e.seq))
                        .map(|e| e.at)
                        .min();
                    if let Some(at) = min {
                        return Some(at);
                    }
                    // Every entry in the slot was cancelled: reap them all.
                    self.dead_entries -= self.slots[idx].len();
                    self.slots[idx].clear();
                    self.occupied[level].clear(slot);
                    break; // rescan from level 0 (bitmap changed)
                }
                let queue = &self.slots[idx];
                if queue.is_empty() {
                    self.occupied[level].clear(slot);
                    break; // rescan from level 0 (bitmap changed)
                }
                return queue.iter().map(|e| e.at).min();
            }
            // Either a slot was emptied above (rescan) or the wheel is empty.
            if self.occupied.iter().all(|m| m.is_empty()) {
                // Only the overflow heap remains; skip cancelled heads.
                while let Some(Reverse(head)) = self.overflow.peek() {
                    if self.dead_entries == 0 || self.alive.contains(head.seq) {
                        return Some(head.at);
                    }
                    self.overflow.pop();
                    self.dead_entries -= 1;
                }
                return None;
            }
        }
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
    /// `BinaryHeap` ordered by `(time, seq)` with a `HashSet` of
    /// cancellation tombstones and an O(n) `peek_time`.
    #[derive(Debug)]
    struct BaselineScheduler<E> {
        queue: BinaryHeap<Reverse<ScheduledEvent<E>>>,
        now: SimTime,
        next_seq: u64,
        cancelled: std::collections::HashSet<u64>,
        delivered: u64,
    }

    impl<E> BaselineScheduler<E> {
        fn new() -> Self {
            Self {
                queue: BinaryHeap::new(),
                now: SimTime::ZERO,
                next_seq: 0,
                cancelled: std::collections::HashSet::new(),
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
        fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.queue
                .push(Reverse(ScheduledEvent { at, seq, payload }));
            EventId(seq)
        }

        /// Cancels a previously scheduled event. Note the seed quirk this
        /// implementation preserves: cancelling an already-delivered id
        /// returns true and leaks a tombstone ([`Scheduler::cancel`] fixes
        /// both).
        fn cancel(&mut self, id: EventId) -> bool {
            if id.0 >= self.next_seq {
                return false;
            }
            self.cancelled.insert(id.0)
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(Reverse(event)) = self.queue.pop() {
                if self.cancelled.remove(&event.seq) {
                    continue;
                }
                debug_assert!(event.at >= self.now, "time must be monotone");
                self.now = event.at;
                self.delivered += 1;
                return Some((event.at, event.payload));
            }
            None
        }

        fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
            loop {
                let head_at = self.queue.peek().map(|Reverse(e)| (e.at, e.seq))?;
                if head_at.0 > deadline {
                    return None;
                }
                if self.cancelled.contains(&head_at.1) {
                    self.queue.pop();
                    self.cancelled.remove(&head_at.1);
                    continue;
                }
                return self.pop();
            }
        }

        /// Timestamp of the next pending (non-cancelled) event, if any.
        fn peek_time(&self) -> Option<SimTime> {
            self.queue
                .iter()
                .filter(|Reverse(e)| !self.cancelled.contains(&e.seq))
                .map(|Reverse(e)| e.at)
                .min()
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
    fn cancellation_drops_event() {
        let mut sched = Scheduler::new();
        let keep = sched.schedule_at(SimTime::from_secs(1), "keep");
        let drop_ = sched.schedule_at(SimTime::from_secs(2), "drop");
        assert!(sched.cancel(drop_));
        assert!(!sched.cancel(EventId(999)), "unknown id");
        let order: Vec<&str> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["keep"]);
        let _ = keep;
    }

    #[test]
    fn cancel_of_delivered_id_is_rejected() {
        // Regression for the seed tombstone leak: cancelling an id that was
        // already delivered must be a no-op returning false, and repeated
        // cancels of the same pending id must only succeed once.
        let mut sched = Scheduler::new();
        let a = sched.schedule_at(SimTime::from_secs(1), "a");
        let b = sched.schedule_at(SimTime::from_secs(2), "b");
        assert_eq!(sched.pop(), Some((SimTime::from_secs(1), "a")));
        assert!(!sched.cancel(a), "delivered ids are stale");
        assert_eq!(sched.pending(), 1);
        assert!(sched.cancel(b));
        assert!(!sched.cancel(b), "double cancel");
        assert_eq!(sched.pending(), 0);
        assert!(sched.is_empty());
        assert_eq!(sched.pop(), None);
        // The alive window compacts down to its frontier word once nothing
        // is pending.
        assert!(sched.alive_window_words() <= 1);
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
    fn peek_time_ignores_cancelled() {
        let mut sched = Scheduler::new();
        let a = sched.schedule_at(SimTime::from_secs(1), "a");
        sched.schedule_at(SimTime::from_secs(2), "b");
        sched.cancel(a);
        assert_eq!(sched.peek_time(), Some(SimTime::from_secs(2)));
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
        Cancel(usize),
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
            5 => Op64::Cancel(value as usize),
            6 | 7 => Op64::Pop,
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

        #[test]
        fn cancelled_events_never_delivered(n in 1usize..100, cancel_every in 1usize..5) {
            let mut sched = Scheduler::new();
            let mut cancelled = Vec::new();
            for i in 0..n {
                let id = sched.schedule_at(SimTime::from_millis(i as u64 % 17), i);
                if i % cancel_every == 0 {
                    sched.cancel(id);
                    cancelled.push(i);
                }
            }
            let delivered: Vec<usize> = std::iter::from_fn(|| sched.pop().map(|(_, e)| e)).collect();
            for c in cancelled {
                prop_assert!(!delivered.contains(&c));
            }
        }

        /// The tentpole property: on arbitrary interleavings of schedules,
        /// cancels and pops, the timer wheel delivers exactly the sequence
        /// the seed heap scheduler delivered, with identical peek times.
        #[test]
        fn wheel_matches_baseline_on_random_interleavings(
            raw_ops in proptest::collection::vec((0u8..10, 0u32..500_000), 1..250),
        ) {
            let ops: Vec<Op64> = raw_ops.iter().map(|&(k, v)| decode_op(k, v)).collect();
            let mut wheel = Scheduler::new();
            let mut baseline = BaselineScheduler::new();
            let mut ids = Vec::new();
            let mut id_of_payload = std::collections::HashMap::new();
            // Ids that are settled (delivered, or already cancelled once):
            // the wheel rejects further cancels of those, while the seed
            // implementation may re-insert a tombstone after a pop reaped
            // the previous one — exactly the leak the wheel fixes.
            let mut settled_ids = std::collections::HashSet::new();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op64::Schedule(ms) => {
                        let at = SimTime::from_millis(ms);
                        let a = wheel.schedule_at(at, i);
                        let b = baseline.schedule_at(at, i);
                        prop_assert_eq!(a, b, "id assignment must match");
                        ids.push(a);
                        id_of_payload.insert(i, a);
                    }
                    Op64::Cancel(pick) => {
                        if let Some(&id) = ids.get(pick % ids.len().max(1)) {
                            let a = wheel.cancel(id);
                            let b = baseline.cancel(id);
                            if settled_ids.contains(&id) {
                                prop_assert!(!a, "wheel must reject stale ids");
                            } else {
                                prop_assert_eq!(a, b);
                                if a {
                                    settled_ids.insert(id);
                                }
                            }
                        }
                    }
                    Op64::Pop => {
                        let a = wheel.pop();
                        let b = baseline.pop();
                        prop_assert_eq!(&a, &b);
                        if let Some((_, idx)) = a {
                            settled_ids.insert(id_of_payload[&idx]);
                        }
                    }
                    Op64::PopUntil(ms) => {
                        let deadline = SimTime::from_millis(ms);
                        let a = wheel.pop_until(deadline);
                        let b = baseline.pop_until(deadline);
                        prop_assert_eq!(&a, &b);
                        if let Some((_, idx)) = a {
                            settled_ids.insert(id_of_payload[&idx]);
                        }
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
