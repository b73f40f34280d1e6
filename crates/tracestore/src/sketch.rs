//! Approximate heavy hitters for unbounded analysis horizons:
//! [`SpaceSaving`] (top-K with guaranteed per-key error), plus the
//! [`AnalysisSink`] wrapper [`SpaceSavingSink`] that runs it over trace
//! streams — serially or under
//! [`run_parallel`](crate::reader::ManifestReader::run_parallel).
//!
//! # Why a sketch
//!
//! The exact popularity and activity analyses keep one counter per distinct
//! CID or peer — fine for a closed dataset, unbounded for a service that
//! never stops. [`SpaceSaving`] answers the paper's "most requested CIDs /
//! most active peers" questions in memory that depends only on the
//! configured accuracy, never on the stream: it keeps exactly `capacity`
//! counters. Every estimate overcounts (`count >= true`) by at most the
//! tracked `error` (`count - error <= true`), the error never exceeds
//! `total / capacity`, and any key whose true count exceeds
//! `total / capacity` is guaranteed to be reported.
//!
//! # Combine: an exact monoid over approximate state
//!
//! The [`AnalysisSink::combine`] contract demands associativity and
//! commutativity up to the final output. Space-Saving does not merge exactly
//! in its classical truncated form, so [`SpaceSaving::merge`] switches to a
//! *sealed* representation: each side is read as the estimate function
//! `f(k) = count(k) if tracked, else absent_bound` (the bound every
//! untracked key is known not to exceed), and the merge stores the exact
//! pointwise sum — union of tracked keys plus the summed bound as an
//! `offset` for keys tracked by neither. Pointwise sums of functions are
//! associative and commutative, so any combine tree finishes identically.
//! The union is only truncated back to the top `capacity` in
//! [`SpaceSaving::finish`], keeping interim memory bounded by
//! `partitions x capacity` (one partition per monitor chain under
//! `run_parallel`). All Space-Saving guarantees above survive the merge.

use crate::record::TraceEntry;
use crate::sink::AnalysisSink;
use ipfs_mon_types::{Cid, PeerId};
use std::cmp::Ordering;

/// One tracked Space-Saving counter: the overestimate and how much of it
/// may be attributed to evictions rather than observed occurrences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SsCounter {
    count: u64,
    error: u64,
}

/// The Space-Saving top-K summary (Metwally et al.): at most `capacity`
/// tracked keys while streaming; merged summaries temporarily hold the
/// union (see the [module docs](self)).
///
/// Guarantees, preserved across [`SpaceSaving::merge`]:
///
/// * `count >= true_count` for every reported key,
/// * `count - error <= true_count` (the error brackets the overcount),
/// * `error <= total / capacity`,
/// * every key with `true_count > total / capacity` is reported by
///   [`SpaceSaving::finish`].
#[derive(Debug, Clone)]
pub struct SpaceSaving<K> {
    capacity: usize,
    total: u64,
    /// The tracked keys, sorted by key. A lookup is a binary search and the
    /// eviction scan a walk over one allocation; at the handful of counters
    /// a top-K summary holds (every caller runs 4–8), hashing a 36-byte CID
    /// three times per miss cost more than both. Past a few dozen counters
    /// a hash map would win again (docs/BENCHMARKS.md has the crossover).
    counters: Vec<(K, SsCounter)>,
    /// Estimate for keys absent from `counters`. Zero while streaming;
    /// after a merge it carries the summed absent-bounds of the inputs.
    offset: u64,
    /// False once merged: the absent-key bound is then `offset` instead of
    /// the minimum tracked counter.
    streaming: bool,
}

impl<K: Ord + Clone> SpaceSaving<K> {
    /// Creates a summary tracking at most `capacity` keys while streaming.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "space-saving capacity must be positive");
        Self {
            capacity,
            total: 0,
            counters: Vec::with_capacity(capacity),
            offset: 0,
            streaming: true,
        }
    }

    /// Tracked-key capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total occurrences recorded (including merged-in summaries).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The bound no untracked key's true count exceeds.
    fn absent_bound(&self) -> u64 {
        if !self.streaming {
            self.offset
        } else if self.counters.len() >= self.capacity {
            // At capacity: an absent key was evicted at or below the
            // current minimum counter.
            self.counters
                .iter()
                .map(|(_, c)| c.count)
                .min()
                .unwrap_or(0)
        } else {
            // Never full: absent keys were truly never seen.
            0
        }
    }

    /// Records one occurrence of `key` (the classical streaming update:
    /// increment if tracked, insert if below capacity, otherwise evict the
    /// minimum counter and inherit its count as error).
    ///
    /// # Panics
    ///
    /// Panics if called after [`SpaceSaving::merge`] — the drivers never do
    /// this (combining only starts once consumption is complete).
    pub fn record(&mut self, key: &K) {
        assert!(
            self.streaming,
            "space-saving summaries cannot record after a merge"
        );
        self.total += 1;
        let slot = match self
            .counters
            .binary_search_by(|(tracked, _)| tracked.cmp(key))
        {
            Ok(found) => {
                self.counters[found].1.count += 1;
                return;
            }
            Err(slot) => slot,
        };
        if self.counters.len() < self.capacity {
            self.counters
                .insert(slot, (key.clone(), SsCounter { count: 1, error: 0 }));
            return;
        }
        // Evict the deterministic minimum: smallest count, largest key as
        // the tie-break (so smaller keys, which sort first in the report,
        // are preferentially retained) — in key order, the last of the
        // minima.
        let (victim, evicted) = self
            .counters
            .iter()
            .map(|(_, c)| c.count)
            .enumerate()
            .min_by_key(|&(index, count)| (count, std::cmp::Reverse(index)))
            .expect("capacity is positive");
        self.counters[victim] = (
            key.clone(),
            SsCounter {
                count: evicted + 1,
                error: evicted,
            },
        );
        // The newcomer replaced the victim in place; slide it to where its
        // key belongs.
        if victim < slot {
            self.counters[victim..slot].rotate_left(1);
        } else {
            self.counters[slot..=victim].rotate_right(1);
        }
    }

    /// Merges another summary of the same capacity: the exact pointwise sum
    /// of both estimate functions (see the [module docs](self)). Exactly
    /// associative and commutative, so any combine order finishes to the
    /// same [`TopK`].
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn merge(&mut self, other: Self) {
        assert_eq!(
            self.capacity, other.capacity,
            "space-saving summaries must share capacity to merge"
        );
        let bound_self = self.absent_bound();
        let bound_other = other.absent_bound();
        let sum = |a: SsCounter, b: SsCounter| SsCounter {
            count: a.count + b.count,
            error: a.error + b.error,
        };
        // A key one side does not track counts there as that side's bound.
        let untracked = |bound: u64| SsCounter {
            count: bound,
            error: bound,
        };
        let mut merged = Vec::with_capacity(self.counters.len() + other.counters.len());
        let mut mine = std::mem::take(&mut self.counters).into_iter().peekable();
        let mut theirs = other.counters.into_iter().peekable();
        // Both sides are sorted by key, and so is their union.
        loop {
            let order = match (mine.peek(), theirs.peek()) {
                (Some((a, _)), Some((b, _))) => a.cmp(b),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            merged.push(match order {
                Ordering::Less => {
                    let (key, counter) = mine.next().expect("peeked");
                    (key, sum(counter, untracked(bound_other)))
                }
                Ordering::Greater => {
                    let (key, counter) = theirs.next().expect("peeked");
                    (key, sum(counter, untracked(bound_self)))
                }
                Ordering::Equal => {
                    let (key, counter) = mine.next().expect("peeked");
                    let (_, other) = theirs.next().expect("peeked");
                    (key, sum(counter, other))
                }
            });
        }
        self.counters = merged;
        self.offset = bound_self + bound_other;
        self.total += other.total;
        self.streaming = false;
    }

    /// Produces the ranked report: entries sorted by `(count desc, key
    /// asc)`, truncated to `capacity` — except that every key whose lower
    /// bound could still make it a heavy hitter (`count > total /
    /// capacity`) is retained even past the truncation point, so the
    /// containment guarantee survives merged summaries.
    pub fn finish(self) -> TopK<K> {
        let threshold = self.total / self.capacity as u64;
        let mut entries: Vec<HeavyHitter<K>> = self
            .counters
            .into_iter()
            .map(|(key, c)| HeavyHitter {
                key,
                count: c.count,
                error: c.error,
            })
            .collect();
        entries.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
        let keep = entries
            .iter()
            .position(|e| e.count <= threshold)
            .map_or(entries.len(), |first_light| first_light.max(self.capacity));
        entries.truncate(keep.min(entries.len()));
        TopK {
            capacity: self.capacity,
            total: self.total,
            entries,
        }
    }
}

/// One ranked entry of a [`TopK`] report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyHitter<K> {
    /// The tracked key.
    pub key: K,
    /// Overestimated occurrence count (`count >= true >= count - error`).
    pub count: u64,
    /// Upper bound on the overcount baked into `count`.
    pub error: u64,
}

/// The finished Space-Saving report: ranked heavy hitters with per-key
/// error bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopK<K> {
    /// The summary's streaming capacity.
    pub capacity: usize,
    /// Total occurrences the summary observed.
    pub total: u64,
    /// Entries sorted by `(count desc, key asc)`; at least the top
    /// `capacity`, plus any further entries still above `total / capacity`.
    pub entries: Vec<HeavyHitter<K>>,
}

impl<K> TopK<K> {
    /// The top `k` entries of the report.
    pub fn top(&self, k: usize) -> &[HeavyHitter<K>] {
        &self.entries[..k.min(self.entries.len())]
    }
}

/// [`AnalysisSink`] running two [`SpaceSaving`] summaries over a trace
/// stream: most-requested CIDs (request entries only — wants, not cancels)
/// and most-active peers (every entry). Runs under
/// [`run_parallel`](crate::reader::ManifestReader::run_parallel); the
/// combine is the exact Space-Saving merge monoid, so any combine order
/// yields the same output.
#[derive(Debug, Clone)]
pub struct SpaceSavingSink {
    cids: SpaceSaving<Cid>,
    peers: SpaceSaving<PeerId>,
}

/// Output of [`SpaceSavingSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyHitters {
    /// Most-requested CIDs (request entries only).
    pub cids: TopK<Cid>,
    /// Most-active peers (all entries).
    pub peers: TopK<PeerId>,
}

impl SpaceSavingSink {
    /// Creates a sink tracking the top `capacity` CIDs and peers.
    pub fn new(capacity: usize) -> Self {
        Self {
            cids: SpaceSaving::new(capacity),
            peers: SpaceSaving::new(capacity),
        }
    }
}

impl AnalysisSink for SpaceSavingSink {
    type Output = HeavyHitters;

    fn consume(&mut self, entry: TraceEntry) {
        if entry.is_request() {
            self.cids.record(&entry.cid);
        }
        self.peers.record(&entry.peer);
    }

    fn combine(&mut self, other: Self) {
        self.cids.merge(other.cids);
        self.peers.merge(other.peers);
    }

    fn finish(self) -> HeavyHitters {
        HeavyHitters {
            cids: self.cids.finish(),
            peers: self.peers.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn space_saving_brackets_true_counts() {
        // Zipf-ish stream: key k appears 200 / (k + 1) times.
        let mut ss = SpaceSaving::new(8);
        let mut truth = HashMap::new();
        for k in 0..50u64 {
            for _ in 0..(200 / (k + 1)) {
                ss.record(&k);
                *truth.entry(k).or_insert(0u64) += 1;
            }
        }
        let total = ss.total();
        let report = ss.finish();
        let threshold = total / report.capacity as u64;
        for hh in &report.entries {
            let true_count = truth[&hh.key];
            assert!(hh.count >= true_count);
            assert!(hh.count - hh.error <= true_count);
            assert!(hh.error <= threshold);
        }
        // Every key strictly above total/capacity must be reported.
        for (key, &count) in &truth {
            if count > threshold {
                assert!(report.entries.iter().any(|hh| hh.key == *key));
            }
        }
    }

    /// The classical update over an unordered list — the reference for
    /// *which* key each eviction picks (smallest count, then largest key).
    fn reference_report(capacity: usize, stream: &[u64]) -> Vec<HeavyHitter<u64>> {
        let mut counters: Vec<HeavyHitter<u64>> = Vec::new();
        for &key in stream {
            if let Some(tracked) = counters.iter_mut().find(|c| c.key == key) {
                tracked.count += 1;
            } else if counters.len() < capacity {
                counters.push(HeavyHitter {
                    key,
                    count: 1,
                    error: 0,
                });
            } else {
                let victim = counters
                    .iter_mut()
                    .min_by(|a, b| a.count.cmp(&b.count).then_with(|| b.key.cmp(&a.key)))
                    .unwrap();
                *victim = HeavyHitter {
                    key,
                    count: victim.count + 1,
                    error: victim.count,
                };
            }
        }
        counters.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.key.cmp(&b.key)));
        counters
    }

    #[test]
    fn space_saving_evicts_like_the_classical_update() {
        // Few distinct keys against small capacities: ties between minimum
        // counters at nearly every eviction.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for (capacity, distinct) in [(1, 5), (2, 7), (3, 40), (8, 23), (8, 400), (16, 90)] {
            let stream: Vec<u64> = (0..3_000)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // Squared to skew: low keys are heavy, the tail is cold.
                    let draw = (state >> 33) % (distinct * distinct);
                    draw.isqrt()
                })
                .collect();
            let mut ss = SpaceSaving::new(capacity);
            for key in &stream {
                ss.record(key);
            }
            let keys: Vec<&u64> = ss.counters.iter().map(|(key, _)| key).collect();
            assert!(
                keys.windows(2).all(|pair| pair[0] < pair[1]),
                "sorted by key"
            );
            assert_eq!(
                ss.finish().entries,
                reference_report(capacity, &stream),
                "capacity {capacity}, {distinct} distinct keys"
            );
        }
    }

    #[test]
    fn space_saving_merge_is_order_invariant() {
        let mut parts: Vec<SpaceSaving<u64>> = Vec::new();
        for p in 0..4u64 {
            let mut ss = SpaceSaving::new(4);
            for i in 0..300 {
                ss.record(&((i * (p + 3)) % 23));
            }
            parts.push(ss);
        }
        let fold = |order: &[usize]| {
            let mut acc = parts[order[0]].clone();
            for &i in &order[1..] {
                acc.merge(parts[i].clone());
            }
            acc.finish()
        };
        let reference = fold(&[0, 1, 2, 3]);
        assert_eq!(reference, fold(&[3, 2, 1, 0]));
        assert_eq!(reference, fold(&[2, 0, 3, 1]));
        // Association: (0+1)+(2+3) vs ((0+1)+2)+3.
        let mut left = parts[0].clone();
        left.merge(parts[1].clone());
        let mut right = parts[2].clone();
        right.merge(parts[3].clone());
        left.merge(right);
        assert_eq!(reference, left.finish());
    }

    #[test]
    fn space_saving_merged_bounds_hold() {
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut parts: Vec<SpaceSaving<u64>> = Vec::new();
        for p in 0..3u64 {
            let mut ss = SpaceSaving::new(6);
            for i in 0..500u64 {
                let key = (i * i + p * 13) % 31;
                ss.record(&key);
                *truth.entry(key).or_insert(0) += 1;
            }
            parts.push(ss);
        }
        let mut acc = parts.pop().unwrap();
        for part in parts {
            acc.merge(part);
        }
        let total = acc.total();
        assert_eq!(total, 1500);
        let report = acc.finish();
        let threshold = total / report.capacity as u64;
        for hh in &report.entries {
            let true_count = truth[&hh.key];
            assert!(hh.count >= true_count, "overestimate invariant");
            assert!(hh.count - hh.error <= true_count, "error bracket");
            assert!(hh.error <= threshold, "error cap");
        }
        for (key, &count) in &truth {
            if count > threshold {
                assert!(
                    report.entries.iter().any(|hh| hh.key == *key),
                    "heavy key {key} with count {count} missing from report"
                );
            }
        }
    }
}
