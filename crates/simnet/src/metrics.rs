//! Lightweight metrics collection for simulation runs.
//!
//! Experiments record counters (messages sent, requests observed, cache hits)
//! and time-bucketed series (requests per hour) while the simulation runs; the
//! harness then prints them next to the paper's numbers.

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A set of named counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    values: BTreeMap<String, u64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `name` by 1.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments `name` by `amount`.
    pub fn add(&mut self, name: &str, amount: u64) {
        // Look up with the borrowed key first: `entry` would allocate a
        // `String` on every call, and increments of existing counters are
        // the overwhelmingly common case.
        if let Some(value) = self.values.get_mut(name) {
            *value += amount;
        } else {
            self.values.insert(name.to_string(), amount);
        }
    }

    /// Current value of `name` (0 if never incremented).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Iterates over all counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (name, value) in other.iter() {
            self.add(name, value);
        }
    }
}

/// A member of a fixed, statically known counter set.
///
/// String-keyed [`Counters`] pay a `String` allocation plus a `BTreeMap`
/// lookup on *every* increment — measurable overhead when several counters
/// are bumped per simulation event. A `CounterId` enum instead indexes a
/// flat array: increments are a single add. [`TypedCounters::to_counters`]
/// converts back to the string-keyed form via [`CounterId::name`], so
/// externally visible reports keep their exact shape.
pub trait CounterId: Copy + 'static {
    /// Every member of the set, in index order.
    const ALL: &'static [Self];

    /// Dense index of this counter in `[0, ALL.len())`.
    fn index(self) -> usize;

    /// Stable string name used in reports (the key the string-keyed
    /// [`Counters`] representation uses).
    fn name(self) -> &'static str;
}

/// A fixed array of counters indexed by a [`CounterId`] enum — the hot-path
/// replacement for [`Counters`].
#[derive(Debug, Clone)]
pub struct TypedCounters<C: CounterId> {
    values: Box<[u64]>,
    _marker: std::marker::PhantomData<C>,
}

impl<C: CounterId> Default for TypedCounters<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: CounterId> TypedCounters<C> {
    /// Creates a zeroed counter array.
    pub fn new() -> Self {
        Self {
            values: vec![0; C::ALL.len()].into_boxed_slice(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Increments `counter` by 1.
    #[inline]
    pub fn incr(&mut self, counter: C) {
        self.values[counter.index()] += 1;
    }

    /// Increments `counter` by `amount`.
    #[inline]
    pub fn add(&mut self, counter: C, amount: u64) {
        self.values[counter.index()] += amount;
    }

    /// Current value of `counter`.
    #[inline]
    pub fn get(&self, counter: C) -> u64 {
        self.values[counter.index()]
    }

    /// Iterates over all counters in index order.
    pub fn iter(&self) -> impl Iterator<Item = (C, u64)> + '_ {
        C::ALL.iter().map(|&c| (c, self.values[c.index()]))
    }

    /// Converts to the string-keyed representation, preserving the exact
    /// names reports have always used. Counters that never fired are
    /// omitted, matching the lazy insertion of the string-keyed path.
    pub fn to_counters(&self) -> Counters {
        let mut out = Counters::new();
        for (counter, value) in self.iter() {
            if value > 0 {
                out.add(counter.name(), value);
            }
        }
        out
    }
}

/// A time series of counts bucketed by a fixed-width window (e.g. requests per
/// hour, as used for Fig. 6, or per day, as used for Fig. 4).
#[derive(Debug, Clone)]
pub struct BucketedSeries {
    bucket_width: SimDuration,
    buckets: BTreeMap<u64, u64>,
}

impl BucketedSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if the bucket width is zero.
    pub fn new(bucket_width: SimDuration) -> Self {
        assert!(
            bucket_width.as_millis() > 0,
            "bucket width must be positive"
        );
        Self {
            bucket_width,
            buckets: BTreeMap::new(),
        }
    }

    /// Hourly series.
    pub fn hourly() -> Self {
        Self::new(SimDuration::from_hours(1))
    }

    /// Daily series.
    pub fn daily() -> Self {
        Self::new(SimDuration::from_days(1))
    }

    /// The configured bucket width.
    pub fn bucket_width(&self) -> SimDuration {
        self.bucket_width
    }

    /// Records one observation at time `t`.
    pub fn record(&mut self, t: SimTime) {
        self.record_n(t, 1);
    }

    /// Records `n` observations at time `t`.
    pub fn record_n(&mut self, t: SimTime, n: u64) {
        *self
            .buckets
            .entry(t.bucket_index(self.bucket_width))
            .or_insert(0) += n;
    }

    /// Count in the bucket containing `t`.
    pub fn count_at(&self, t: SimTime) -> u64 {
        self.buckets
            .get(&t.bucket_index(self.bucket_width))
            .copied()
            .unwrap_or(0)
    }

    /// Total count across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.values().sum()
    }

    /// Iterates over `(bucket_start_time, count)` pairs in time order,
    /// including only buckets that received at least one observation.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        self.buckets.iter().map(move |(&idx, &count)| {
            (
                SimTime::from_millis(idx * self.bucket_width.as_millis()),
                count,
            )
        })
    }

    /// Dense series from bucket 0 to the last non-empty bucket, filling gaps
    /// with zero. Convenient for plotting rate curves like Fig. 6.
    pub fn dense(&self) -> Vec<(SimTime, u64)> {
        let Some((&last, _)) = self.buckets.iter().next_back() else {
            return Vec::new();
        };
        (0..=last)
            .map(|idx| {
                (
                    SimTime::from_millis(idx * self.bucket_width.as_millis()),
                    self.buckets.get(&idx).copied().unwrap_or(0),
                )
            })
            .collect()
    }

    /// Per-second rates for each bucket in the dense series.
    pub fn rates_per_second(&self) -> Vec<(SimTime, f64)> {
        let width_secs = self.bucket_width.as_secs_f64();
        self.dense()
            .into_iter()
            .map(|(t, count)| (t, count as f64 / width_secs))
            .collect()
    }

    /// Merges another series with the same bucket width.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn merge(&mut self, other: &BucketedSeries) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "cannot merge series with different bucket widths"
        );
        for (&idx, &count) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Counters::new();
        a.incr("msgs");
        a.add("msgs", 4);
        a.incr("drops");
        assert_eq!(a.get("msgs"), 5);
        assert_eq!(a.get("missing"), 0);

        let mut b = Counters::new();
        b.add("msgs", 10);
        a.merge(&b);
        assert_eq!(a.get("msgs"), 15);
        let names: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["drops", "msgs"], "iteration is name-ordered");
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TestCounter {
        Alpha,
        Beta,
        Gamma,
    }

    impl CounterId for TestCounter {
        const ALL: &'static [Self] = &[Self::Alpha, Self::Beta, Self::Gamma];

        fn index(self) -> usize {
            self as usize
        }

        fn name(self) -> &'static str {
            match self {
                Self::Alpha => "alpha",
                Self::Beta => "beta",
                Self::Gamma => "gamma",
            }
        }
    }

    #[test]
    fn typed_counters_index_and_convert() {
        let mut typed: TypedCounters<TestCounter> = TypedCounters::new();
        typed.incr(TestCounter::Alpha);
        typed.add(TestCounter::Gamma, 5);
        typed.incr(TestCounter::Gamma);
        assert_eq!(typed.get(TestCounter::Alpha), 1);
        assert_eq!(typed.get(TestCounter::Beta), 0);
        assert_eq!(typed.get(TestCounter::Gamma), 6);

        let counters = typed.to_counters();
        assert_eq!(counters.get("alpha"), 1);
        assert_eq!(counters.get("gamma"), 6);
        // Never-fired counters are omitted, like the lazily-inserted
        // string-keyed map the reports always produced.
        let names: Vec<&str> = counters.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "gamma"]);
    }

    #[test]
    fn bucketed_series_counts_per_bucket() {
        let mut s = BucketedSeries::hourly();
        s.record(SimTime::from_secs(10));
        s.record(SimTime::from_secs(3599));
        s.record(SimTime::from_secs(3600));
        s.record_n(SimTime::from_secs(7200), 5);
        assert_eq!(s.count_at(SimTime::from_secs(0)), 2);
        assert_eq!(s.count_at(SimTime::from_secs(3600)), 1);
        assert_eq!(s.count_at(SimTime::from_secs(7200)), 5);
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn dense_fills_gaps() {
        let mut s = BucketedSeries::daily();
        s.record(SimTime::ZERO + SimDuration::from_days(0));
        s.record(SimTime::ZERO + SimDuration::from_days(3));
        let dense = s.dense();
        assert_eq!(dense.len(), 4);
        assert_eq!(dense[1].1, 0);
        assert_eq!(dense[3].1, 1);
    }

    #[test]
    fn rates_divide_by_bucket_width() {
        let mut s = BucketedSeries::hourly();
        s.record_n(SimTime::from_secs(0), 3600);
        let rates = s.rates_per_second();
        assert_eq!(rates.len(), 1);
        assert!((rates[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_requires_same_width() {
        let mut a = BucketedSeries::hourly();
        let mut b = BucketedSeries::hourly();
        a.record(SimTime::from_secs(1));
        b.record(SimTime::from_secs(2));
        a.merge(&b);
        assert_eq!(a.total(), 2);
    }

    #[test]
    #[should_panic(expected = "different bucket widths")]
    fn merge_different_widths_panics() {
        let mut a = BucketedSeries::hourly();
        a.merge(&BucketedSeries::daily());
    }

    #[test]
    fn empty_series_dense_is_empty() {
        let s = BucketedSeries::hourly();
        assert!(s.dense().is_empty());
        assert_eq!(s.total(), 0);
    }
}
