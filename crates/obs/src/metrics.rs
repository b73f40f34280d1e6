//! Lock-free counters, gauges, and log2 histograms in one process-wide set
//! of atomics.
//!
//! # Design
//!
//! Metric *names* are registered once through a mutex-guarded name table
//! (registration is rare — typically a handful of times per process, cached
//! at the call site via [`crate::counter!`] and friends). The returned
//! handles are plain `Copy` indices into one `static` array of `AtomicU64`
//! per kind: counters, gauges, histogram counts, sums and buckets. Metric
//! *updates* are a relaxed `fetch_add` (or `store`, for a gauge) on that
//! array and never block; [`snapshot`] loads it. The arrays are fixed-size
//! statics, so the registry holds the same memory however many threads
//! touch it or exit.
//!
//! Writers on different threads share those atomics. That is cheap because
//! every hot site batches or samples: a [`BatchedCounter`] touches its
//! atomic once per [`BatchedCounter::BATCH`] increments, per-event spans are
//! sampled 1 in 1024, and everything else fires once per chunk, per poll or
//! per pass.
//!
//! # Histograms
//!
//! Histograms use 65 fixed log2 buckets: bucket 0 holds the value 0 and
//! bucket `i ≥ 1` holds `[2^(i-1), 2^i)`. That covers the full `u64` range
//! with ~2× relative error per bucket — plenty for wall-time-in-nanoseconds
//! span data — and makes recording branch-free beyond a `leading_zeros`.
//! [`HistogramSnapshot::quantile`] interpolates linearly inside a bucket.
//!
//! # Capacity
//!
//! The arrays have fixed capacities (`256` counters, `64` gauges, `128`
//! histograms). Registration past capacity returns a *dead* handle whose
//! operations are silently ignored — the pipeline registers a few dozen
//! metrics, so hitting the ceiling means a naming bug, not a sizing problem.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// Number of histogram buckets: one for zero plus one per power of two.
pub const BUCKETS: usize = 65;

const MAX_COUNTERS: usize = 256;
const MAX_GAUGES: usize = 64;
const MAX_HISTOGRAMS: usize = 128;

/// Handle index marking a metric that could not be registered (name table
/// full). All operations on a dead handle are no-ops.
const DEAD: u16 = u16::MAX;

static COUNTERS: [AtomicU64; MAX_COUNTERS] = [const { AtomicU64::new(0) }; MAX_COUNTERS];
static GAUGES: [AtomicU64; MAX_GAUGES] = [const { AtomicU64::new(0) }; MAX_GAUGES];
static HIST_COUNTS: [AtomicU64; MAX_HISTOGRAMS] = [const { AtomicU64::new(0) }; MAX_HISTOGRAMS];
static HIST_SUMS: [AtomicU64; MAX_HISTOGRAMS] = [const { AtomicU64::new(0) }; MAX_HISTOGRAMS];
/// `MAX_HISTOGRAMS × BUCKETS`, row-major by histogram index.
static HIST_BUCKETS: [AtomicU64; MAX_HISTOGRAMS * BUCKETS] =
    [const { AtomicU64::new(0) }; MAX_HISTOGRAMS * BUCKETS];

static COUNTER_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());
static GAUGE_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());
static HISTOGRAM_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Returns the `[low, high]` value range covered by a histogram bucket.
///
/// Bucket 0 covers only the value 0; bucket `i ≥ 1` covers
/// `[2^(i-1), 2^i - 1]` (bucket 64 tops out at `u64::MAX`).
pub fn bucket_bounds(bucket: u8) -> (u64, u64) {
    match bucket {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// Maps a value to its histogram bucket index (inverse of [`bucket_bounds`]).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros()) as usize
    }
}

/// The atomic behind a live handle, or `None` for a dead one ([`DEAD`] is
/// past the end of every array).
#[inline]
fn slot(array: &[AtomicU64], idx: u16) -> Option<&AtomicU64> {
    array.get(usize::from(idx))
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. `Copy`; cheap to pass around.
///
/// Obtain one with [`counter`] (or the caching [`crate::counter!`] macro) and
/// bump it with [`Counter::add`] / [`Counter::incr`]. For per-event hot loops
/// wrap it in a [`BatchedCounter`] so the shared atomic is only touched every
/// few thousand increments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    idx: u16,
}

impl Counter {
    /// Adds `n` to the counter (relaxed).
    #[inline]
    pub fn add(self, n: u64) {
        if let Some(total) = slot(&COUNTERS, self.idx) {
            total.fetch_add(n, Relaxed);
        }
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn incr(self) {
        self.add(1);
    }
}

/// A last-write-wins gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    idx: u16,
}

impl Gauge {
    /// Stores `value` (relaxed).
    #[inline]
    pub fn set(self, value: u64) {
        if let Some(gauge) = slot(&GAUGES, self.idx) {
            gauge.store(value, Relaxed);
        }
    }

    /// Loads the current value (relaxed).
    #[inline]
    pub fn get(self) -> u64 {
        slot(&GAUGES, self.idx).map_or(0, |gauge| gauge.load(Relaxed))
    }
}

/// A log2-bucketed histogram of `u64` samples (conventionally nanoseconds
/// for stage timings — name the metric `*_ns` to say so).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    idx: u16,
}

impl Histogram {
    /// Records one sample (three relaxed `fetch_add`s: count, sum, bucket).
    #[inline]
    pub fn record(self, value: u64) {
        let Some(count) = slot(&HIST_COUNTS, self.idx) else {
            return;
        };
        let i = self.idx as usize;
        count.fetch_add(1, Relaxed);
        HIST_SUMS[i].fetch_add(value, Relaxed);
        HIST_BUCKETS[i * BUCKETS + bucket_index(value)].fetch_add(1, Relaxed);
    }

    /// Starts an RAII span: the elapsed wall time in nanoseconds is recorded
    /// into this histogram when the returned [`SpanTimer`] drops.
    #[inline]
    pub fn timer(self) -> SpanTimer {
        SpanTimer {
            hist: self,
            start: std::time::Instant::now(),
        }
    }
}

/// RAII stage timer created by [`Histogram::timer`]; records elapsed
/// nanoseconds into the histogram on drop.
#[must_use = "a span timer records on drop; binding it to _ discards the span immediately"]
#[derive(Debug)]
pub struct SpanTimer {
    hist: Histogram,
    start: std::time::Instant,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.hist
            .record(u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

/// A counter front-end that accumulates locally and flushes to the shared
/// atomic every [`BatchedCounter::BATCH`] increments (and on drop).
///
/// Use this for per-event hot loops — the simulator dispatches ~10M events/s,
/// where even a relaxed `fetch_add` per event would be a measurable tax. The
/// flush granularity means [`snapshot`] can lag the true total by up to
/// `BATCH - 1` per live `BatchedCounter`.
#[derive(Debug)]
pub struct BatchedCounter {
    counter: Counter,
    local: u64,
}

impl BatchedCounter {
    /// Increments between flushes to the shared atomic.
    pub const BATCH: u64 = 4096;

    /// Wraps a counter handle.
    pub fn new(counter: Counter) -> Self {
        Self { counter, local: 0 }
    }

    /// Adds `n` locally, flushing if the local tally reached
    /// [`BatchedCounter::BATCH`].
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.local += n;
        if self.local >= Self::BATCH {
            self.flush();
        }
    }

    /// Adds 1 locally.
    #[inline]
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Pushes the local tally to the shared atomic.
    pub fn flush(&mut self) {
        if self.local > 0 {
            self.counter.add(self.local);
            self.local = 0;
        }
    }
}

impl Drop for BatchedCounter {
    fn drop(&mut self) {
        self.flush();
    }
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

/// Looks `name` up in `table`, appending it if there is room; returns its
/// index or [`DEAD`].
fn register(table: &Mutex<Vec<String>>, cap: usize, name: &str) -> u16 {
    let mut names = table.lock().unwrap();
    if let Some(i) = names.iter().position(|n| n == name) {
        return i as u16;
    }
    if names.len() >= cap {
        return DEAD;
    }
    names.push(name.to_string());
    (names.len() - 1) as u16
}

/// Registers (or looks up) a counter by name. Registration takes a mutex;
/// cache the handle — see [`crate::counter!`].
pub fn counter(name: &str) -> Counter {
    Counter {
        idx: register(&COUNTER_NAMES, MAX_COUNTERS, name),
    }
}

/// Registers (or looks up) a gauge by name.
pub fn gauge(name: &str) -> Gauge {
    Gauge {
        idx: register(&GAUGE_NAMES, MAX_GAUGES, name),
    }
}

/// Registers (or looks up) a histogram by name.
pub fn histogram(name: &str) -> Histogram {
    Histogram {
        idx: register(&HISTOGRAM_NAMES, MAX_HISTOGRAMS, name),
    }
}

/// Registers a counter once per call site and caches the handle in a static,
/// so hot paths skip the registry mutex entirely.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// Registers a gauge once per call site and caches the handle in a static.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Registers a histogram once per call site and caches the handle in a
/// static.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::histogram($name))
    }};
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time reading of every registered metric.
///
/// The heartbeat reporter builds its lines from this. Counter totals can lag
/// live [`BatchedCounter`]s by up to one batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals by name (all registered counters, including zeros).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram state by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Aggregated state of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Non-empty buckets as `(bucket_index, sample_count)`, ascending by
    /// index. See [`bucket_bounds`] for the value range of each index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by walking the
    /// cumulative bucket counts and interpolating linearly inside the
    /// containing bucket. Exact to within the bucket's ~2× width.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for &(bucket, count) in &self.buckets {
            let next = cumulative + count;
            if next as f64 >= rank {
                let (low, high) = bucket_bounds(bucket);
                let within = if count == 0 {
                    0.0
                } else {
                    (rank - cumulative as f64) / count as f64
                };
                return low as f64 + within * (high - low) as f64;
            }
            cumulative = next;
        }
        // Rounding left us past the last bucket: report its upper bound.
        self.buckets
            .last()
            .map_or(0.0, |&(bucket, _)| bucket_bounds(bucket).1 as f64)
    }

    /// Upper bound of the largest non-empty bucket — an upper estimate of
    /// the maximum recorded sample. 0 for an empty histogram.
    pub fn max_bound(&self) -> u64 {
        self.buckets
            .last()
            .map_or(0, |&(bucket, _)| bucket_bounds(bucket).1)
    }
}

/// Loads every registered metric into a [`Snapshot`]. Takes the name-table
/// mutexes briefly but never blocks metric writers.
pub fn snapshot() -> Snapshot {
    let counter_names = COUNTER_NAMES.lock().unwrap().clone();
    let gauge_names = GAUGE_NAMES.lock().unwrap().clone();
    let histogram_names = HISTOGRAM_NAMES.lock().unwrap().clone();

    let mut snap = Snapshot::default();
    for (name, total) in counter_names.into_iter().zip(&COUNTERS) {
        snap.counters.insert(name, total.load(Relaxed));
    }
    for (name, value) in gauge_names.into_iter().zip(&GAUGES) {
        snap.gauges.insert(name, value.load(Relaxed));
    }
    for (i, name) in histogram_names.into_iter().enumerate() {
        let row = &HIST_BUCKETS[i * BUCKETS..(i + 1) * BUCKETS];
        let hist = HistogramSnapshot {
            count: HIST_COUNTS[i].load(Relaxed),
            sum: HIST_SUMS[i].load(Relaxed),
            buckets: (0u8..)
                .zip(row)
                .map(|(bucket, count)| (bucket, count.load(Relaxed)))
                .filter(|&(_, count)| count > 0)
                .collect(),
        };
        snap.histograms.insert(name, hist);
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        // Every bucket's bounds map back to that bucket, and the values just
        // outside map to the neighbors.
        for bucket in 0..BUCKETS as u8 {
            let (low, high) = bucket_bounds(bucket);
            assert_eq!(bucket_index(low), bucket as usize, "low bound of {bucket}");
            assert_eq!(
                bucket_index(high),
                bucket as usize,
                "high bound of {bucket}"
            );
            if bucket > 0 {
                assert_eq!(bucket_index(low - 1), bucket as usize - 1);
            }
            if high < u64::MAX {
                assert_eq!(bucket_index(high + 1), bucket as usize + 1);
            }
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let c = counter("test.metrics.threads");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        c.add(5);
        assert_eq!(snapshot().counters["test.metrics.threads"], 4005);
    }

    #[test]
    fn gauges_are_global_last_write_wins() {
        let g = gauge("test.metrics.gauge");
        g.set(7);
        g.set(42);
        assert_eq!(g.get(), 42);
        assert_eq!(snapshot().gauges["test.metrics.gauge"], 42);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let mut hist = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        assert_eq!(hist.quantile(0.5), 0.0);

        // 100 samples of value 1 (bucket 1), 100 of value ~1000 (bucket 10:
        // [512, 1023]).
        hist.count = 200;
        hist.sum = 100 + 100 * 1000;
        hist.buckets = vec![(1, 100), (10, 100)];
        // Median sits at the boundary: still inside bucket 1.
        assert_eq!(hist.quantile(0.5), 1.0);
        // p75 lands halfway through bucket 10.
        let p75 = hist.quantile(0.75);
        assert!((512.0..=1023.0).contains(&p75), "p75 = {p75}");
        // p100 is the top of the last bucket.
        assert_eq!(hist.quantile(1.0), 1023.0);
        assert_eq!(hist.max_bound(), 1023);
        assert!((hist.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histograms_aggregate_shards_and_snapshot() {
        let h = histogram("test.metrics.hist");
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                scope.spawn(move || {
                    for i in 0..100u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = snapshot();
        let hist = &snap.histograms["test.metrics.hist"];
        assert_eq!(hist.count, 400);
        let bucket_total: u64 = hist.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(bucket_total, 400);
        assert_eq!(
            hist.sum,
            (0..4).map(|t| t * 1000 * 100).sum::<u64>() + 4 * 4950
        );
    }

    #[test]
    fn batched_counter_flushes_on_drop() {
        let c = counter("test.metrics.batched");
        {
            let mut batched = BatchedCounter::new(c);
            for _ in 0..10 {
                batched.incr();
            }
            // Below the batch threshold: nothing visible yet.
            assert_eq!(snapshot().counters["test.metrics.batched"], 0);
        }
        assert_eq!(snapshot().counters["test.metrics.batched"], 10);
    }

    #[test]
    fn span_timer_records_on_drop() {
        let h = histogram("test.metrics.span");
        {
            let _span = h.timer();
            std::hint::black_box(0u64);
        }
        assert_eq!(snapshot().histograms["test.metrics.span"].count, 1);
    }

    #[test]
    fn dead_handles_are_silent() {
        // Forged dead handles must be safe to use.
        let c = Counter { idx: u16::MAX };
        c.add(10);
        let g = Gauge { idx: u16::MAX };
        g.set(1);
        assert_eq!(g.get(), 0);
        let h = Histogram { idx: u16::MAX };
        h.record(9);
    }
}
