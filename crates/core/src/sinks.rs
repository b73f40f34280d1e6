//! The merge-order-independent analyses, ported to the parallel analysis
//! engine ([`AnalysisSink`]).
//!
//! Each sink here is the *canonical* implementation of its analysis; every
//! analysis has exactly two entry points — the sink (driven over any trace
//! source by [`run_sink`](ipfs_mon_tracestore::run_sink), or per monitor via
//! [`ManifestReader::run_parallel`](ipfs_mon_tracestore::ManifestReader::run_parallel))
//! and the in-memory function over an already-flagged trace
//! (`request_type_series`, `popularity_scores`, `per_peer_request_counts`,
//! …), which shares the sink's accumulator where one exists and is the
//! reference the equivalence suites compare against
//! (`tests/parallel_analysis.rs`).
//!
//! Every sink's `combine` works on exact aggregates (integer counters, bucket
//! maps, requester sets); floating-point results are only derived in
//! `finish`, so partials combine in any order without drift and the parallel
//! output is value-identical to the serial one, not merely close.
//!
//! | sink | analysis | output |
//! |------|----------|--------|
//! | [`RequestTypeSink`] | Fig. 4 want-type series, per monitor | `Vec<RequestTypeSeries>` |
//! | [`PopularitySink`] | raw (RRP) + unique (URP) popularity | [`PopularityScores`] |
//! | [`ActivityCountsSink`] | per-peer counts, multicodec shares | [`ActivityCounts`] |
//! | [`EntryStatsSink`] | per-monitor descriptive stats | `Vec<MonitorEntryStats>` |

use crate::activity::{RequestTypeSeries, TypeSeriesAccum};
use crate::popularity::{PopularityScores, ScoreAccumulator};
use crate::trace::TraceEntry;
use ipfs_mon_analysis::StreamSummary;
use ipfs_mon_bitswap::RequestType;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_tracestore::{AnalysisSink, ChunkView, Rows};
use ipfs_mon_types::{Multicodec, PeerId};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Request-type series (Fig. 4)
// ---------------------------------------------------------------------------

/// Builds the Fig. 4 request-type series of *every* monitor in one pass:
/// raw per-type counts (no deduplication, cancels excluded) bucketed by a
/// fixed width, one series per monitor index.
#[derive(Debug, Clone)]
pub struct RequestTypeSink {
    bucket: SimDuration,
    per_monitor: Vec<TypeSeriesAccum>,
}

impl RequestTypeSink {
    /// Creates a sink with the given bucket width (the paper uses daily
    /// buckets for Fig. 4).
    pub fn new(bucket: SimDuration) -> Self {
        Self {
            bucket,
            per_monitor: Vec::new(),
        }
    }

    fn slot(&mut self, monitor: usize) -> &mut TypeSeriesAccum {
        while self.per_monitor.len() <= monitor {
            self.per_monitor.push(TypeSeriesAccum::new(self.bucket));
        }
        &mut self.per_monitor[monitor]
    }
}

impl AnalysisSink for RequestTypeSink {
    type Output = Vec<RequestTypeSeries>;
    const ROWS: Rows = Rows::None;

    fn consume(&mut self, entry: TraceEntry) {
        self.slot(entry.monitor).record(&entry);
    }

    fn consume_chunk(&mut self, monitor: usize, chunk: &ChunkView<'_>) {
        let bucket = self.bucket;
        let accum = self.slot(monitor);
        // A row mostly falls into the bucket of the previous row of its
        // type: count such a run here and touch the series once per run.
        // Per want type: a timestamp inside the run's bucket, and its rows.
        let mut runs: [Option<(SimTime, u64)>; 2] = [None; 2];
        let types = [RequestType::WantHave, RequestType::WantBlock];
        for (row, &ms) in chunk.timestamps_ms().iter().enumerate() {
            let Some(slot) = types.iter().position(|&t| t == chunk.request_type(row)) else {
                continue;
            };
            let at = SimTime::from_millis(ms);
            match &mut runs[slot] {
                Some((first, rows)) if first.bucket_index(bucket) == at.bucket_index(bucket) => {
                    *rows += 1;
                }
                run => {
                    if let Some((first, rows)) = run.replace((at, 1)) {
                        accum.record_n(types[slot], first, rows);
                    }
                }
            }
        }
        for (request_type, run) in types.into_iter().zip(runs) {
            if let Some((first, rows)) = run {
                accum.record_n(request_type, first, rows);
            }
        }
    }

    fn combine(&mut self, other: Self) {
        for (monitor, accum) in other.per_monitor.into_iter().enumerate() {
            self.slot(monitor).merge(accum);
        }
    }

    fn finish(self) -> Vec<RequestTypeSeries> {
        self.per_monitor
            .into_iter()
            .map(TypeSeriesAccum::finish)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Popularity (Sec. V-E)
// ---------------------------------------------------------------------------

/// Computes raw (RRP) and unique (URP) request popularity per CID over the
/// primary requests of a stream — the sink form of
/// [`crate::popularity::popularity_scores`].
#[derive(Debug, Clone, Default)]
pub struct PopularitySink {
    accumulator: ScoreAccumulator,
}

impl PopularitySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AnalysisSink for PopularitySink {
    type Output = PopularityScores;
    const ROWS: Rows = Rows::None;

    fn consume(&mut self, entry: TraceEntry) {
        if entry.flags.is_primary() && entry.is_request() {
            self.accumulator.add(&entry.cid, entry.peer);
        }
    }

    fn consume_chunk(&mut self, _monitor: usize, chunk: &ChunkView<'_>) {
        // Requests per CID index, and the (CID index, peer index) of every
        // primary request: sorted, they group by CID with each requester
        // once.
        let mut requests = vec![0u64; chunk.cid_dict().len()];
        let mut pairs = Vec::with_capacity(chunk.len());
        let columns = chunk.cid_indexes().iter().zip(chunk.peer_indexes());
        for (row, (&cid, &peer)) in columns.enumerate() {
            if chunk.flags(row).is_primary() && chunk.request_type(row) != RequestType::Cancel {
                requests[cid] += 1;
                pairs.push((cid, peer));
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        // The global map is touched once per distinct CID of the chunk, a
        // requester set once per distinct (CID, peer) pair.
        for of_cid in pairs.chunk_by(|a, b| a.0 == b.0) {
            let cid = of_cid[0].0;
            self.accumulator.add_requests(
                &chunk.cid_dict()[cid],
                requests[cid],
                of_cid.iter().map(|&(_, peer)| chunk.peer(peer)),
            );
        }
    }

    fn combine(&mut self, other: Self) {
        self.accumulator.merge(other.accumulator);
    }

    fn finish(self) -> PopularityScores {
        self.accumulator.finish()
    }
}

// ---------------------------------------------------------------------------
// Activity counts (Table I, outlier peers)
// ---------------------------------------------------------------------------

/// Aggregate request-activity counts of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityCounts {
    /// Primary (deduplicated) request count per peer, sorted descending —
    /// the rows of [`crate::activity::per_peer_request_counts`].
    pub per_peer: Vec<(PeerId, u64)>,
    /// `(codec, raw request count, share)` rows sorted descending — the
    /// rows of [`crate::activity::multicodec_shares`] (computed on *raw*
    /// requests, as the paper derives Table I).
    pub multicodec: Vec<(Multicodec, u64, f64)>,
    /// Total raw requests (wants of either type, duplicates included).
    pub raw_requests: u64,
    /// Raw requests surviving both preprocessing filters.
    pub primary_requests: u64,
    /// Cancel entries.
    pub cancels: u64,
}

/// Counts per-peer and per-multicodec request activity — the sink form of
/// [`crate::activity::per_peer_request_counts`] and
/// [`crate::activity::multicodec_shares`] in one pass.
#[derive(Debug, Clone, Default)]
pub struct ActivityCountsSink {
    per_peer: BTreeMap<PeerId, u64>,
    multicodec: BTreeMap<Multicodec, u64>,
    raw_requests: u64,
    primary_requests: u64,
    cancels: u64,
}

impl ActivityCountsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ActivityCountsSink {
    /// Accounts `n` raw requests for CIDs of one codec (Table I counts raw
    /// requests).
    fn add_raw(&mut self, codec: Multicodec, n: u64) {
        *self.multicodec.entry(codec).or_insert(0) += n;
        self.raw_requests += n;
    }

    /// Accounts `n` primary requests of one peer (the per-peer outlier table
    /// counts primary requests).
    fn add_primary(&mut self, peer: PeerId, n: u64) {
        *self.per_peer.entry(peer).or_insert(0) += n;
        self.primary_requests += n;
    }
}

impl AnalysisSink for ActivityCountsSink {
    type Output = ActivityCounts;
    const ROWS: Rows = Rows::None;

    fn consume(&mut self, entry: TraceEntry) {
        if !entry.is_request() {
            self.cancels += 1;
            return;
        }
        self.add_raw(entry.cid.codec(), 1);
        if entry.flags.is_primary() {
            self.add_primary(entry.peer, 1);
        }
    }

    fn consume_chunk(&mut self, _monitor: usize, chunk: &ChunkView<'_>) {
        // Count per dictionary index; the maps are touched once per CID and
        // per peer that a row of the chunk actually counted.
        let mut raw = vec![0u64; chunk.cid_dict().len()];
        let mut primary = vec![0u64; chunk.peer_dict_len()];
        let columns = chunk.cid_indexes().iter().zip(chunk.peer_indexes());
        for (row, (&cid, &peer)) in columns.enumerate() {
            if chunk.request_type(row) == RequestType::Cancel {
                self.cancels += 1;
                continue;
            }
            raw[cid] += 1;
            if chunk.flags(row).is_primary() {
                primary[peer] += 1;
            }
        }
        for (cid, n) in chunk.cid_dict().iter().zip(raw) {
            if n > 0 {
                self.add_raw(cid.codec(), n);
            }
        }
        for (peer, n) in primary.into_iter().enumerate() {
            if n > 0 {
                self.add_primary(chunk.peer(peer), n);
            }
        }
    }

    fn combine(&mut self, other: Self) {
        for (peer, count) in other.per_peer {
            *self.per_peer.entry(peer).or_insert(0) += count;
        }
        for (codec, count) in other.multicodec {
            *self.multicodec.entry(codec).or_insert(0) += count;
        }
        self.raw_requests += other.raw_requests;
        self.primary_requests += other.primary_requests;
        self.cancels += other.cancels;
    }

    fn finish(self) -> ActivityCounts {
        let mut per_peer: Vec<(PeerId, u64)> = self.per_peer.into_iter().collect();
        per_peer.sort_by_key(|row| std::cmp::Reverse(row.1));
        let total = self.raw_requests;
        let mut multicodec: Vec<(Multicodec, u64, f64)> = self
            .multicodec
            .into_iter()
            .map(|(codec, count)| {
                let share = if total == 0 {
                    0.0
                } else {
                    count as f64 / total as f64
                };
                (codec, count, share)
            })
            .collect();
        multicodec.sort_by_key(|row| std::cmp::Reverse(row.1));
        ActivityCounts {
            per_peer,
            multicodec,
            raw_requests: self.raw_requests,
            primary_requests: self.primary_requests,
            cancels: self.cancels,
        }
    }
}

// ---------------------------------------------------------------------------
// Descriptive stats
// ---------------------------------------------------------------------------

/// Descriptive statistics of one monitor's entry stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorEntryStats {
    /// Entries observed by the monitor.
    pub entries: u64,
    /// Raw requests among them.
    pub requests: u64,
    /// Cancels among them.
    pub cancels: u64,
    /// Timestamp of the first entry.
    pub first: Option<SimTime>,
    /// Timestamp of the last entry.
    pub last: Option<SimTime>,
    /// Summary of the inter-arrival gaps (milliseconds) of the monitor's
    /// time-sorted stream; `None` with fewer than two entries.
    pub inter_arrival_ms: Option<StreamSummary>,
}

/// Exact per-monitor accumulation: counters and integer moment sums, so
/// partials combine without floating-point drift (all `f64` math is deferred
/// to `finish`).
#[derive(Debug, Clone, Default)]
struct StatsAccum {
    entries: u64,
    requests: u64,
    cancels: u64,
    first: Option<SimTime>,
    last: Option<SimTime>,
    gap_count: u64,
    gap_sum: u128,
    gap_sum_sq: u128,
    gap_min: u64,
    gap_max: u64,
}

impl StatsAccum {
    fn record_gap(&mut self, gap_ms: u64) {
        if self.gap_count == 0 {
            self.gap_min = gap_ms;
            self.gap_max = gap_ms;
        } else {
            self.gap_min = self.gap_min.min(gap_ms);
            self.gap_max = self.gap_max.max(gap_ms);
        }
        self.gap_count += 1;
        self.gap_sum += gap_ms as u128;
        self.gap_sum_sq += (gap_ms as u128) * (gap_ms as u128);
    }

    /// The order-dependent half of a row: span and inter-arrival gap.
    fn record_time(&mut self, ts: SimTime) {
        if let Some(last) = self.last {
            // Per-monitor streams are time-sorted by every driver; the
            // saturation only guards against a contract-violating caller.
            self.record_gap(ts.as_millis().saturating_sub(last.as_millis()));
        }
        self.first = Some(self.first.map_or(ts, |f| f.min(ts)));
        self.last = Some(self.last.map_or(ts, |l| l.max(ts)));
    }

    /// The order-free half: `requests` wants and `cancels` cancels.
    fn record_kinds(&mut self, requests: u64, cancels: u64) {
        self.entries += requests + cancels;
        self.requests += requests;
        self.cancels += cancels;
    }

    /// Merges two partials of the same monitor stream. This is where the
    /// sink contract's *time-contiguous runs* requirement bites: the
    /// earlier partial (by first timestamp) is treated as wholly preceding
    /// the later one — commutative — and the single boundary gap between
    /// them is counted, so splitting a stream at any point and
    /// re-combining loses nothing. Interleaved partials of one monitor
    /// (which no driver produces) would mis-attribute gaps.
    fn merge(&mut self, other: Self) {
        if other.entries == 0 {
            return;
        }
        if self.entries == 0 {
            *self = other;
            return;
        }
        let (mut earlier, later) = if other.first < self.first {
            (other, std::mem::take(self))
        } else {
            (std::mem::take(self), other)
        };
        let boundary = later
            .first
            .expect("non-empty partial has a first timestamp")
            .as_millis()
            .saturating_sub(
                earlier
                    .last
                    .expect("non-empty partial has a last timestamp")
                    .as_millis(),
            );
        earlier.record_gap(boundary);
        earlier.entries += later.entries;
        earlier.requests += later.requests;
        earlier.cancels += later.cancels;
        earlier.last = earlier.last.max(later.last);
        if later.gap_count > 0 {
            earlier.gap_min = earlier.gap_min.min(later.gap_min);
            earlier.gap_max = earlier.gap_max.max(later.gap_max);
            earlier.gap_count += later.gap_count;
            earlier.gap_sum += later.gap_sum;
            earlier.gap_sum_sq += later.gap_sum_sq;
        }
        *self = earlier;
    }

    fn finish(self) -> MonitorEntryStats {
        let inter_arrival_ms = (self.gap_count > 0).then(|| {
            let count = self.gap_count as f64;
            let mean = self.gap_sum as f64 / count;
            let variance = (self.gap_sum_sq as f64 / count - mean * mean).max(0.0);
            StreamSummary {
                count: self.gap_count as usize,
                mean,
                std_dev: variance.sqrt(),
                min: self.gap_min as f64,
                max: self.gap_max as f64,
            }
        });
        MonitorEntryStats {
            entries: self.entries,
            requests: self.requests,
            cancels: self.cancels,
            first: self.first,
            last: self.last,
            inter_arrival_ms,
        }
    }
}

/// Computes per-monitor descriptive statistics (entry/request/cancel counts,
/// trace span, inter-arrival summary) in one pass. State is keyed by
/// monitor, so the sink is indifferent to how the monitors' streams are
/// interleaved — the property every [`AnalysisSink`] needs.
#[derive(Debug, Clone, Default)]
pub struct EntryStatsSink {
    per_monitor: Vec<StatsAccum>,
}

impl EntryStatsSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&mut self, monitor: usize) -> &mut StatsAccum {
        while self.per_monitor.len() <= monitor {
            self.per_monitor.push(StatsAccum::default());
        }
        &mut self.per_monitor[monitor]
    }
}

impl AnalysisSink for EntryStatsSink {
    type Output = Vec<MonitorEntryStats>;
    /// Of a row in order, only the timestamp matters (span, gaps); what
    /// kind of row it is can be counted in any order, so per chunk.
    const ROWS: Rows = Rows::Times;

    fn consume(&mut self, entry: TraceEntry) {
        let accum = self.slot(entry.monitor);
        let request = u64::from(entry.is_request());
        accum.record_kinds(request, 1 - request);
        accum.record_time(entry.timestamp);
    }

    fn consume_chunk(&mut self, monitor: usize, chunk: &ChunkView<'_>) {
        let requests = (0..chunk.len())
            .filter(|&row| chunk.request_type(row).is_request())
            .count() as u64;
        self.slot(monitor)
            .record_kinds(requests, chunk.len() as u64 - requests);
    }

    fn consume_time(&mut self, monitor: usize, timestamp: SimTime) {
        self.slot(monitor).record_time(timestamp);
    }

    fn combine(&mut self, other: Self) {
        for (monitor, accum) in other.per_monitor.into_iter().enumerate() {
            self.slot(monitor).merge(accum);
        }
    }

    fn finish(self) -> Vec<MonitorEntryStats> {
        self.per_monitor
            .into_iter()
            .map(StatsAccum::finish)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EntryFlags, UnifiedTrace};
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Transport};

    fn entry(ms: u64, peer: u64, monitor: usize, rtype: RequestType) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(4, peer),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::De),
            request_type: rtype,
            cid: Cid::new_v1(Multicodec::Raw, &[peer as u8]),
            monitor,
            flags: EntryFlags::default(),
        }
    }

    fn sample_entries() -> Vec<TraceEntry> {
        let mut entries = Vec::new();
        for i in 0..40u64 {
            let rtype = match i % 5 {
                0 => RequestType::WantBlock,
                4 => RequestType::Cancel,
                _ => RequestType::WantHave,
            };
            entries.push(entry(i * 250, i % 7, (i % 2) as usize, rtype));
        }
        entries
    }

    fn fold<K: AnalysisSink>(mut sink: K, entries: &[TraceEntry]) -> K {
        for e in entries {
            sink.consume(e.clone());
        }
        sink
    }

    /// Splitting a stream at any point and combining the partials must equal
    /// consuming it whole — the sink contract, on every ported sink.
    #[test]
    fn split_and_combine_equals_whole() {
        let entries = sample_entries();
        for split in [0, 1, 13, 20, 39, 40] {
            let (a, b) = entries.split_at(split);

            let whole = fold(EntryStatsSink::new(), &entries).finish();
            let mut left = fold(EntryStatsSink::new(), a);
            left.combine(fold(EntryStatsSink::new(), b));
            assert_eq!(whole, left.finish(), "stats split at {split}");

            let whole = fold(PopularitySink::new(), &entries).finish();
            let mut left = fold(PopularitySink::new(), a);
            left.combine(fold(PopularitySink::new(), b));
            assert_eq!(whole, left.finish(), "popularity split at {split}");

            let bucket = SimDuration::from_secs(1);
            let whole = fold(RequestTypeSink::new(bucket), &entries).finish();
            let mut left = fold(RequestTypeSink::new(bucket), a);
            left.combine(fold(RequestTypeSink::new(bucket), b));
            let merged = left.finish();
            assert_eq!(whole.len(), merged.len());
            for (w, m) in whole.iter().zip(&merged) {
                assert_eq!(w.rows, m.rows, "series split at {split}");
            }

            let whole = fold(ActivityCountsSink::new(), &entries).finish();
            let mut left = fold(ActivityCountsSink::new(), a);
            left.combine(fold(ActivityCountsSink::new(), b));
            assert_eq!(whole, left.finish(), "activity split at {split}");
        }
    }

    #[test]
    fn stats_track_span_and_gaps() {
        let entries = vec![
            entry(1_000, 1, 0, RequestType::WantHave),
            entry(1_500, 2, 0, RequestType::WantHave),
            entry(3_500, 3, 0, RequestType::Cancel),
        ];
        let stats = fold(EntryStatsSink::new(), &entries).finish();
        assert_eq!(stats.len(), 1);
        let m = &stats[0];
        assert_eq!((m.entries, m.requests, m.cancels), (3, 2, 1));
        assert_eq!(m.first, Some(SimTime::from_millis(1_000)));
        assert_eq!(m.last, Some(SimTime::from_millis(3_500)));
        let gaps = m.inter_arrival_ms.unwrap();
        assert_eq!(gaps.count, 2);
        assert_eq!(gaps.min, 500.0);
        assert_eq!(gaps.max, 2_000.0);
        assert!((gaps.mean - 1_250.0).abs() < 1e-9);
    }

    #[test]
    fn activity_counts_match_wrapped_entry_points() {
        let entries = sample_entries();
        let counts = fold(ActivityCountsSink::new(), &entries).finish();
        let per_peer = crate::activity::per_peer_request_counts(&UnifiedTrace {
            entries: entries.clone(),
        });
        assert_eq!(counts.per_peer, per_peer);
        assert_eq!(counts.raw_requests + counts.cancels, entries.len() as u64);
        let share_sum: f64 = counts.multicodec.iter().map(|(_, _, s)| s).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }
}
