//! Activity-level and activity-structure analyses (Sec. V-D, Fig. 4, Fig. 6,
//! Tables I and II).
//!
//! Everything here operates on traces:
//!
//! * requests over time, broken down by request type (Fig. 4 — the
//!   `WANT_BLOCK` → `WANT_HAVE` transition after the v0.5 release);
//! * request shares by multicodec (Table I) — computed on *raw* requests, as
//!   in the paper;
//! * request shares by origin country (Table II) — computed on the unified,
//!   deduplicated trace;
//! * request rates by origin group — gateway vs non-gateway vs a designated
//!   dominant operator (Fig. 6).

use crate::trace::{MonitoringDataset, UnifiedTrace};
use ipfs_mon_bitswap::RequestType;
use ipfs_mon_simnet::metrics::BucketedSeries;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_types::{Country, Multicodec, PeerId};
use std::collections::{BTreeMap, HashSet};

/// Requests per time bucket, per request type (Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTypeSeries {
    /// Bucket width used.
    pub bucket: SimDuration,
    /// `(bucket start, WANT_HAVE count, WANT_BLOCK count)` rows, dense from
    /// the first to the last non-empty bucket.
    pub rows: Vec<(SimTime, u64, u64)>,
}

/// The per-stream accumulator behind both Fig. 4 entry points (in-memory
/// [`request_type_series`] and the per-monitor
/// [`crate::sinks::RequestTypeSink`]): two bucketed counters, one per want
/// type, raw (no deduplication) and without cancels. Keeping both entry
/// points on this one type is what makes their equivalence an identity
/// rather than a proof obligation.
#[derive(Debug, Clone)]
pub(crate) struct TypeSeriesAccum {
    bucket: SimDuration,
    want_have: BucketedSeries,
    want_block: BucketedSeries,
}

impl TypeSeriesAccum {
    pub(crate) fn new(bucket: SimDuration) -> Self {
        Self {
            bucket,
            want_have: BucketedSeries::new(bucket),
            want_block: BucketedSeries::new(bucket),
        }
    }

    pub(crate) fn record(&mut self, entry: &crate::trace::TraceEntry) {
        self.record_n(entry.request_type, entry.timestamp, 1);
    }

    /// Accounts `n` entries of one type in the bucket containing `at`.
    pub(crate) fn record_n(&mut self, request_type: RequestType, at: SimTime, n: u64) {
        match request_type {
            RequestType::WantHave => self.want_have.record_n(at, n),
            RequestType::WantBlock => self.want_block.record_n(at, n),
            RequestType::Cancel => {}
        }
    }

    /// Merges another accumulator over the same bucket width (bucket counts
    /// are plain sums, so merging partials of any partition of a stream
    /// equals accumulating the whole stream).
    pub(crate) fn merge(&mut self, other: Self) {
        self.want_have.merge(&other.want_have);
        self.want_block.merge(&other.want_block);
    }

    pub(crate) fn finish(self) -> RequestTypeSeries {
        assemble_request_type_series(self.want_have, self.want_block, self.bucket)
    }
}

/// Computes the Fig. 4 series from a single monitor's raw entries (the paper
/// plots the view of monitor `us`), counting only requests (no cancels) and
/// without deduplication (the figure shows raw observed request volume).
pub fn request_type_series(
    dataset: &MonitoringDataset,
    monitor: usize,
    bucket: SimDuration,
) -> RequestTypeSeries {
    let mut accum = TypeSeriesAccum::new(bucket);
    for entry in &dataset.entries[monitor] {
        accum.record(entry);
    }
    accum.finish()
}

/// Densifies the two per-type series into aligned rows.
fn assemble_request_type_series(
    want_have: BucketedSeries,
    want_block: BucketedSeries,
    bucket: SimDuration,
) -> RequestTypeSeries {
    let last_have = want_have.dense().len();
    let last_block = want_block.dense().len();
    let buckets = last_have.max(last_block);
    let have_dense = want_have.dense();
    let block_dense = want_block.dense();
    let rows = (0..buckets)
        .map(|i| {
            let at = SimTime::from_millis(i as u64 * bucket.as_millis());
            let h = have_dense.get(i).map(|&(_, c)| c).unwrap_or(0);
            let b = block_dense.get(i).map(|&(_, c)| c).unwrap_or(0);
            (at, h, b)
        })
        .collect();
    RequestTypeSeries { bucket, rows }
}

/// Request shares by multicodec (Table I), computed over raw requests
/// (cancels excluded), exactly as the paper derives its Table I from raw,
/// unprocessed traces.
pub fn multicodec_shares(dataset: &MonitoringDataset) -> Vec<(Multicodec, u64, f64)> {
    let mut counts: BTreeMap<Multicodec, u64> = BTreeMap::new();
    let mut total = 0u64;
    for entries in &dataset.entries {
        for entry in entries {
            if !entry.is_request() {
                continue;
            }
            *counts.entry(entry.cid.codec()).or_insert(0) += 1;
            total += 1;
        }
    }
    let mut rows: Vec<(Multicodec, u64, f64)> = counts
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
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    rows
}

/// Request shares by origin country (Table II), computed on the unified,
/// deduplicated trace for a given window.
pub fn country_shares(
    trace: &UnifiedTrace,
    from: SimTime,
    to: SimTime,
) -> Vec<(Country, u64, f64)> {
    let mut counts: BTreeMap<Country, u64> = BTreeMap::new();
    let mut total = 0u64;
    for entry in trace.primary_requests() {
        if entry.timestamp < from || entry.timestamp > to {
            continue;
        }
        *counts.entry(entry.address.country).or_insert(0) += 1;
        total += 1;
    }
    let mut rows: Vec<(Country, u64, f64)> = counts
        .into_iter()
        .map(|(country, count)| {
            let share = if total == 0 {
                0.0
            } else {
                count as f64 / total as f64
            };
            (country, count, share)
        })
        .collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    rows
}

/// Request-rate series by origin group for Fig. 6.
#[derive(Debug, Clone)]
pub struct OriginGroupRates {
    /// Bucket width the rates are computed over.
    pub bucket: SimDuration,
    /// `(bucket start, all-gateway rate, dominant-operator rate, non-gateway
    /// rate)` rows in requests per second.
    pub rows: Vec<(SimTime, f64, f64, f64)>,
    /// Totals per group over the whole trace (gateway, dominant, non-gateway).
    pub totals: (u64, u64, u64),
}

/// Computes deduplicated request rates split into all-gateway traffic, the
/// traffic of one dominant operator ("Cloudflare" in the paper), and
/// non-gateway ("homegrown") traffic.
pub fn origin_group_rates(
    trace: &UnifiedTrace,
    gateway_peers: &HashSet<PeerId>,
    dominant_peers: &HashSet<PeerId>,
    bucket: SimDuration,
) -> OriginGroupRates {
    let mut gateway = BucketedSeries::new(bucket);
    let mut dominant = BucketedSeries::new(bucket);
    let mut other = BucketedSeries::new(bucket);
    let mut totals = (0u64, 0u64, 0u64);
    for entry in trace.primary_requests() {
        if gateway_peers.contains(&entry.peer) {
            gateway.record(entry.timestamp);
            totals.0 += 1;
            if dominant_peers.contains(&entry.peer) {
                dominant.record(entry.timestamp);
                totals.1 += 1;
            }
        } else {
            other.record(entry.timestamp);
            totals.2 += 1;
        }
    }
    let width_secs = bucket.as_secs_f64();
    let buckets = gateway
        .dense()
        .len()
        .max(dominant.dense().len())
        .max(other.dense().len());
    let g = gateway.dense();
    let d = dominant.dense();
    let o = other.dense();
    let rows = (0..buckets)
        .map(|i| {
            let at = SimTime::from_millis(i as u64 * bucket.as_millis());
            let rate = |series: &Vec<(SimTime, u64)>| {
                series
                    .get(i)
                    .map(|&(_, c)| c as f64 / width_secs)
                    .unwrap_or(0.0)
            };
            (at, rate(&g), rate(&d), rate(&o))
        })
        .collect();
    OriginGroupRates {
        bucket,
        rows,
        totals,
    }
}

/// Per-peer request counts (useful for spotting the outlier nodes the paper
/// mentions and as input to the TNW attack's target selection).
pub fn per_peer_request_counts(trace: &UnifiedTrace) -> Vec<(PeerId, u64)> {
    let mut counts: BTreeMap<PeerId, u64> = BTreeMap::new();
    for entry in trace.primary_requests() {
        *counts.entry(entry.peer).or_insert(0) += 1;
    }
    let mut rows: Vec<(PeerId, u64)> = counts.into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EntryFlags, TraceEntry};
    use ipfs_mon_types::{Cid, Multiaddr, Transport};

    fn entry_at(
        secs: u64,
        peer: u64,
        rtype: RequestType,
        codec: Multicodec,
        country: Country,
    ) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_secs(secs),
            peer: PeerId::derived(9, peer),
            address: Multiaddr::new(1, 4001, Transport::Tcp, country),
            request_type: rtype,
            cid: Cid::new_v1(codec, &[(peer % 250) as u8, (secs % 250) as u8]),
            monitor: 0,
            flags: EntryFlags::default(),
        }
    }

    #[test]
    fn request_type_series_tracks_transition() {
        let mut ds = MonitoringDataset::new(vec!["us".into()]);
        // Day 0: only WANT_BLOCK; day 2: only WANT_HAVE.
        for i in 0..10 {
            ds.entries[0].push(entry_at(
                i * 60,
                i,
                RequestType::WantBlock,
                Multicodec::Raw,
                Country::Us,
            ));
        }
        for i in 0..20 {
            ds.entries[0].push(entry_at(
                2 * 86_400 + i * 60,
                i,
                RequestType::WantHave,
                Multicodec::Raw,
                Country::Us,
            ));
        }
        let series = request_type_series(&ds, 0, SimDuration::from_days(1));
        assert_eq!(series.rows.len(), 3);
        assert_eq!(series.rows[0].1, 0);
        assert_eq!(series.rows[0].2, 10);
        assert_eq!(series.rows[2].1, 20);
        assert_eq!(series.rows[2].2, 0);
    }

    #[test]
    fn multicodec_shares_sum_to_one_and_exclude_cancels() {
        let mut ds = MonitoringDataset::new(vec!["us".into()]);
        for i in 0..86 {
            ds.entries[0].push(entry_at(
                i,
                i,
                RequestType::WantHave,
                Multicodec::DagProtobuf,
                Country::Us,
            ));
        }
        for i in 0..13 {
            ds.entries[0].push(entry_at(
                i,
                100 + i,
                RequestType::WantHave,
                Multicodec::Raw,
                Country::Us,
            ));
        }
        ds.entries[0].push(entry_at(
            1,
            999,
            RequestType::WantHave,
            Multicodec::DagCbor,
            Country::Us,
        ));
        ds.entries[0].push(entry_at(
            2,
            999,
            RequestType::Cancel,
            Multicodec::EthereumTx,
            Country::Us,
        ));
        let rows = multicodec_shares(&ds);
        let total_share: f64 = rows.iter().map(|(_, _, s)| s).sum();
        assert!((total_share - 1.0).abs() < 1e-9);
        assert_eq!(rows[0].0, Multicodec::DagProtobuf);
        assert_eq!(rows[0].1, 86);
        assert!(rows.iter().all(|(c, _, _)| *c != Multicodec::EthereumTx));
    }

    #[test]
    fn country_shares_respect_window_and_flags() {
        let mut entries = vec![
            entry_at(10, 1, RequestType::WantHave, Multicodec::Raw, Country::Us),
            entry_at(20, 2, RequestType::WantHave, Multicodec::Raw, Country::De),
            entry_at(
                5_000,
                3,
                RequestType::WantHave,
                Multicodec::Raw,
                Country::Fr,
            ), // outside window
        ];
        let mut dup = entry_at(11, 4, RequestType::WantHave, Multicodec::Raw, Country::Us);
        dup.flags.inter_monitor_duplicate = true;
        entries.push(dup);
        let trace = UnifiedTrace { entries };
        let rows = country_shares(&trace, SimTime::ZERO, SimTime::from_secs(100));
        assert_eq!(rows.len(), 2);
        let us = rows.iter().find(|(c, _, _)| *c == Country::Us).unwrap();
        assert_eq!(us.1, 1);
        assert!((us.2 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn origin_groups_are_split_correctly() {
        let gateway_peer = PeerId::derived(9, 1);
        let dominant_peer = PeerId::derived(9, 2);
        let user_peer = PeerId::derived(9, 3);
        let entries = vec![
            entry_at(10, 1, RequestType::WantHave, Multicodec::Raw, Country::Us),
            entry_at(20, 2, RequestType::WantHave, Multicodec::Raw, Country::Us),
            entry_at(30, 3, RequestType::WantHave, Multicodec::Raw, Country::Us),
            entry_at(
                3_700,
                3,
                RequestType::WantHave,
                Multicodec::DagProtobuf,
                Country::Us,
            ),
        ];
        let trace = UnifiedTrace { entries };
        let gateways: HashSet<PeerId> = [gateway_peer, dominant_peer].into_iter().collect();
        let dominant: HashSet<PeerId> = [dominant_peer].into_iter().collect();
        let rates = origin_group_rates(&trace, &gateways, &dominant, SimDuration::from_hours(1));
        assert_eq!(rates.totals, (2, 1, 2));
        assert_eq!(rates.rows.len(), 2);
        let _ = user_peer;
        // First hour: 2 gateway + 1 non-gateway requests.
        assert!((rates.rows[0].1 - 2.0 / 3600.0).abs() < 1e-12);
        assert!((rates.rows[0].3 - 1.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn per_peer_counts_are_sorted_descending() {
        let mut entries = Vec::new();
        for _ in 0..5 {
            entries.push(entry_at(
                1,
                1,
                RequestType::WantHave,
                Multicodec::Raw,
                Country::Us,
            ));
        }
        entries.push(entry_at(
            2,
            2,
            RequestType::WantHave,
            Multicodec::Raw,
            Country::Us,
        ));
        let trace = UnifiedTrace { entries };
        let counts = per_peer_request_counts(&trace);
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[0].1, 5);
        assert_eq!(counts[1].1, 1);
    }

    #[test]
    fn empty_dataset_yields_empty_tables() {
        let ds = MonitoringDataset::new(vec!["us".into()]);
        assert!(multicodec_shares(&ds).is_empty());
        let trace = UnifiedTrace::default();
        assert!(country_shares(&trace, SimTime::ZERO, SimTime::from_secs(1)).is_empty());
        assert!(per_peer_request_counts(&trace).is_empty());
    }
}
