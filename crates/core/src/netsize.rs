//! Network-size estimation and monitoring coverage (Sec. IV-C / V-C).
//!
//! From the monitors' connection logs this module derives peer-set snapshots,
//! applies the two estimators (capture–recapture and committee occupancy),
//! compares against a DHT crawl, and computes the monitoring coverage — the
//! fraction of the network each monitor (and the joint deployment) receives
//! Bitswap messages from.
//!
//! Estimation is incremental: [`SnapshotBuilder`] consumes connection events
//! and entries one at a time and never materializes the trace — its state is
//! the connection endpoints (footer metadata, orders of magnitude rarer than
//! entries), the sweep's per-monitor *active-connection* multisets, and the
//! unique-peer sets the report itself needs. It works over any
//! [`TraceSource`] via [`estimate_network_size_source`] — an in-memory
//! dataset and an on-disk manifest dataset produce identical reports.

use crate::trace::MonitoringDataset;
use ipfs_mon_analysis::{committee_estimate, summarize, two_monitor_estimate, Summary};
use ipfs_mon_obs as obs;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_tracestore::{
    AnalysisSink, ChunkView, ConnectionRecord, Rows, SegmentError, TraceEntry, TraceSource,
};
use ipfs_mon_types::PeerId;
use std::collections::{HashMap, HashSet};

/// One peer-set snapshot: what each monitor was connected to at an instant.
#[derive(Debug, Clone)]
pub struct PeerSetSnapshot {
    /// Snapshot time.
    pub at: SimTime,
    /// Per-monitor peer-set sizes.
    pub sizes: Vec<usize>,
    /// Size of the union over all monitors.
    pub union_size: usize,
    /// Size of the pairwise intersection of monitors 0 and 1 (if at least two
    /// monitors exist).
    pub intersection_01: Option<usize>,
    /// Estimate from the two-monitor capture–recapture formula (eq. 1).
    pub estimate_capture_recapture: Option<f64>,
    /// Estimate from the committee-occupancy formula (eq. 3), using the mean
    /// per-monitor peer-set size as `w`.
    pub estimate_committee: Option<f64>,
}

/// Aggregate of many snapshots over an observation window.
#[derive(Debug, Clone)]
pub struct NetworkSizeReport {
    /// The individual snapshots.
    pub snapshots: Vec<PeerSetSnapshot>,
    /// Summary of the capture–recapture estimates across snapshots.
    pub capture_recapture: Option<Summary>,
    /// Summary of the committee-occupancy estimates across snapshots.
    pub committee: Option<Summary>,
    /// Summary of the per-snapshot union sizes.
    pub union_sizes: Option<Summary>,
    /// Unique peers connected to each monitor over the whole window.
    pub weekly_unique_per_monitor: Vec<usize>,
    /// Unique peers connected to any monitor over the whole window.
    pub weekly_unique_union: usize,
    /// Unique Bitswap-active peers (sent at least one entry) per monitor.
    pub bitswap_active_per_monitor: Vec<usize>,
    /// Unique Bitswap-active peers across monitors.
    pub bitswap_active_union: usize,
}

/// Incrementally builds a [`NetworkSizeReport`] from connection events and
/// trace entries — no materialized dataset required.
///
/// Feed every [`ConnectionRecord`] through
/// [`SnapshotBuilder::observe_connection`] and every trace entry through
/// [`SnapshotBuilder::observe_entry`] (order does not matter), then call
/// [`SnapshotBuilder::finish`]: the builder turns the records into
/// connect/disconnect events, sweeps the snapshot grid once in event-time
/// order, and runs both estimators on each snapshot. Memory holds the
/// buffered connection endpoints (connection records are footer metadata —
/// orders of magnitude rarer than entries), the sweep's *currently active*
/// connections per monitor, and the unique-peer sets reported per monitor;
/// entries themselves are never retained.
#[derive(Debug, Clone)]
pub struct SnapshotBuilder {
    monitors: usize,
    start: SimTime,
    end: SimTime,
    interval: SimDuration,
    /// `(time, is_disconnect, monitor, peer)` — connection endpoints.
    events: Vec<(SimTime, bool, usize, PeerId)>,
    weekly_unique: Vec<HashSet<PeerId>>,
    bitswap_active: Vec<HashSet<PeerId>>,
}

impl SnapshotBuilder {
    /// Creates a builder for snapshots every `interval` over `[start, end]`.
    pub fn new(monitors: usize, start: SimTime, end: SimTime, interval: SimDuration) -> Self {
        assert!(interval.as_millis() > 0, "interval must be positive");
        Self {
            monitors,
            start,
            end,
            interval,
            events: Vec::new(),
            weekly_unique: vec![HashSet::new(); monitors],
            bitswap_active: vec![HashSet::new(); monitors],
        }
    }

    /// Accounts one connection record: its endpoints become sweep events and
    /// its peer counts toward the whole-window uniques of its monitor. The
    /// record's monitor index is whatever a file said: one naming a monitor
    /// the builder was not created for is skipped and counted
    /// (`netsize.records_skipped`).
    pub fn observe_connection(&mut self, record: &ConnectionRecord) {
        let Some(unique) = self.weekly_unique.get_mut(record.monitor) else {
            obs::counter!("netsize.records_skipped").incr();
            return;
        };
        unique.insert(record.peer);
        self.events
            .push((record.connected_at, false, record.monitor, record.peer));
        if let Some(at) = record.disconnected_at {
            self.events.push((at, true, record.monitor, record.peer));
        }
    }

    /// Accounts one trace entry (flags and request type are irrelevant here:
    /// any observed entry makes its sender Bitswap-active, as in the paper).
    /// Every [`TraceSource`] stamps its entries with a monitor below its
    /// monitor count; an entry from elsewhere that names a monitor the
    /// builder was not created for is skipped like such a connection record.
    pub fn observe_entry(&mut self, entry: &TraceEntry) {
        match self.bitswap_active.get_mut(entry.monitor) {
            Some(active) => {
                active.insert(entry.peer);
            }
            None => obs::counter!("netsize.records_skipped").incr(),
        }
    }

    /// Merges another builder over the same snapshot grid: sweep events
    /// concatenate and the unique-peer sets union. Order-invariant —
    /// [`SnapshotBuilder::finish`] sorts the events by a full deterministic
    /// key before sweeping — which is what lets the windowed netsize sink
    /// combine partial builders under `run_parallel`.
    ///
    /// # Panics
    ///
    /// Panics if the two builders were created over different grids.
    pub fn merge(&mut self, other: Self) {
        assert!(
            self.monitors == other.monitors
                && self.start == other.start
                && self.end == other.end
                && self.interval == other.interval,
            "snapshot builders must share a grid to merge"
        );
        self.events.extend(other.events);
        for (mine, theirs) in self.weekly_unique.iter_mut().zip(other.weekly_unique) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.bitswap_active.iter_mut().zip(other.bitswap_active) {
            mine.extend(theirs);
        }
    }

    /// Sweeps the snapshot grid and assembles the report.
    pub fn finish(self) -> NetworkSizeReport {
        let monitors = self.monitors;
        let mut events = self.events;
        // Connects sort before disconnects at equal times so an active count
        // never dips negative; membership at a snapshot is unaffected either
        // way (both endpoints with time <= t are applied before reading).
        events.sort_by_key(|&(t, is_disconnect, monitor, peer)| (t, is_disconnect, monitor, peer));

        // Per monitor: multiset of active connections per peer (overlapping
        // records for the same peer each count once until their disconnect).
        let mut active: Vec<HashMap<PeerId, u32>> = vec![HashMap::new(); monitors];
        // Across monitors, kept by the same events so that a snapshot costs
        // the events since the last one, not the peers active at it: per
        // peer, the monitors it is active on (the keys are the union), and
        // the number of peers active on both of the first two monitors.
        let mut active_on: HashMap<PeerId, u32> = HashMap::new();
        let mut on_both_01 = 0usize;
        let on_other_of_01 = |active: &[HashMap<PeerId, u32>], monitor: usize, peer: &PeerId| {
            monitors >= 2 && monitor < 2 && active[1 - monitor].contains_key(peer)
        };
        let mut next_event = 0usize;
        let mut snapshots = Vec::new();
        let mut t = self.start;
        while t <= self.end {
            while let Some(&(at, is_disconnect, monitor, peer)) = events.get(next_event) {
                // `active_at` semantics: connected_at <= t && t < disconnected_at,
                // so both endpoint kinds apply once their time is <= t.
                if at > t {
                    break;
                }
                next_event += 1;
                if is_disconnect {
                    if let Some(count) = active[monitor].get_mut(&peer) {
                        *count -= 1;
                        if *count == 0 {
                            active[monitor].remove(&peer);
                            if let Some(on) = active_on.get_mut(&peer) {
                                *on -= 1;
                                if *on == 0 {
                                    active_on.remove(&peer);
                                }
                            }
                            if on_other_of_01(&active, monitor, &peer) {
                                on_both_01 -= 1;
                            }
                        }
                    }
                } else {
                    let count = active[monitor].entry(peer).or_insert(0);
                    *count += 1;
                    if *count == 1 {
                        *active_on.entry(peer).or_insert(0) += 1;
                        if on_other_of_01(&active, monitor, &peer) {
                            on_both_01 += 1;
                        }
                    }
                }
            }

            let sizes: Vec<usize> = active.iter().map(HashMap::len).collect();
            let union_size = active_on.len();
            let intersection_01 = (monitors >= 2).then_some(on_both_01);
            let estimate_capture_recapture =
                intersection_01.and_then(|k| two_monitor_estimate(sizes[0], sizes[1], k).ok());
            let mean_w = if monitors > 0 {
                sizes.iter().sum::<usize>() as f64 / monitors as f64
            } else {
                0.0
            };
            let estimate_committee = committee_estimate(union_size, monitors, mean_w).ok();
            snapshots.push(PeerSetSnapshot {
                at: t,
                sizes,
                union_size,
                intersection_01,
                estimate_capture_recapture,
                estimate_committee,
            });
            t += self.interval;
        }

        let capture: Vec<f64> = snapshots
            .iter()
            .filter_map(|s| s.estimate_capture_recapture)
            .collect();
        let committee: Vec<f64> = snapshots
            .iter()
            .filter_map(|s| s.estimate_committee)
            .collect();
        let unions: Vec<f64> = snapshots.iter().map(|s| s.union_size as f64).collect();

        let weekly_union: HashSet<PeerId> = self.weekly_unique.iter().flatten().copied().collect();
        let bitswap_union: HashSet<PeerId> =
            self.bitswap_active.iter().flatten().copied().collect();

        NetworkSizeReport {
            snapshots,
            capture_recapture: summarize(&capture),
            committee: summarize(&committee),
            union_sizes: summarize(&unions),
            weekly_unique_per_monitor: self.weekly_unique.iter().map(HashSet::len).collect(),
            weekly_unique_union: weekly_union.len(),
            bitswap_active_per_monitor: self.bitswap_active.iter().map(HashSet::len).collect(),
            bitswap_active_union: bitswap_union.len(),
        }
    }
}

/// The builder as an analysis: entries are Bitswap-activity evidence, the
/// report is the output. A builder seeded with connection records may be
/// cloned per worker and merged back — `finish` keeps a multiset of active
/// connections per peer, so connection events repeated in every clone leave
/// each snapshot's membership (and so the report) unchanged.
impl AnalysisSink for SnapshotBuilder {
    type Output = NetworkSizeReport;
    const ROWS: Rows = Rows::None;

    fn consume(&mut self, entry: TraceEntry) {
        self.observe_entry(&entry);
    }

    fn consume_chunk(&mut self, monitor: usize, chunk: &ChunkView<'_>) {
        // The peers at least one row names — a dictionary entry no row
        // references sent nothing.
        let mut referenced = vec![false; chunk.peer_dict_len()];
        for &peer in chunk.peer_indexes() {
            referenced[peer] = true;
        }
        let active = &mut self.bitswap_active[monitor];
        active.extend(
            (0..referenced.len())
                .filter(|&peer| referenced[peer])
                .map(|peer| chunk.peer(peer)),
        );
    }

    fn combine(&mut self, other: Self) {
        self.merge(other);
    }

    fn finish(self) -> NetworkSizeReport {
        SnapshotBuilder::finish(self)
    }
}

/// Computes peer-set snapshots every `interval` over `[start, end]` and runs
/// both estimators on each, from any [`TraceSource`] — the trace is never
/// materialized and the monitors' streams are never merged
/// ([`TraceSource::run_unmerged`]): all the builder wants of an entry is
/// which peer sent it to which monitor, which an on-disk dataset answers
/// from each chunk's peer dictionary. In-memory and on-disk datasets produce
/// identical reports.
pub fn estimate_network_size_source<T: TraceSource>(
    source: &T,
    start: SimTime,
    end: SimTime,
    interval: SimDuration,
) -> Result<NetworkSizeReport, SegmentError> {
    let mut builder = SnapshotBuilder::new(source.monitor_count(), start, end, interval);
    for record in source.connection_records() {
        builder.observe_connection(&record);
    }
    source.run_unmerged(builder)
}

/// Computes peer-set snapshots every `interval` over `[start, end]` and runs
/// both estimators on each. Thin wrapper over [`SnapshotBuilder`] for the
/// in-memory dataset; the builder is order-insensitive, so the dataset is
/// fed by reference without the merged stream's clone-and-sort.
pub fn estimate_network_size(
    dataset: &MonitoringDataset,
    start: SimTime,
    end: SimTime,
    interval: SimDuration,
) -> NetworkSizeReport {
    // As the dataset's `TraceSource` counts and stamps them: an entry's
    // monitor is the vector it sits in, whatever its stored field says.
    let monitors = TraceSource::monitor_count(dataset);
    let mut builder = SnapshotBuilder::new(monitors, start, end, interval);
    for (active, entries) in builder.bitswap_active.iter_mut().zip(&dataset.entries) {
        active.extend(entries.iter().map(|entry| entry.peer));
    }
    for record in &dataset.connections {
        builder.observe_connection(record);
    }
    builder.finish()
}

/// Monitoring coverage relative to a reference network size (the paper uses
/// the crawler-derived size as the conservative denominator).
#[derive(Debug, Clone)]
pub struct CoverageReport {
    /// Reference network size used as the denominator.
    pub reference_size: f64,
    /// Average per-monitor coverage (mean peer-set size / reference).
    pub per_monitor: Vec<f64>,
    /// Average joint coverage (mean union size / reference).
    pub joint: f64,
}

/// Computes coverage from a [`NetworkSizeReport`] and a reference size.
pub fn coverage(report: &NetworkSizeReport, reference_size: f64) -> CoverageReport {
    assert!(reference_size > 0.0, "reference size must be positive");
    let monitors = report.weekly_unique_per_monitor.len();
    let mut per_monitor_means = vec![0.0f64; monitors];
    if !report.snapshots.is_empty() {
        for snapshot in &report.snapshots {
            for (m, &size) in snapshot.sizes.iter().enumerate() {
                per_monitor_means[m] += size as f64;
            }
        }
        for mean in per_monitor_means.iter_mut() {
            *mean /= report.snapshots.len() as f64;
        }
    }
    let joint_mean = report.union_sizes.map(|s| s.mean).unwrap_or(0.0);
    CoverageReport {
        reference_size,
        per_monitor: per_monitor_means
            .iter()
            .map(|m| (m / reference_size).min(1.0))
            .collect(),
        joint: (joint_mean / reference_size).min(1.0),
    }
}

/// Peer-ID uniformity data for Fig. 3: the key-space positions (in `[0, 1)`)
/// of all peers connected to `monitor` at time `at`.
pub fn peer_id_positions(dataset: &MonitoringDataset, monitor: usize, at: SimTime) -> Vec<f64> {
    dataset
        .peer_set_at(monitor, at)
        .iter()
        .map(|p| p.as_unit_fraction())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ConnectionRecord, MonitoringDataset, TraceEntry};
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, Transport};

    fn addr() -> Multiaddr {
        Multiaddr::new(1, 4001, Transport::Tcp, Country::Us)
    }

    /// Builds a dataset where `n` peers exist, each connected to monitor 0
    /// with probability `p0` and monitor 1 with probability `p1` (derived
    /// deterministically from the peer number).
    fn synthetic_dataset(n: u64, p0: f64, p1: f64) -> MonitoringDataset {
        let mut ds = MonitoringDataset::new(vec!["us".into(), "de".into()]);
        for i in 0..n {
            let peer = PeerId::derived(42, i);
            // Derive independent, deterministic "dice" for the two attach
            // decisions (independent of the peer ID itself, so the connected
            // peer sets remain uniform samples of the key space).
            let u0 = PeerId::derived(143, i).as_unit_fraction();
            let u1 = PeerId::derived(144, i).as_unit_fraction();
            for (m, (u, p)) in [(u0, p0), (u1, p1)].iter().enumerate() {
                if u < p {
                    ds.connections.push(ConnectionRecord {
                        monitor: m,
                        peer,
                        address: addr(),
                        connected_at: SimTime::ZERO,
                        disconnected_at: None,
                    });
                }
            }
        }
        ds
    }

    #[test]
    fn estimators_recover_population_size() {
        let n = 20_000;
        let ds = synthetic_dataset(n, 0.6, 0.5);
        let report = estimate_network_size(
            &ds,
            SimTime::from_secs(0),
            SimTime::from_secs(0),
            SimDuration::from_secs(1),
        );
        let capture = report.capture_recapture.unwrap().mean;
        let committee = report.committee.unwrap().mean;
        assert!(
            (capture - n as f64).abs() / (n as f64) < 0.05,
            "capture-recapture {capture}"
        );
        assert!(
            (committee - n as f64).abs() / (n as f64) < 0.05,
            "committee {committee}"
        );
    }

    #[test]
    fn coverage_matches_attach_probabilities() {
        let n = 10_000;
        let ds = synthetic_dataset(n, 0.54, 0.49);
        let report = estimate_network_size(
            &ds,
            SimTime::from_secs(0),
            SimTime::from_secs(0),
            SimDuration::from_secs(1),
        );
        let cov = coverage(&report, n as f64);
        assert!(
            (cov.per_monitor[0] - 0.54).abs() < 0.03,
            "{:?}",
            cov.per_monitor
        );
        assert!(
            (cov.per_monitor[1] - 0.49).abs() < 0.03,
            "{:?}",
            cov.per_monitor
        );
        let expected_joint = 1.0 - (1.0 - 0.54) * (1.0 - 0.49);
        assert!(
            (cov.joint - expected_joint).abs() < 0.03,
            "joint {}",
            cov.joint
        );
    }

    #[test]
    fn weekly_uniques_and_bitswap_active_counts() {
        let mut ds = synthetic_dataset(1_000, 0.5, 0.5);
        // Make 20 peers Bitswap-active on monitor 0 and 10 on monitor 1.
        for i in 0..20u64 {
            ds.entries[0].push(TraceEntry {
                timestamp: SimTime::from_secs(i),
                peer: PeerId::derived(42, i),
                address: addr(),
                request_type: RequestType::WantHave,
                cid: Cid::new_v1(Multicodec::Raw, &[1]),
                monitor: 0,
                flags: Default::default(),
            });
        }
        for i in 0..10u64 {
            ds.entries[1].push(TraceEntry {
                timestamp: SimTime::from_secs(i),
                peer: PeerId::derived(42, i),
                address: addr(),
                request_type: RequestType::WantBlock,
                cid: Cid::new_v1(Multicodec::Raw, &[2]),
                monitor: 1,
                flags: Default::default(),
            });
        }
        let report = estimate_network_size(
            &ds,
            SimTime::from_secs(0),
            SimTime::from_secs(0),
            SimDuration::from_secs(1),
        );
        assert_eq!(report.bitswap_active_per_monitor, vec![20, 10]);
        assert_eq!(report.bitswap_active_union, 20);
        assert!(report.weekly_unique_union >= report.weekly_unique_per_monitor[0]);
    }

    /// A dataset is outside input: a connection record may name a
    /// monitor the dataset does not have, and an entry's stored `monitor`
    /// may be anything. The record is skipped, the entry counts for the
    /// vector it sits in, and neither path panics.
    #[test]
    fn stored_monitor_indexes_are_not_trusted() {
        let mut corrected = synthetic_dataset(300, 0.6, 0.5);
        for (i, record) in corrected.connections.iter_mut().enumerate() {
            record.disconnected_at = i
                .is_multiple_of(3)
                .then(|| SimTime::from_secs(40 + i as u64));
        }
        for i in 0..12u64 {
            corrected.entries[(i % 2) as usize].push(TraceEntry {
                timestamp: SimTime::from_secs(i),
                peer: PeerId::derived(42, i / 2),
                address: addr(),
                request_type: RequestType::WantHave,
                cid: Cid::new_v1(Multicodec::Raw, &[1]),
                monitor: (i % 2) as usize,
                flags: Default::default(),
            });
        }
        let mut doctored = corrected.clone();
        doctored.entries[0][1].monitor = 9;
        doctored.entries[1][0].monitor = usize::MAX;
        doctored.connections[0].monitor = 7;
        doctored.connections[5].monitor = usize::MAX;
        // What is left once the two records are skipped.
        corrected.connections.remove(5);
        corrected.connections.remove(0);

        let window = (
            SimTime::ZERO,
            SimTime::from_secs(120),
            SimDuration::from_secs(20),
        );
        let expected = estimate_network_size(&corrected, window.0, window.1, window.2);
        assert!(expected.snapshots.len() > 1 && expected.weekly_unique_union > 0);
        assert_eq!(expected.bitswap_active_per_monitor, vec![6, 6]);
        let in_memory = estimate_network_size(&doctored, window.0, window.1, window.2);
        let as_source =
            estimate_network_size_source(&doctored, window.0, window.1, window.2).unwrap();
        assert_eq!(format!("{in_memory:?}"), format!("{expected:?}"));
        assert_eq!(format!("{as_source:?}"), format!("{expected:?}"));
    }

    /// The union and the intersection the sweep keeps by event are what a
    /// recount of the active sets at each snapshot gives.
    #[test]
    fn swept_union_and_intersection_equal_a_recount() {
        let mut ds = synthetic_dataset(400, 0.6, 0.5);
        let mut extra = Vec::new();
        for (i, record) in ds.connections.iter_mut().enumerate() {
            let i = i as u64;
            record.connected_at = SimTime::from_secs(i % 50);
            record.disconnected_at =
                (!i.is_multiple_of(4)).then(|| SimTime::from_secs(i % 50 + i % 37));
            if i.is_multiple_of(5) {
                // An overlapping second connection of the same peer.
                extra.push(ConnectionRecord {
                    connected_at: SimTime::from_secs(i % 50 + 3),
                    disconnected_at: Some(SimTime::from_secs(i % 50 + 60)),
                    ..record.clone()
                });
            }
        }
        ds.connections.extend(extra);
        let report = estimate_network_size(
            &ds,
            SimTime::ZERO,
            SimTime::from_secs(120),
            SimDuration::from_secs(7),
        );
        assert!(report.snapshots.iter().any(|s| s.intersection_01 > Some(0)));
        for snapshot in &report.snapshots {
            let sets = [
                ds.peer_set_at(0, snapshot.at),
                ds.peer_set_at(1, snapshot.at),
            ];
            assert_eq!(snapshot.sizes, vec![sets[0].len(), sets[1].len()]);
            assert_eq!(snapshot.union_size, sets[0].union(&sets[1]).count());
            assert_eq!(
                snapshot.intersection_01,
                Some(sets[0].intersection(&sets[1]).count())
            );
        }
    }

    #[test]
    fn multiple_snapshots_are_collected() {
        let ds = synthetic_dataset(500, 0.7, 0.7);
        let report = estimate_network_size(
            &ds,
            SimTime::from_secs(0),
            SimTime::from_secs(3_600),
            SimDuration::from_mins(10),
        );
        assert_eq!(report.snapshots.len(), 7);
    }

    #[test]
    fn peer_positions_are_unit_fractions() {
        let ds = synthetic_dataset(2_000, 0.5, 0.5);
        let positions = peer_id_positions(&ds, 0, SimTime::ZERO);
        assert!(!positions.is_empty());
        assert!(positions.iter().all(|p| (0.0..=1.0).contains(p)));
        // They come from SHA-256-derived IDs, so they should be close to
        // uniform.
        let dev = ipfs_mon_analysis::qq_uniform_deviation(&positions, 51);
        assert!(dev < 0.08, "deviation {dev}");
    }

    #[test]
    #[should_panic(expected = "reference size must be positive")]
    fn coverage_rejects_zero_reference() {
        let ds = synthetic_dataset(10, 0.5, 0.5);
        let report =
            estimate_network_size(&ds, SimTime::ZERO, SimTime::ZERO, SimDuration::from_secs(1));
        coverage(&report, 0.0);
    }
}
