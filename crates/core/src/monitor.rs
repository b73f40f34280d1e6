//! The passive monitor: trace collection.
//!
//! A monitoring node (Sec. IV-A) is an ordinary-looking IPFS node that
//! accepts every incoming connection, never requests or serves data, and logs
//! every Bitswap wantlist entry it receives. [`MonitorCollector`] implements
//! the [`MonitorSink`] interface of the network simulator and accumulates the
//! resulting [`MonitoringDataset`]; in a real deployment the same component
//! would sit inside a modified IPFS client, as the paper's implementation
//! does. [`ManifestCollector`] is the same sink at constant memory: it
//! spills straight to a checkpointable on-disk dataset, and
//! [`MonitorCollector`] stays as the in-memory reference it is tested
//! against.

use crate::trace::{ConnectionRecord, EntryFlags, MonitoringDataset, TraceEntry};
use ipfs_mon_node::{BitswapObservation, MonitorSink};
use ipfs_mon_obs as obs;
use ipfs_mon_simnet::time::SimTime;
use ipfs_mon_tracestore::{DatasetConfig, DatasetSummary, DatasetWriter, SegmentError};
use ipfs_mon_types::{Multiaddr, PeerId};
use std::path::Path;

/// Collects the observations of all monitoring nodes of a deployment.
#[derive(Debug, Clone)]
pub struct MonitorCollector {
    dataset: MonitoringDataset,
    /// Open connections per monitor: index into `dataset.connections`.
    open: Vec<std::collections::HashMap<PeerId, usize>>,
}

impl MonitorCollector {
    /// Creates a collector for monitors with the given labels.
    pub fn new(monitor_labels: Vec<String>) -> Self {
        let monitors = monitor_labels.len();
        Self {
            dataset: MonitoringDataset::new(monitor_labels),
            open: vec![std::collections::HashMap::new(); monitors],
        }
    }

    /// Convenience constructor matching the paper's two-monitor setup.
    pub fn us_de() -> Self {
        Self::new(vec!["us".into(), "de".into()])
    }

    /// Number of monitors.
    pub fn monitor_count(&self) -> usize {
        self.dataset.monitor_count()
    }

    /// Read access to the dataset collected so far.
    pub fn dataset(&self) -> &MonitoringDataset {
        &self.dataset
    }

    /// Consumes the collector and returns the dataset.
    pub fn into_dataset(self) -> MonitoringDataset {
        self.dataset
    }

    /// Total number of entries recorded so far.
    pub fn total_entries(&self) -> usize {
        self.dataset.total_entries()
    }
}

impl MonitorSink for MonitorCollector {
    fn record(&mut self, monitor: usize, observation: BitswapObservation) {
        // Observations arrive orders of magnitude less often than sim
        // events, so an unbatched obs bump per record is within budget.
        obs::counter!("collect.observations").incr();
        self.dataset.entries[monitor].push(TraceEntry {
            timestamp: observation.timestamp,
            peer: observation.peer,
            address: observation.address,
            request_type: observation.request_type,
            cid: observation.cid,
            monitor,
            flags: EntryFlags::default(),
        });
    }

    fn peer_connected(&mut self, monitor: usize, peer: PeerId, address: Multiaddr, at: SimTime) {
        let index = self.dataset.connections.len();
        self.dataset.connections.push(ConnectionRecord {
            monitor,
            peer,
            address,
            connected_at: at,
            disconnected_at: None,
        });
        self.open[monitor].insert(peer, index);
    }

    fn peer_disconnected(&mut self, monitor: usize, peer: PeerId, at: SimTime) {
        if let Some(index) = self.open[monitor].remove(&peer) {
            self.dataset.connections[index].disconnected_at = Some(at);
        }
    }
}

/// Per-monitor open-connection bookkeeping of [`ManifestCollector`].
///
/// Encapsulates the two subtle rules it must agree on with
/// [`MonitorCollector`]: a reconnect without an observed disconnect flushes
/// the displaced record still open-ended, and records left open at the end
/// drain in a deterministic order so identical runs produce byte-identical
/// storage (HashMap iteration order is randomized per process).
struct OpenConnections {
    per_monitor: Vec<std::collections::HashMap<PeerId, ConnectionRecord>>,
}

impl OpenConnections {
    fn new(monitors: usize) -> Self {
        Self {
            per_monitor: vec![std::collections::HashMap::new(); monitors],
        }
    }

    /// Registers a connect; returns a displaced, still-open record (reconnect
    /// without observed disconnect) the caller must flush to storage.
    fn connect(
        &mut self,
        monitor: usize,
        peer: PeerId,
        address: Multiaddr,
        at: SimTime,
    ) -> Option<ConnectionRecord> {
        self.per_monitor[monitor].insert(
            peer,
            ConnectionRecord {
                monitor,
                peer,
                address,
                connected_at: at,
                disconnected_at: None,
            },
        )
    }

    /// Registers a disconnect; returns the closed record to flush, if the
    /// peer was known.
    fn disconnect(
        &mut self,
        monitor: usize,
        peer: PeerId,
        at: SimTime,
    ) -> Option<ConnectionRecord> {
        self.per_monitor[monitor].remove(&peer).map(|mut record| {
            record.disconnected_at = Some(at);
            record
        })
    }

    /// Drains every still-open record (no disconnect time, as
    /// [`MonitorCollector`] leaves them) in deterministic order.
    fn drain_sorted(&mut self) -> Vec<ConnectionRecord> {
        let mut records = Vec::new();
        for per_monitor in &mut self.per_monitor {
            let start = records.len();
            records.extend(per_monitor.drain().map(|(_, record)| record));
            records[start..].sort_by_key(|r| (r.connected_at, r.peer));
        }
        records
    }
}

/// A [`MonitorSink`] that spills observations into a multi-segment dataset —
/// one rotating segment chain per monitor plus a manifest, the collection
/// mode for experiment scales where a [`MonitorCollector`] would not fit in
/// RAM: only open connections and the footer metadata stay resident.
///
/// Entries and closed connections go straight to the monitor's current
/// segment. Call [`ManifestCollector::finish`] to close all chains and write
/// the manifest; re-read everything with [`ipfs_mon_tracestore::ManifestReader`] and run
/// the analyses through [`ipfs_mon_tracestore::TraceSource`] without ever
/// materializing the trace.
pub struct ManifestCollector {
    writer: DatasetWriter,
    open: OpenConnections,
    /// First write error, if any (surfaced in [`ManifestCollector::finish`]).
    error: Option<SegmentError>,
}

impl ManifestCollector {
    /// Creates a collector writing a multi-segment dataset into `dir`.
    pub fn new(
        monitor_labels: Vec<String>,
        dir: impl AsRef<Path>,
        config: DatasetConfig,
    ) -> Result<Self, SegmentError> {
        let monitors = monitor_labels.len();
        Ok(Self {
            writer: DatasetWriter::create(dir, monitor_labels, config)?,
            open: OpenConnections::new(monitors),
            error: None,
        })
    }

    /// Convenience constructor matching the paper's two-monitor setup.
    pub fn us_de(dir: impl AsRef<Path>, config: DatasetConfig) -> Result<Self, SegmentError> {
        Self::new(vec!["us".into(), "de".into()], dir, config)
    }

    /// Number of monitors.
    pub fn monitor_count(&self) -> usize {
        self.writer.monitor_count()
    }

    /// Entries spilled or buffered so far.
    pub fn total_entries(&self) -> u64 {
        self.writer.total_entries()
    }

    /// Seals a durability checkpoint of the dataset being collected: fsyncs
    /// every open segment chain and atomically writes `manifest.ckpt`, so a
    /// crash after this point loses nothing recorded before it (see
    /// [`ipfs_mon_tracestore::DatasetWriter::checkpoint`] and
    /// [`ipfs_mon_tracestore::recover_dataset`]). An earlier latched write
    /// error is returned instead of checkpointing over bad state, and a
    /// checkpoint failure latches the collector like any other write
    /// failure — either way the collector stays dead afterwards and
    /// [`ManifestCollector::finish`] reports the condition too.
    pub fn checkpoint(&mut self) -> Result<(), SegmentError> {
        if let Some(error) = self.error.take() {
            self.error = Some(SegmentError::Corrupt(
                "collector disabled by an earlier write error".into(),
            ));
            return Err(error);
        }
        if let Err(error) = self.writer.checkpoint() {
            self.error = Some(SegmentError::Corrupt(format!(
                "collector disabled by a failed checkpoint: {error}"
            )));
            return Err(error);
        }
        Ok(())
    }

    /// Closes still-open connections (with no disconnect time, as
    /// [`MonitorCollector`] does), finishes every segment chain, and writes
    /// the manifest.
    pub fn finish(mut self) -> Result<DatasetSummary, SegmentError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        for record in self.open.drain_sorted() {
            self.writer.record_connection(record)?;
        }
        self.writer.finish()
    }

    /// Stores a closed/displaced connection record, latching the first error.
    fn flush_record(&mut self, record: ConnectionRecord) {
        if self.error.is_none() {
            if let Err(error) = self.writer.record_connection(record) {
                self.error = Some(error);
            }
        }
    }
}

impl MonitorSink for ManifestCollector {
    fn record(&mut self, monitor: usize, observation: BitswapObservation) {
        if self.error.is_some() {
            return;
        }
        obs::counter!("collect.observations").incr();
        let entry = TraceEntry {
            timestamp: observation.timestamp,
            peer: observation.peer,
            address: observation.address,
            request_type: observation.request_type,
            cid: observation.cid,
            monitor,
            flags: EntryFlags::default(),
        };
        if let Err(error) = self.writer.append(&entry) {
            self.error = Some(error);
        }
    }

    fn peer_connected(&mut self, monitor: usize, peer: PeerId, address: Multiaddr, at: SimTime) {
        if let Some(record) = self.open.connect(monitor, peer, address, at) {
            self.flush_record(record);
        }
    }

    fn peer_disconnected(&mut self, monitor: usize, peer: PeerId, at: SimTime) {
        if let Some(record) = self.open.disconnect(monitor, peer, at) {
            self.flush_record(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_types::{Cid, Country, Multicodec, Transport};

    fn observation(secs: u64, peer: u64) -> BitswapObservation {
        BitswapObservation {
            timestamp: SimTime::from_secs(secs),
            peer: PeerId::derived(7, peer),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Nl),
            request_type: RequestType::WantHave,
            cid: Cid::new_v1(Multicodec::Raw, &[1]),
        }
    }

    #[test]
    fn records_entries_per_monitor() {
        let mut collector = MonitorCollector::us_de();
        collector.record(0, observation(1, 1));
        collector.record(1, observation(2, 2));
        collector.record(0, observation(3, 1));
        assert_eq!(collector.total_entries(), 3);
        assert_eq!(collector.dataset().entries[0].len(), 2);
        assert_eq!(collector.dataset().entries[1].len(), 1);
        assert_eq!(collector.dataset().monitor_labels, vec!["us", "de"]);
    }

    #[test]
    fn tracks_connection_lifetimes() {
        let mut collector = MonitorCollector::us_de();
        let peer = PeerId::derived(7, 9);
        let addr = Multiaddr::new(1, 1, Transport::Tcp, Country::Us);
        collector.peer_connected(0, peer, addr, SimTime::from_secs(10));
        collector.peer_disconnected(0, peer, SimTime::from_secs(50));
        // Reconnection creates a second record.
        collector.peer_connected(0, peer, addr, SimTime::from_secs(100));
        let dataset = collector.into_dataset();
        assert_eq!(dataset.connections.len(), 2);
        assert_eq!(
            dataset.connections[0].disconnected_at,
            Some(SimTime::from_secs(50))
        );
        assert_eq!(dataset.connections[1].disconnected_at, None);
        assert!(dataset
            .peer_set_at(0, SimTime::from_secs(200))
            .contains(&peer));
        assert!(!dataset
            .peer_set_at(0, SimTime::from_secs(60))
            .contains(&peer));
    }

    #[test]
    fn disconnect_of_unknown_peer_is_ignored() {
        let mut collector = MonitorCollector::new(vec!["m".into()]);
        collector.peer_disconnected(0, PeerId::derived(1, 1), SimTime::from_secs(1));
        assert!(collector.dataset().connections.is_empty());
    }

    #[test]
    fn manifest_collector_matches_in_memory_collector() {
        // Drive the same observation sequence through both sinks; the
        // dataset must read back as the in-memory collector's dataset.
        let dir = std::env::temp_dir().join(format!("ipmm-collector-{}", std::process::id()));
        let mut in_memory = MonitorCollector::us_de();
        let mut spilling = ManifestCollector::us_de(
            &dir,
            DatasetConfig {
                segment: ipfs_mon_tracestore::SegmentConfig { chunk_capacity: 4 },
                rotate_after_entries: 3,
                ..DatasetConfig::default()
            },
        )
        .unwrap();

        let peer = PeerId::derived(7, 1);
        let addr = Multiaddr::new(9, 9, Transport::Tcp, Country::De);
        for sink_events in [&mut in_memory as &mut dyn MonitorSink, &mut spilling] {
            sink_events.peer_connected(0, peer, addr, SimTime::from_secs(0));
            for i in 0..10u64 {
                sink_events.record(i as usize % 2, observation(i + 1, i % 3));
            }
            sink_events.peer_disconnected(0, peer, SimTime::from_secs(50));
            sink_events.peer_connected(1, peer, addr, SimTime::from_secs(60));
        }

        let summary = spilling.finish().unwrap();
        assert_eq!(summary.total_entries, 10);

        let expected = in_memory.into_dataset();
        let reader = ipfs_mon_tracestore::ManifestReader::open(&dir).unwrap();
        assert_eq!(reader.monitor_labels(), expected.monitor_labels);
        for (monitor, entries) in expected.entries.iter().enumerate() {
            let stored: Vec<TraceEntry> = reader.stream_monitor_sorted(monitor).collect();
            assert_eq!(&stored, entries);
        }
        // Connection order may differ (open connections drain from a map at
        // finish); compare as sets.
        let mut a: Vec<ConnectionRecord> = reader.connections().collect();
        let mut b = expected.connections.clone();
        let key = |c: &ConnectionRecord| (c.monitor, c.peer, c.connected_at, c.disconnected_at);
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        drop(reader);
        std::fs::remove_dir_all(&dir).ok();
    }
}
