//! Trace data model.
//!
//! The monitoring nodes produce traces of
//! `(timestamp, node_ID, address, request_type, CID)` tuples (Sec. IV-A).
//! After preprocessing, entries additionally carry flags marking inter-monitor
//! duplicates and same-monitor re-broadcasts (Sec. IV-B). This module defines
//! those records and the in-memory trace containers. The compact columnar
//! segment format in [`crate::segment`] is their one on-disk representation.
//!
//! The module lives in `ipfs-mon-tracestore` (the storage subsystem owns the
//! record types); `ipfs_mon_core::trace` re-exports everything, so consumers
//! of the core crate are unaffected.

use ipfs_mon_bitswap::RequestType;
use ipfs_mon_simnet::time::SimTime;
use ipfs_mon_types::{Cid, Multiaddr, PeerId};

/// Flags attached to a trace entry by preprocessing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntryFlags {
    /// The same `(peer, request type, CID)` entry was already received by a
    /// *different* monitor within the inter-monitor duplicate window (5 s).
    pub inter_monitor_duplicate: bool,
    /// The same `(peer, request type, CID)` entry was received by the *same*
    /// monitor within the re-broadcast window (31 s) — one of IPFS' periodic
    /// 30 s re-broadcasts for unresolved wants.
    pub rebroadcast: bool,
}

impl EntryFlags {
    /// Returns true if the entry survives both filters (the setting used for
    /// the analyses in the paper, where both kinds of repeats are dropped).
    pub fn is_primary(&self) -> bool {
        !self.inter_monitor_duplicate && !self.rebroadcast
    }
}

/// One wantlist entry as recorded by a monitor (before or after
/// preprocessing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Arrival time at the monitor.
    pub timestamp: SimTime,
    /// Peer ID of the sender.
    pub peer: PeerId,
    /// Transport address of the sender (carries the GeoIP country).
    pub address: Multiaddr,
    /// Entry type.
    pub request_type: RequestType,
    /// Requested CID.
    pub cid: Cid,
    /// Index of the monitor that recorded the entry.
    pub monitor: usize,
    /// Preprocessing flags (all false on raw entries).
    pub flags: EntryFlags,
}

impl TraceEntry {
    /// Returns true for entries that express interest in data (wants, not
    /// cancels).
    pub fn is_request(&self) -> bool {
        self.request_type.is_request()
    }
}

/// A connection observed by a monitor: who connected, when, and until when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionRecord {
    /// Monitor that held the connection.
    pub monitor: usize,
    /// The remote peer.
    pub peer: PeerId,
    /// The remote address.
    pub address: Multiaddr,
    /// When the connection was established.
    pub connected_at: SimTime,
    /// When it was torn down (`None` = still connected at the end of the
    /// observation period).
    pub disconnected_at: Option<SimTime>,
}

impl ConnectionRecord {
    /// Returns true if the connection was up at `t`.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.connected_at <= t && self.disconnected_at.map(|d| t < d).unwrap_or(true)
    }
}

/// The raw output of one monitoring deployment: per-monitor Bitswap entries
/// plus connection logs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitoringDataset {
    /// Human-readable monitor labels ("us", "de").
    pub monitor_labels: Vec<String>,
    /// Raw entries per monitor, in arrival order.
    pub entries: Vec<Vec<TraceEntry>>,
    /// Connection records across all monitors.
    pub connections: Vec<ConnectionRecord>,
}

impl MonitoringDataset {
    /// Creates an empty dataset for the given monitor labels.
    pub fn new(monitor_labels: Vec<String>) -> Self {
        let monitors = monitor_labels.len();
        Self {
            monitor_labels,
            entries: vec![Vec::new(); monitors],
            connections: Vec::new(),
        }
    }

    /// Number of monitors.
    pub fn monitor_count(&self) -> usize {
        self.monitor_labels.len()
    }

    /// Total number of raw entries across monitors.
    pub fn total_entries(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    /// Unique peers that were *connected* to monitor `monitor` at any point.
    pub fn peers_connected_to(&self, monitor: usize) -> std::collections::HashSet<PeerId> {
        self.connections
            .iter()
            .filter(|c| c.monitor == monitor)
            .map(|c| c.peer)
            .collect()
    }

    /// Peers connected to monitor `monitor` at instant `t` (a "peer set
    /// snapshot" in the sense of the network-size estimators).
    pub fn peer_set_at(&self, monitor: usize, t: SimTime) -> std::collections::HashSet<PeerId> {
        self.connections
            .iter()
            .filter(|c| c.monitor == monitor && c.active_at(t))
            .map(|c| c.peer)
            .collect()
    }
}

/// A unified, preprocessed trace: entries from all monitors merged into one
/// time-ordered stream with duplicate/re-broadcast flags set.
#[derive(Debug, Clone, Default)]
pub struct UnifiedTrace {
    /// All entries in timestamp order.
    pub entries: Vec<TraceEntry>,
}

impl UnifiedTrace {
    /// Number of entries (including flagged ones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries that survive both filters (the default analysis view).
    pub fn primary_entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter().filter(|e| e.flags.is_primary())
    }

    /// Primary entries that are requests (wants, not cancels).
    pub fn primary_requests(&self) -> impl Iterator<Item = &TraceEntry> {
        self.primary_entries().filter(|e| e.is_request())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_mon_types::{Country, Multicodec, Transport};

    fn entry(secs: u64, peer: u64, monitor: usize) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_secs(secs),
            peer: PeerId::derived(1, peer),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::De),
            request_type: RequestType::WantHave,
            cid: Cid::new_v1(Multicodec::Raw, b"x"),
            monitor,
            flags: EntryFlags::default(),
        }
    }

    #[test]
    fn flags_primary_logic() {
        assert!(EntryFlags::default().is_primary());
        assert!(!EntryFlags {
            inter_monitor_duplicate: true,
            rebroadcast: false
        }
        .is_primary());
        assert!(!EntryFlags {
            inter_monitor_duplicate: false,
            rebroadcast: true
        }
        .is_primary());
    }

    #[test]
    fn connection_record_activity_window() {
        let record = ConnectionRecord {
            monitor: 0,
            peer: PeerId::derived(1, 1),
            address: Multiaddr::new(1, 1, Transport::Tcp, Country::Us),
            connected_at: SimTime::from_secs(10),
            disconnected_at: Some(SimTime::from_secs(20)),
        };
        assert!(!record.active_at(SimTime::from_secs(9)));
        assert!(record.active_at(SimTime::from_secs(10)));
        assert!(record.active_at(SimTime::from_secs(19)));
        assert!(!record.active_at(SimTime::from_secs(20)));

        let open_ended = ConnectionRecord {
            disconnected_at: None,
            ..record
        };
        assert!(open_ended.active_at(SimTime::from_secs(1_000_000)));
    }

    #[test]
    fn dataset_peer_sets() {
        let mut ds = MonitoringDataset::new(vec!["us".into(), "de".into()]);
        ds.entries[0].push(entry(1, 1, 0));
        ds.entries[0].push(entry(2, 2, 0));
        ds.entries[1].push(entry(3, 2, 1));
        assert_eq!(ds.total_entries(), 3);

        ds.connections.push(ConnectionRecord {
            monitor: 0,
            peer: PeerId::derived(1, 5),
            address: Multiaddr::new(1, 1, Transport::Tcp, Country::Us),
            connected_at: SimTime::from_secs(0),
            disconnected_at: Some(SimTime::from_secs(100)),
        });
        assert_eq!(ds.peers_connected_to(0).len(), 1);
        assert_eq!(ds.peer_set_at(0, SimTime::from_secs(50)).len(), 1);
        assert_eq!(ds.peer_set_at(0, SimTime::from_secs(150)).len(), 0);
        assert_eq!(ds.peer_set_at(1, SimTime::from_secs(50)).len(), 0);
    }

    #[test]
    fn unified_trace_filters() {
        let mut trace = UnifiedTrace::default();
        trace.entries.push(entry(1, 1, 0));
        let mut dup = entry(2, 1, 1);
        dup.flags.inter_monitor_duplicate = true;
        trace.entries.push(dup);
        let mut cancel = entry(3, 1, 0);
        cancel.request_type = RequestType::Cancel;
        trace.entries.push(cancel);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.primary_entries().count(), 2);
        assert_eq!(trace.primary_requests().count(), 1);
    }
}
