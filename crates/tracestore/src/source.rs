//! [`TraceSource`] — one streaming interface over every trace representation.
//!
//! The analyses of the methodology layer need exactly three things from a
//! trace, none of which require it to be materialized: the monitor labels, a
//! time-ordered merged entry stream, and the connection records. This module
//! abstracts those behind one trait, implemented by
//!
//! * [`MonitoringDataset`] — the in-memory path (the reference semantics:
//!   monitor-major concatenation, stable-sorted by `(timestamp, monitor)`),
//! * [`ManifestReader`] — an on-disk dataset behind a manifest, streamed
//!   chunk by chunk.
//!
//! Consumers written against `&impl TraceSource` run identically over both,
//! so an analysis validated in memory scales to a ten-day on-disk trace
//! without touching its code. Disk-backed streams can fail mid-iteration
//! (CRC damage); [`SourceEntries::take_error`] surfaces that uniformly —
//! in-memory sources simply never report one.

use crate::reader::{ManifestMergedStream, ManifestReader};
use crate::record::{ConnectionRecord, MonitoringDataset, TraceEntry};
use crate::segment::SegmentError;

/// The merged, `(timestamp, monitor)`-ordered entry stream of a
/// [`TraceSource`].
pub enum SourceEntries {
    /// The sorted entries of an in-memory dataset.
    Memory(std::vec::IntoIter<TraceEntry>),
    /// The merged stream of an on-disk dataset.
    Manifest(ManifestMergedStream),
}

impl SourceEntries {
    /// Returns the storage error that ended the stream early, if any. Check
    /// after exhausting the stream when analyzing untrusted segments.
    pub fn take_error(&mut self) -> Option<SegmentError> {
        match self {
            Self::Memory(_) => None,
            Self::Manifest(stream) => stream.take_error(),
        }
    }
}

impl Iterator for SourceEntries {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        match self {
            Self::Memory(entries) => entries.next(),
            Self::Manifest(stream) => stream.next(),
        }
    }
}

/// The connection-record stream of a [`TraceSource`]. Connection records are
/// footer metadata — orders of magnitude rarer than entries — so the stream
/// is infallible: any damage already surfaced when the source was opened.
pub struct SourceConnections<'a> {
    inner: Box<dyn Iterator<Item = ConnectionRecord> + 'a>,
}

impl<'a> SourceConnections<'a> {
    /// Wraps a concrete record iterator.
    pub fn new(records: impl Iterator<Item = ConnectionRecord> + 'a) -> Self {
        Self {
            inner: Box::new(records),
        }
    }
}

impl Iterator for SourceConnections<'_> {
    type Item = ConnectionRecord;

    fn next(&mut self) -> Option<ConnectionRecord> {
        self.inner.next()
    }
}

/// A readable trace, wherever it lives.
///
/// An analysis written against `&impl TraceSource` runs unchanged over the
/// in-memory dataset or an on-disk manifest dataset:
///
/// ```
/// use ipfs_mon_bitswap::RequestType;
/// use ipfs_mon_simnet::time::SimTime;
/// use ipfs_mon_tracestore::{EntryFlags, MonitoringDataset, TraceEntry, TraceSource};
/// use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};
///
/// fn entry(ms: u64, monitor: usize) -> TraceEntry {
///     TraceEntry {
///         timestamp: SimTime::from_millis(ms),
///         peer: PeerId::derived(1, ms),
///         address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Us),
///         request_type: RequestType::WantHave,
///         cid: Cid::new_v1(Multicodec::Raw, b"x"),
///         monitor,
///         flags: EntryFlags::default(),
///     }
/// }
///
/// /// Counts the requests of a trace — any trace.
/// fn count_requests(source: &impl TraceSource) -> usize {
///     source.merged_entries().filter(|e| e.is_request()).count()
/// }
///
/// let mut dataset = MonitoringDataset::new(vec!["us".into(), "de".into()]);
/// dataset.entries[0].push(entry(20, 0));
/// dataset.entries[1].push(entry(10, 1));
/// assert_eq!(count_requests(&dataset), 2);
///
/// // The merged view is (timestamp, monitor)-ordered regardless of how the
/// // entries were laid out per monitor.
/// let times: Vec<u64> = dataset
///     .merged_entries()
///     .map(|e| e.timestamp.as_millis())
///     .collect();
/// assert_eq!(times, vec![10, 20]);
/// ```
///
/// The same `count_requests` accepts a [`ManifestReader`] — see [`crate::sink`] for the analysis engine built on top of this trait.
pub trait TraceSource {
    /// The monitor labels of the dataset.
    fn monitor_labels(&self) -> &[String];

    /// Number of monitors.
    fn monitor_count(&self) -> usize {
        self.monitor_labels().len()
    }

    /// All entries of all monitors, merged by `(timestamp, monitor)` with
    /// arrival order breaking ties — the order preprocessing expects, and
    /// bit-identical across every implementation for the same data.
    fn merged_entries(&self) -> SourceEntries;

    /// All connection records of the dataset.
    fn connection_records(&self) -> SourceConnections<'_>;

    /// Total number of entries, when cheaply known (footer metadata).
    fn entry_count(&self) -> Option<u64> {
        None
    }
}

impl TraceSource for MonitoringDataset {
    fn monitor_labels(&self) -> &[String] {
        &self.monitor_labels
    }

    fn merged_entries(&self) -> SourceEntries {
        // The reference order: monitor-major concatenation, stable-sorted by
        // (timestamp, monitor) — what `unify_and_flag` has always produced.
        let mut entries: Vec<TraceEntry> = self.entries.iter().flatten().cloned().collect();
        entries.sort_by_key(|e| (e.timestamp, e.monitor));
        SourceEntries::Memory(entries.into_iter())
    }

    fn connection_records(&self) -> SourceConnections<'_> {
        SourceConnections::new(self.connections.iter().cloned())
    }

    fn entry_count(&self) -> Option<u64> {
        Some(self.total_entries() as u64)
    }
}

impl TraceSource for ManifestReader {
    fn monitor_labels(&self) -> &[String] {
        ManifestReader::monitor_labels(self)
    }

    fn merged_entries(&self) -> SourceEntries {
        SourceEntries::Manifest(self.stream_merged())
    }

    fn connection_records(&self) -> SourceConnections<'_> {
        SourceConnections::new(self.connections())
    }

    fn entry_count(&self) -> Option<u64> {
        Some(self.total_entries())
    }
}
