//! [`TraceSource`] — one streaming interface over every trace representation.
//!
//! The analyses of the methodology layer need exactly three things from a
//! trace, none of which require it to be materialized: the monitor labels,
//! the entries, and the connection records. The entries come in the three
//! shapes the analyses consume them in —
//!
//! * [`TraceSource::merged_entries`]: every entry, in global
//!   `(timestamp, monitor)` order, for what compares entries across
//!   monitors (duplicate flagging);
//! * [`TraceSource::merged_entries_matching`]: the same stream restricted to
//!   rows naming a target CID or peer ([`RowTargets`]), for scans that only
//!   ever look at a few of them (the attacks);
//! * [`TraceSource::run_unmerged`]: no stream at all — an
//!   [`AnalysisSink`] run over each monitor's entries, for aggregates that
//!   do not care how monitors interleave (network size) —
//!
//! and the last two are where a source that stores dictionaries saves work:
//! a [`ManifestReader`] resolves targets against each chunk's dictionaries
//! and hands sinks that fold chunks the columns, while the in-memory dataset
//! runs the defaults (filter the merged stream; run the sink over it). This
//! module abstracts those behind one trait, implemented by
//!
//! * [`MonitoringDataset`] — the in-memory path (the reference semantics:
//!   each monitor's entries in stable timestamp order, merged by
//!   `(timestamp, monitor)` — [`MemoryMerge`]),
//! * [`ManifestReader`] — an on-disk dataset behind a manifest, streamed
//!   chunk by chunk.
//!
//! Consumers written against `&impl TraceSource` run identically over both,
//! so an analysis validated in memory scales to a ten-day on-disk trace
//! without touching its code. Disk-backed streams can fail mid-iteration
//! (CRC damage); [`SourceEntries::take_error`] surfaces that uniformly —
//! in-memory sources simply never report one.

use crate::reader::{ManifestMergedStream, ManifestReader, SharedChunk};
use crate::record::{ConnectionRecord, MonitoringDataset, TraceEntry};
use crate::segment::{ChunkView, SegmentError};
use crate::sink::{run_sink, AnalysisSink};
use ipfs_mon_obs as obs;
use ipfs_mon_simnet::time::SimTime;
use ipfs_mon_types::{Cid, PeerId};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

/// What a filtered merged stream keeps ([`TraceSource::merged_entries_matching`]):
/// the rows whose CID is one of `cids` or whose peer is one of `peers`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowTargets {
    /// Rows requesting (or cancelling) one of these CIDs match.
    pub cids: HashSet<Cid>,
    /// Rows sent by one of these peers match.
    pub peers: HashSet<PeerId>,
}

impl RowTargets {
    /// Whether `entry` mentions a target.
    pub fn matches(&self, entry: &TraceEntry) -> bool {
        self.cids.contains(&entry.cid) || self.peers.contains(&entry.peer)
    }

    /// The [`ChunkHook`](crate::reader::ChunkHook) of a filtered stream:
    /// resolves the targets against the chunk's two dictionaries (one probe
    /// per dictionary entry, not per row) and selects the rows that index a
    /// hit. Always selects, so a chunk without a target yields no row at all.
    pub(crate) fn select(&self, chunk: &ChunkView<'_>, rows: &mut Vec<usize>) -> bool {
        let cid_hits: Vec<bool> = chunk
            .cid_dict()
            .iter()
            .map(|cid| self.cids.contains(cid))
            .collect();
        let peer_hits: Vec<bool> = (0..chunk.peer_dict_len())
            .map(|index| self.peers.contains(&chunk.peer(index)))
            .collect();
        let columns = chunk.cid_indexes().iter().zip(chunk.peer_indexes());
        rows.extend(
            columns
                .enumerate()
                .filter(|&(_, (&cid, &peer))| cid_hits[cid] || peer_hits[peer])
                .map(|(row, _)| row),
        );
        if rows.is_empty() {
            obs::counter!("store.chunks_pruned").incr();
        }
        obs::counter!("store.rows_selected").add(rows.len() as u64);
        true
    }
}

/// The merged, `(timestamp, monitor)`-ordered entry stream of a
/// [`TraceSource`]. The in-memory stream borrows the dataset it merges.
pub enum SourceEntries<'a> {
    /// The merged entries of an in-memory dataset.
    Memory(MemoryMerge<'a>),
    /// The merged stream of an on-disk dataset.
    Manifest(ManifestMergedStream),
    /// The rows of another stream that mention a target — what
    /// [`TraceSource::merged_entries_matching`] yields by default.
    Matching(Box<SourceEntries<'a>>, RowTargets),
}

impl SourceEntries<'_> {
    /// Returns the storage error that ended the stream early, if any. Check
    /// after exhausting the stream when analyzing untrusted segments.
    pub fn take_error(&mut self) -> Option<SegmentError> {
        match self {
            Self::Memory(_) => None,
            Self::Manifest(stream) => stream.take_error(),
            Self::Matching(entries, _) => entries.take_error(),
        }
    }
}

impl Iterator for SourceEntries<'_> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        match self {
            Self::Memory(entries) => entries.next(),
            Self::Manifest(stream) => stream.next(),
            Self::Matching(entries, targets) => entries.find(|entry| targets.matches(entry)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Self::Memory(entries) => entries.size_hint(),
            Self::Manifest(stream) => stream.size_hint(),
            Self::Matching(entries, _) => (0, entries.size_hint().1),
        }
    }
}

/// The merged stream of a [`MonitoringDataset`]: a k-way merge of the
/// per-monitor vectors by `(timestamp, monitor)`, each vector walked in its
/// stable timestamp order, every entry's `monitor` the index of the vector
/// it sits in. That is exactly the reference order — the monitor-major
/// concatenation stable-sorted by `(timestamp, monitor)` — without copying
/// the trace: the merge holds one `u32` per entry (each monitor's order)
/// and clones an entry only when it yields it.
pub struct MemoryMerge<'a> {
    monitors: Vec<MonitorOrder<'a>>,
    /// The next entry of every monitor that has one, as `(timestamp, monitor)`.
    heads: BinaryHeap<Reverse<(SimTime, usize)>>,
    remaining: usize,
}

/// One monitor's entries and the indexes of those not yet yielded, in
/// stable timestamp order.
struct MonitorOrder<'a> {
    entries: &'a [TraceEntry],
    order: std::vec::IntoIter<u32>,
}

impl<'a> MonitorOrder<'a> {
    fn new(entries: &'a [TraceEntry]) -> Self {
        let len = u32::try_from(entries.len())
            .expect("an in-memory monitor holds fewer than 2^32 entries");
        let mut order: Vec<u32> = (0..len).collect();
        // The index breaks timestamp ties, so the unstable sort is stable —
        // without a stable sort's scratch — and one pass over a vector
        // already in order.
        order.sort_unstable_by_key(|&index| (entries[index as usize].timestamp, index));
        Self {
            entries,
            order: order.into_iter(),
        }
    }

    /// The timestamp of the next entry, if any.
    fn head(&self) -> Option<SimTime> {
        let &index = self.order.as_slice().first()?;
        Some(self.entries[index as usize].timestamp)
    }
}

impl<'a> MemoryMerge<'a> {
    fn new(entries: &'a [Vec<TraceEntry>]) -> Self {
        let monitors: Vec<MonitorOrder<'a>> =
            entries.iter().map(|of| MonitorOrder::new(of)).collect();
        let heads = monitors
            .iter()
            .enumerate()
            .filter_map(|(monitor, order)| Some(Reverse((order.head()?, monitor))))
            .collect();
        Self {
            monitors,
            heads,
            remaining: entries.iter().map(Vec::len).sum(),
        }
    }
}

impl Iterator for MemoryMerge<'_> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        let mut top = self.heads.peek_mut()?;
        let Reverse((_, monitor)) = *top;
        let of_monitor = &mut self.monitors[monitor];
        let index = of_monitor.order.next()?;
        match of_monitor.head() {
            Some(timestamp) => *top = Reverse((timestamp, monitor)),
            None => drop(PeekMut::pop(top)),
        }
        self.remaining -= 1;
        // An entry's monitor is the vector it sits in, as on disk it is the
        // chain it sits in: the stored field is whatever a file said.
        Some(TraceEntry {
            monitor,
            ..of_monitor.entries[index as usize].clone()
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
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

    /// Number of monitors. Every entry the source yields carries a
    /// [`TraceEntry::monitor`] below this — the source stamps the index
    /// itself, it is never taken from stored bytes — so consumers may size
    /// per-monitor state by it and index without checking.
    fn monitor_count(&self) -> usize {
        self.monitor_labels().len()
    }

    /// All entries of all monitors, merged by `(timestamp, monitor)` with
    /// arrival order breaking ties — the order preprocessing expects, and
    /// bit-identical across every implementation for the same data.
    fn merged_entries(&self) -> SourceEntries<'_>;

    /// The rows of [`TraceSource::merged_entries`] that mention a target —
    /// their CID is in `targets.cids` or their peer in `targets.peers` — in
    /// the same order. For the scans that only ever look at a few CIDs and
    /// peers: a source that stores dictionaries ([`ManifestReader`]) pushes
    /// the targets into its decoder and never builds the other rows.
    fn merged_entries_matching(&self, targets: &RowTargets) -> SourceEntries<'_> {
        SourceEntries::Matching(Box::new(self.merged_entries()), targets.clone())
    }

    /// Runs `sink` over every entry without merging the monitors' streams —
    /// the counterpart of [`TraceSource::merged_entries`] for analyses that
    /// are [`AnalysisSink`]s, i.e. indifferent to how monitors interleave.
    /// The merged order is one valid interleaving, so the default is
    /// [`run_sink`]; [`ManifestReader`] runs one worker per monitor chain
    /// and lets sinks that fold chunks read columns
    /// ([`ManifestReader::run_parallel`]).
    fn run_unmerged<K>(&self, sink: K) -> Result<K::Output, SegmentError>
    where
        K: AnalysisSink + Clone + Send,
        Self: Sized,
    {
        run_sink(self, sink)
    }

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

    /// A dataset built field by field may hold more entry vectors than labels.
    fn monitor_count(&self) -> usize {
        self.monitor_labels.len().max(self.entries.len())
    }

    fn merged_entries(&self) -> SourceEntries<'_> {
        SourceEntries::Memory(MemoryMerge::new(&self.entries))
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

    fn merged_entries(&self) -> SourceEntries<'_> {
        SourceEntries::Manifest(self.stream_merged())
    }

    fn merged_entries_matching(&self, targets: &RowTargets) -> SourceEntries<'_> {
        let targets = targets.clone();
        SourceEntries::Manifest(self.merge_chains(Some(Arc::new(
            move |chunk: &SharedChunk, rows: &mut Vec<usize>| targets.select(chunk, rows),
        ))))
    }

    fn run_unmerged<K>(&self, sink: K) -> Result<K::Output, SegmentError>
    where
        K: AnalysisSink + Clone + Send,
    {
        self.run_parallel(sink)
    }

    fn connection_records(&self) -> SourceConnections<'_> {
        SourceConnections::new(self.connections())
    }

    fn entry_count(&self) -> Option<u64> {
        Some(self.total_entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EntryFlags;
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_types::{Country, Multiaddr, Multicodec, Transport};
    use proptest::prelude::*;

    /// The order [`MemoryMerge`] replaces, kept as its oracle: every entry
    /// cloned into one vector in monitor-major order, its monitor the index
    /// of the vector it sits in, then stable-sorted by `(timestamp, monitor)`.
    fn sorted_copy(dataset: &MonitoringDataset) -> Vec<TraceEntry> {
        let mut entries: Vec<TraceEntry> = dataset
            .entries
            .iter()
            .enumerate()
            .flat_map(|(monitor, of_monitor)| {
                of_monitor.iter().map(move |entry| TraceEntry {
                    monitor,
                    ..entry.clone()
                })
            })
            .collect();
        entries.sort_by_key(|e| (e.timestamp, e.monitor));
        entries
    }

    /// An entry told apart from every other by its peer: `tag` is unique
    /// within a dataset. `stored` is the monitor field as a file might have
    /// said it, whatever vector the entry sits in.
    fn entry(ms: u64, tag: u64, stored: usize) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(7, tag),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Us),
            request_type: RequestType::WantHave,
            cid: Cid::new_v1(Multicodec::Raw, &tag.to_le_bytes()),
            monitor: stored,
            flags: EntryFlags::default(),
        }
    }

    proptest! {
        /// The lazy merge yields exactly the sorted copy, with an exact size
        /// hint before every entry: 0–4 monitors, empty ones among them,
        /// vectors out of timestamp order, timestamp ties within and across
        /// monitors (a few milliseconds apart at most), stored monitor fields
        /// that disagree with the vector, and more vectors than labels.
        #[test]
        fn merged_entries_match_the_sorted_copy(
            monitors in proptest::collection::vec(
                proptest::collection::vec((0u64..6, 0usize..6), 0..40),
                0..5,
            ),
            labels in 0usize..5,
        ) {
            let mut dataset = MonitoringDataset::new((0..labels).map(|l| l.to_string()).collect());
            let mut tag = 0;
            dataset.entries = monitors
                .iter()
                .map(|rows| {
                    rows.iter()
                        .map(|&(ms, stored)| {
                            tag += 1;
                            entry(ms, tag, stored)
                        })
                        .collect()
                })
                .collect();
            let want = sorted_copy(&dataset);
            let mut merged = dataset.merged_entries();
            let mut got = Vec::new();
            loop {
                let left = want.len() - got.len();
                prop_assert_eq!(merged.size_hint(), (left, Some(left)));
                let Some(entry) = merged.next() else { break };
                got.push(entry);
            }
            prop_assert_eq!(got, want);
        }
    }
}
