//! Streaming segment readers: single segments ([`TraceReader`], one
//! monitor's entries each) and manifest-spanning multi-segment datasets
//! ([`ManifestReader`], which knows which monitor each segment belongs to and
//! stamps that index on every record it yields — the index stored inside a
//! segment is the constant 0, refused when it is not, and never consulted).
//!
//! A stream reads its segment one way, the way the live tail and crash
//! recovery do: through the crate's segment cursor (`cursor::SegmentCursor`,
//! positioned reads into one buffer of at most a frame plus a 64 KiB piece),
//! every chunk frame in order up to the footer. Its stopping rule is the
//! footer's index: frame *i* must be index row *i* — the same offset, length
//! and entry count — and the footer must start where the last frame ends. A
//! frame that is not ends the stream in that frame's own typed error, before
//! any of its rows.
//!
//! A reader has one behaviour under damage: it fails. A missing, mislabelled
//! or miscounted segment fails [`ManifestReader::open`]; damage only a decode
//! finds ends every stream of the dataset in the same typed first error
//! (the lowest failing monitor's). Nothing is skipped; the one repair is
//! [`crate::recover_dataset`].
//!
//! A reader parses bytes from disk, so the module denies indexing, `unwrap`,
//! `expect` and `panic!`; each site left names the invariant that makes it
//! safe.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use crate::cursor::{check_row, read_footer, SegmentCursor};
use crate::manifest::{Manifest, SegmentMeta};
use crate::record::{ConnectionRecord, TraceEntry};
use crate::segment::{ChunkInfo, ChunkScratch, ChunkView, Footer, SegmentError, HEADER_LEN};
use ipfs_mon_obs as obs;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fs::File;
use std::path::Path;
use std::sync::{mpsc, Arc};

/// A segment — one monitor's entries — opened for reading.
///
/// Opening costs three positioned reads: header, trailer and footer. Entry
/// data is only touched when streamed, one chunk at a time, so memory stays
/// bounded by the chunk size times the number of concurrently active
/// streams, which share the reader's file.
pub struct TraceReader {
    file: File,
    footer: Footer,
    /// Where the footer starts, which is where the last chunk frame ends.
    footer_start: u64,
}

impl TraceReader {
    /// Opens the segment file at `path`: validates the header, locates and
    /// checks the footer.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SegmentError> {
        let file = File::open(path)?;
        let (footer_start, footer) = read_footer(&file)?;
        Ok(Self {
            file,
            footer,
            footer_start,
        })
    }

    /// The label of the monitor whose entries the segment holds.
    pub fn label(&self) -> &str {
        &self.footer.label
    }

    /// All connection records.
    pub fn connections(&self) -> &[ConnectionRecord] {
        &self.footer.connections
    }

    /// The chunk index.
    pub fn chunks(&self) -> &[ChunkInfo] {
        &self.footer.chunks
    }

    /// Total entries across all chunks.
    pub fn total_entries(&self) -> u64 {
        self.footer.total_entries
    }

    /// Streams the segment's entries in storage (arrival) order, decoding
    /// one chunk at a time. Their `monitor` is 0: a segment does not know
    /// which monitor of a dataset it belongs to.
    pub fn stream(&self) -> EntryStream<'_> {
        self.stream_with(None)
    }

    /// [`TraceReader::stream`] with a [`ChunkHook`] that sees every chunk
    /// before its rows.
    fn stream_with<'a>(&'a self, hook: Option<ChunkHook<'a>>) -> EntryStream<'a> {
        let end = Some(self.footer_start);
        EntryStream {
            frames: SegmentCursor::new(&self.file, HEADER_LEN as u64, end, Vec::new()),
            index: &self.footer.chunks,
            next_chunk: 0,
            current: None,
            current_number: 0,
            hook,
            filtered: false,
            selected: Vec::new(),
            cursor: 0,
            watermarked: 0,
            high_water: SimTime::ZERO,
            error: None,
            built: entries_built(),
        }
    }

    /// The maximum backward timestamp jump recorded for the segment's
    /// stream, in milliseconds. Zero means the stream is already time-sorted.
    pub fn max_lateness_ms(&self) -> u64 {
        self.footer.max_lateness_ms
    }

    /// The segment's rows as keys sorted by timestamp (stable: equal
    /// timestamps keep arrival order), with a [`ChunkHook`] that sees every
    /// chunk before its rows. Arrival streams carry send-side timestamps and
    /// are only locally out of order; a reorder buffer sized by the lateness
    /// bound recorded at write time restores exact order with memory
    /// proportional to the disorder window, not the trace.
    fn sorted_keys<'a>(&'a self, hook: Option<ChunkHook<'a>>) -> SortedKeys<'a> {
        SortedKeys {
            inner: self.stream_with(hook),
            lateness: SimDuration::from_millis(self.max_lateness_ms()),
            held: BinaryHeap::new(),
            drained: false,
        }
    }
}

/// A row on its way through the read path: where it sorts and where it is.
///
/// From the chunk decode through the reorder buffer, the chain merge, the
/// prefetch batches and the k-way merge a row is these 16 bytes, never a
/// 136-byte [`TraceEntry`]: the chunk it points into is validated, shared
/// ([`SharedChunk`]) and handed along beside the keys ([`KeyedChunk`]), and
/// the entry is built once, by whoever hands the row out of the crate.
///
/// The derived order *is* `(timestamp, arrival)` within one segment stream:
/// chunks are numbered in the order they are read and rows in the order
/// they were appended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RowKey {
    timestamp: SimTime,
    /// Where the row is: in the upper half the number of its chunk among the
    /// chunks its chain has made keys into (see [`Handoff`]), in the lower
    /// its index in that chunk. One word, so that keys compare as a pair.
    place: u64,
}

impl RowKey {
    /// The key of row `row` — below `u32::MAX`, as [`EntryStream`] sees to —
    /// of chunk number `chunk`.
    fn new(timestamp: SimTime, chunk: u32, row: usize) -> Self {
        Self {
            timestamp,
            place: u64::from(chunk) << 32 | row as u64,
        }
    }

    fn chunk(self) -> u32 {
        (self.place >> 32) as u32
    }

    fn row(self) -> usize {
        self.place as u32 as usize
    }
}

const _: () = assert!(std::mem::size_of::<RowKey>() == 16);

/// A validated chunk that row keys point into. It owns its frame, so it
/// outlives the stream that read it and crosses to the thread that builds
/// the rows. It lives while a key points into it; after the last one its
/// chain takes it back when it reads its next chunk ([`Handoff::reclaim`]),
/// or — the chain having nothing left to read — it goes with that key.
pub(crate) type SharedChunk = Arc<ChunkView<'static>>;

/// A chunk while keys point into it: how it is handed from the stream that
/// read it to whoever resolves the keys, and how that one holds it.
struct KeyedChunk {
    chunk: SharedChunk,
    /// Keys into the chunk that are still held; all of them at first.
    keys_held: u32,
    /// See [`MergedRow::memo`].
    memo: Vec<u64>,
}

/// Where the segment streams of one chain leave the chunks they have made
/// keys into, numbered in that order, for whoever resolves the keys: the
/// stream's own [`ChunkRing`], or — shipped with the next prefetch batch —
/// the merge's. The chain keeps a reference of its own to each, and takes a
/// chunk back to decode the next one into once it is the last to hold it.
#[derive(Default)]
struct Handoff {
    next_number: u32,
    fresh: Vec<KeyedChunk>,
    /// The chunks handed off and not taken back yet.
    lent: Vec<SharedChunk>,
}

impl Handoff {
    /// Numbers `chunk`, into which `rows` keys will be made.
    fn register(&mut self, chunk: &SharedChunk, rows: u32) -> Result<u32, SegmentError> {
        let number = self.next_number;
        self.next_number = number.checked_add(1).ok_or_else(|| {
            SegmentError::Corrupt("a monitor chain of more than 2^32 chunks".into())
        })?;
        self.fresh.push(KeyedChunk {
            chunk: chunk.clone(),
            keys_held: rows,
            memo: Vec::new(),
        });
        self.lent.push(chunk.clone());
        Ok(number)
    }

    /// Takes back the chunks whose every key has been let go: the
    /// allocations of one to decode the next chunk into, the others freed.
    /// One set then serves a whole chain, instead of a fresh `Vec` per
    /// column per chunk, and the thread that builds the rows frees nothing.
    fn reclaim(&mut self) -> ChunkScratch {
        let mut scratch = None;
        let mut at = 0;
        while let Some(chunk) = self.lent.get(at) {
            // Nobody else can clone a chunk this holds the last reference to.
            if Arc::strong_count(chunk) > 1 {
                at += 1;
            } else if let Ok(chunk) = Arc::try_unwrap(self.lent.swap_remove(at)) {
                scratch.get_or_insert_with(|| chunk.into_scratch());
            }
        }
        scratch.unwrap_or_default()
    }
}

/// The chunks the keys of one chain still point into, by chunk number.
#[derive(Default)]
struct ChunkRing {
    /// Slot `i` holds chunk number `first + i`, `None` once the last key
    /// into it was let go; the front slot is always a held chunk.
    slots: VecDeque<Option<KeyedChunk>>,
    first: u32,
}

impl ChunkRing {
    /// Takes over freshly numbered chunks, in numbering order.
    #[inline]
    fn admit(&mut self, fresh: &mut Vec<KeyedChunk>) {
        // Once per chunk, asked once per row.
        if !fresh.is_empty() {
            self.slots.extend(fresh.drain(..).map(Some));
        }
    }

    /// The chunk of a key that is still held.
    // A key's chunk is admitted before the key is handed out, and its slot
    // stays until the last key into it is let go.
    #[allow(clippy::indexing_slicing, clippy::expect_used)]
    #[inline]
    fn slot(&mut self, key: RowKey) -> &mut KeyedChunk {
        self.slots[key.chunk().wrapping_sub(self.first) as usize]
            .as_mut()
            .expect("a chunk is held until the last key into it is let go")
    }

    /// Lets go of `key`, and of its chunk with the last key into it.
    #[allow(clippy::indexing_slicing)] // The held-chunk invariant of `slot`.
    #[inline]
    fn let_go(&mut self, key: RowKey) {
        let slot = self.slot(key);
        slot.keys_held -= 1;
        if slot.keys_held == 0 {
            self.slots[key.chunk().wrapping_sub(self.first) as usize] = None;
            while let Some(None) = self.slots.front() {
                self.slots.pop_front();
                self.first = self.first.wrapping_add(1);
            }
        }
    }
}

/// What a stream that yields entries on the thread that read them keeps
/// beside its keys: the chunks they point into, and the count of the
/// entries built from them.
struct KeyedRows {
    handoff: Handoff,
    ring: ChunkRing,
    built: obs::BatchedCounter,
}

impl Default for KeyedRows {
    fn default() -> Self {
        Self {
            handoff: Handoff::default(),
            ring: ChunkRing::default(),
            built: entries_built(),
        }
    }
}

impl KeyedRows {
    /// Builds the entry `key` points at and lets go of the key.
    #[inline]
    fn build(&mut self, key: RowKey) -> TraceEntry {
        self.ring.admit(&mut self.handoff.fresh);
        let entry = self.ring.slot(key).chunk.entry(key.row());
        self.ring.let_go(key);
        self.built.incr();
        entry
    }
}

/// `store.entries_built`: one per [`TraceEntry`] a stream of this module
/// materialises.
fn entries_built() -> obs::BatchedCounter {
    obs::BatchedCounter::new(obs::counter!("store.entries_built"))
}

/// A stream's per-chunk callback: it sees every chunk the stream has read —
/// validated and held to its index row, before a key into it exists.
///
/// The hook may read the chunk's columns, and it decides which rows the
/// stream goes on to yield: it returns `true` after writing their indexes
/// (ascending) into the vector, or `false` for "every row". A chunk-level
/// sink run offers the chunk to its sink here; a filtered stream resolves
/// its targets against the chunk's dictionaries here.
pub(crate) type ChunkHook<'a> = &'a dyn Fn(&SharedChunk, &mut Vec<usize>) -> bool;

/// `high_water` raised to the latest of `times_ms`.
fn latest(high_water: SimTime, times_ms: &[u64]) -> SimTime {
    times_ms.iter().fold(high_water, |latest, &ms| {
        latest.max(SimTime::from_millis(ms))
    })
}

/// Iterator over one segment's entries, decoding chunk by chunk.
///
/// Each chunk is parsed into a validated [`ChunkView`] and an owned entry is
/// materialized from it as the iterator is advanced. Inside a sorted or
/// chained stream the same decode yields 16-byte row keys instead and no
/// entry is built here at all.
///
/// Decode failures (which chunk CRCs make vanishingly unlikely short of
/// actual corruption) end the stream early; check [`EntryStream::take_error`]
/// after exhaustion when the distinction matters.
pub struct EntryStream<'a> {
    /// The segment's frames, read in order up to the footer.
    frames: SegmentCursor<&'a File>,
    /// The footer's index: row `i` is what frame `i` must be.
    index: &'a [ChunkInfo],
    next_chunk: usize,
    current: Option<SharedChunk>,
    /// The number `current` was handed off under.
    current_number: u32,
    hook: Option<ChunkHook<'a>>,
    /// Whether the hook selected rows of `current` (into `selected`); every
    /// row is yielded otherwise.
    filtered: bool,
    selected: Vec<usize>,
    /// Next position in `selected` when `filtered`, else next row.
    cursor: usize,
    /// Rows of `current` whose timestamps `high_water` already covers.
    watermarked: usize,
    /// Highest timestamp of any row the stream has moved past, yielded or
    /// not. The reorder buffer releases against this, so a filtered stream
    /// releases what it holds as soon as the unfiltered one would have
    /// pulled the next selected row.
    high_water: SimTime,
    error: Option<SegmentError>,
    built: obs::BatchedCounter,
}

impl EntryStream<'_> {
    /// Returns the error that ended the stream early, if any.
    pub fn take_error(&mut self) -> Option<SegmentError> {
        self.error.take()
    }

    /// Reads the next chunk, offers it to the hook and — when its keys will
    /// be resolved by someone else — hands it off.
    fn load_next_chunk(&mut self, mut handoff: Option<&mut Handoff>) -> bool {
        let previous = self.current.take();
        if let Some(view) = &previous {
            // Rows the hook left out still happened: account for their times
            // before the chunk goes.
            let unseen = view.timestamps_ms().get(self.watermarked..);
            self.high_water = latest(self.high_water, unseen.unwrap_or_default());
        }
        // Recycle column allocations: of the previous chunk if no key was
        // made into it, else of a chunk handed off earlier whose keys are
        // all gone.
        let scratch = previous
            .and_then(|chunk| Arc::try_unwrap(chunk).ok())
            .map(ChunkView::into_scratch)
            .or_else(|| handoff.as_deref_mut().map(Handoff::reclaim))
            .unwrap_or_default();
        // The stopping rule: frame `i` must be index row `i`, and the frames
        // end where the footer starts with no row left over. This is the one
        // place a read path turns a frame into a chunk; only a chunk it
        // returned is ever keyed into.
        let (index, at) = (self.index, self.next_chunk);
        let loaded = self.frames.next_frame(scratch).and_then(|frame| {
            let Some((frame, view)) = frame else {
                return check_row(index, at, None).map(|()| None);
            };
            check_row(index, at, Some(&frame))?;
            if u32::try_from(view.len()).is_err() {
                return Err(SegmentError::Corrupt(
                    "more rows than a row key addresses".into(),
                ));
            }
            self.next_chunk += 1;
            let chunk = Arc::new(view.into_owned());
            self.selected.clear();
            self.filtered = self
                .hook
                .is_some_and(|hook| hook(&chunk, &mut self.selected));
            let rows = if self.filtered {
                self.selected.len()
            } else {
                chunk.len()
            };
            // The rows of a chunk are below `u32::MAX`, as checked above.
            self.current_number = match handoff.as_deref_mut() {
                Some(handoff) if rows > 0 => handoff.register(&chunk, rows as u32)?,
                _ => 0,
            };
            Ok(Some(chunk))
        });
        match loaded {
            Ok(Some(chunk)) => {
                self.cursor = 0;
                self.watermarked = 0;
                self.current = Some(chunk);
                true
            }
            Ok(None) => {
                // Nothing is left to decode into a chunk taken back: from
                // here on a chunk goes with the last key into it.
                if let Some(handoff) = handoff {
                    handoff.lent.clear();
                }
                false
            }
            Err(error) => {
                self.error = Some(error);
                false
            }
        }
    }

    /// Moves to the next row the stream yields: its index in `current`.
    #[inline]
    fn next_row(&mut self, mut handoff: Option<&mut Handoff>) -> Option<usize> {
        loop {
            if let Some(view) = &self.current {
                let row = if self.filtered {
                    self.selected.get(self.cursor).copied()
                } else {
                    (self.cursor < view.len()).then_some(self.cursor)
                };
                if let Some(row) = row {
                    self.cursor += 1;
                    // Rows are selected in ascending order, past `watermarked`.
                    let passed = view.timestamps_ms().get(self.watermarked..=row);
                    self.high_water = latest(self.high_water, passed.unwrap_or_default());
                    self.watermarked = row + 1;
                    return Some(row);
                }
            }
            if self.error.is_some() || !self.load_next_chunk(handoff.as_deref_mut()) {
                return None;
            }
        }
    }

    /// The next row as a key, its chunk left in `handoff`.
    // Inlined into the reorder buffer, which calls it once per row.
    #[inline]
    fn next_key(&mut self, handoff: &mut Handoff) -> Option<RowKey> {
        let row = self.next_row(Some(handoff))?;
        let timestamp = *self.current.as_deref()?.timestamps_ms().get(row)?;
        Some(RowKey::new(
            SimTime::from_millis(timestamp),
            self.current_number,
            row,
        ))
    }
}

impl Iterator for EntryStream<'_> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        let row = self.next_row(None)?;
        self.built.incr();
        Some(self.current.as_deref()?.entry(row))
    }
}

/// One segment's rows in exact `(timestamp, arrival)` order via a bounded
/// reorder buffer: a min-heap of the 16-byte keys of the rows held back,
/// whose derived order is that order.
struct SortedKeys<'a> {
    inner: EntryStream<'a>,
    lateness: SimDuration,
    held: BinaryHeap<Reverse<RowKey>>,
    drained: bool,
}

impl SortedKeys<'_> {
    fn next_key(&mut self, handoff: &mut Handoff) -> Option<RowKey> {
        loop {
            // A row is safe to emit once the arrival stream has advanced
            // past its timestamp by more than the recorded lateness bound:
            // every future arrival then has a strictly later timestamp.
            match self.held.peek() {
                Some(&Reverse(key))
                    if self.drained
                        || self.inner.high_water.since(key.timestamp) > self.lateness =>
                {
                    self.held.pop();
                    return Some(key);
                }
                None if self.drained => return None,
                _ => {}
            }

            match self.inner.next_key(handoff) {
                Some(key) => self.held.push(Reverse(key)),
                None => self.drained = true,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-segment datasets
// ---------------------------------------------------------------------------

/// A multi-segment dataset opened through its manifest.
///
/// Every segment of the manifest is opened and validated up front (one file
/// handle and one footer read each — so the reader holds O(#segments) file
/// descriptors for its lifetime; size [`crate::manifest::DatasetConfig::rotate_after_entries`]
/// with the process fd limit in mind). Entry data streams chunk by chunk
/// exactly as with a single [`TraceReader`], and merge state is bounded by
/// the few segments overlapping the merge frontier, not the chain length.
/// The merged view is identical to what one big segment would produce:
/// rotation splits a monitor's arrival stream at arbitrary points, and the
/// per-monitor chain merge re-establishes exact `(timestamp, arrival)` order
/// across the rotation boundaries before the global `(timestamp, monitor)`
/// merge.
pub struct ManifestReader {
    monitor_labels: Vec<String>,
    /// Per global monitor: that monitor's segments in rotation order. Each
    /// chain is `Arc`-shared so the prefetch workers of a merged stream
    /// read through these validated handles instead of re-opening files.
    segments: Vec<Arc<[TraceReader]>>,
    total_entries: u64,
}

impl ManifestReader {
    /// Opens a dataset from `path` — the manifest file or the directory
    /// holding it. Validates each segment's footer, label and entry count
    /// against the manifest (see the [module docs](self) on damage).
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SegmentError> {
        let path = path.as_ref();
        let manifest = Manifest::load(path)?;
        let dir = if path.is_dir() {
            path
        } else {
            path.parent().unwrap_or(Path::new("."))
        };
        let mut segments = Vec::with_capacity(manifest.monitor_labels.len());
        let mut total_entries = 0u64;
        for (monitor, label) in manifest.monitor_labels.iter().enumerate() {
            // The chain merge breaks timestamp ties by chain position, so the
            // position must be rotation order regardless of manifest listing
            // order; ambiguous (duplicate) sequences cannot be merged
            // faithfully.
            let mut metas: Vec<&SegmentMeta> = manifest.segments_of(monitor).collect();
            metas.sort_by_key(|meta| meta.sequence);
            if metas
                .windows(2)
                .any(|pair| matches!(pair, [a, b] if a.sequence == b.sequence))
            {
                return Err(SegmentError::Corrupt(format!(
                    "monitor {monitor} has segments with duplicate rotation sequences"
                )));
            }
            // Each segment is validated against its manifest record.
            let mut chain = Vec::with_capacity(metas.len());
            for meta in metas {
                let reader = TraceReader::open(dir.join(&meta.file_name))?;
                let (stored, entries) = (reader.label(), reader.total_entries());
                if (stored, entries) != (label.as_str(), meta.entries) {
                    return Err(SegmentError::Corrupt(format!(
                        "segment {} holds {entries} entries labelled '{stored}', but the manifest records {} labelled '{label}'",
                        meta.file_name, meta.entries
                    )));
                }
                total_entries += meta.entries;
                chain.push(reader);
            }
            segments.push(chain.into());
        }
        Ok(Self {
            monitor_labels: manifest.monitor_labels,
            segments,
            total_entries,
        })
    }

    /// The monitor labels of the dataset.
    pub fn monitor_labels(&self) -> &[String] {
        &self.monitor_labels
    }

    /// Number of monitors.
    pub fn monitor_count(&self) -> usize {
        self.monitor_labels.len()
    }

    /// Total entries across all segments.
    pub fn total_entries(&self) -> u64 {
        self.total_entries
    }

    /// Number of segment files backing `monitor`.
    ///
    /// # Panics
    ///
    /// Panics if `monitor >= self.monitor_count()`.
    #[allow(clippy::indexing_slicing)] // The documented panic, as a slice index.
    pub fn segment_count(&self, monitor: usize) -> usize {
        self.segments[monitor].len()
    }

    /// All connection records of the dataset, with global monitor indices
    /// restored, in `(monitor, segment)` order.
    pub fn connections(&self) -> impl Iterator<Item = ConnectionRecord> + '_ {
        self.segments
            .iter()
            .enumerate()
            .flat_map(|(monitor, readers)| {
                readers.iter().flat_map(move |reader| {
                    reader
                        .connections()
                        .iter()
                        .map(move |record| ConnectionRecord {
                            monitor,
                            ..record.clone()
                        })
                })
            })
    }

    /// Streams one monitor's entries in exact `(timestamp, arrival)` order
    /// across all its segments.
    ///
    /// Segments are admitted to the merge lazily: a later segment's stream
    /// (one decoded chunk + reorder buffer) is only opened once the merge
    /// frontier reaches a timestamp its entries could possibly precede, and
    /// exhausted streams are retired immediately. Rotation makes segments
    /// nearly time-disjoint, so the working set stays at the few segments
    /// overlapping the frontier instead of the whole chain.
    ///
    /// # Panics
    ///
    /// Panics if `monitor >= self.monitor_count()`.
    pub fn stream_monitor_sorted(&self, monitor: usize) -> ChainedMonitorStream<'_> {
        self.stream_monitor_sorted_with(monitor, None)
    }

    /// [`ManifestReader::stream_monitor_sorted`] with a [`ChunkHook`] that
    /// sees every chunk of the chain before its rows.
    #[allow(clippy::indexing_slicing)] // The documented panic, as a slice index.
    pub(crate) fn stream_monitor_sorted_with<'a>(
        &'a self,
        monitor: usize,
        hook: Option<ChunkHook<'a>>,
    ) -> ChainedMonitorStream<'a> {
        chain_stream(&self.segments[monitor], monitor, hook)
    }

    /// Streams all entries of all monitors merged by `(timestamp, monitor)` —
    /// the order preprocessing expects, bit-identical to stable-sorting the
    /// whole dataset by `(timestamp, monitor)`.
    ///
    /// Each monitor chain is decoded by its own bounded prefetch worker and
    /// the k-way merge consumes the prefetched batches, so decode runs on all
    /// monitor chains concurrently and overlaps the consumer. The workers
    /// share the reader's segment handles; the stream itself owns them, so it
    /// does not borrow the reader, and dropping it stops and joins them.
    pub fn stream_merged(&self) -> ManifestMergedStream {
        self.merge_chains(None)
    }

    /// [`ManifestReader::stream_merged`], over every row (`None`) or over
    /// the rows `select` picks — the [`ChunkHook`] every worker's chain
    /// stream runs. A selection is pushed down into the chain decode: every
    /// chunk is still read, CRC-checked, validated in full and matched
    /// against its index row, but only the selected rows are keyed and only
    /// a chunk with a selected row is shipped — a chunk without one is
    /// pruned without building an entry. Reorder, chain merge, prefetch and
    /// the k-way merge are the unfiltered stream's code over fewer rows, so
    /// the result is exactly the unfiltered stream with the other rows
    /// removed.
    pub(crate) fn merge_chains(&self, select: Option<ChunkSelect>) -> ManifestMergedStream {
        let mut streams: Vec<PrefetchedMonitorStream> = self
            .segments
            .iter()
            .enumerate()
            .map(|(monitor, chain)| spawn_prefetch(chain.clone(), monitor, select.clone()))
            .collect();
        let heads = streams
            .iter_mut()
            .map(PrefetchedMonitorStream::next_key)
            .collect();
        ManifestMergedStream {
            streams,
            heads,
            lent: None,
            merged: obs::BatchedCounter::new(obs::counter!("store.merged_entries")),
            built: entries_built(),
        }
    }
}

/// The [`ChunkHook`] of a merged stream's workers.
pub(crate) type ChunkSelect = Arc<dyn Fn(&SharedChunk, &mut Vec<usize>) -> bool + Send + Sync>;

/// Builds the lazily-admitting chain merge over one monitor's segment
/// readers. Free-standing so that prefetch workers, which hold their chain
/// by `Arc` on their own thread, run exactly the code
/// [`ManifestReader::stream_monitor_sorted`] runs on the caller's.
fn chain_stream<'a>(
    readers: &'a [TraceReader],
    monitor: usize,
    hook: Option<ChunkHook<'a>>,
) -> ChainedMonitorStream<'a> {
    // floors[i] = a safe lower bound on every timestamp in segments i..:
    // within a segment, an entry can precede its chunk's first timestamp
    // by at most the recorded lateness bound, and a suffix-minimum makes
    // the bound hold across arbitrary (even non-monotone) chain floors.
    let mut floors: Vec<SimTime> = readers
        .iter()
        .map(|reader| {
            let lateness = reader.max_lateness_ms();
            reader
                .chunks()
                .iter()
                .map(|c| c.first_timestamp)
                .min()
                .map(|t| SimTime::from_millis(t.as_millis().saturating_sub(lateness)))
                .unwrap_or(SimTime::ZERO)
        })
        .collect();
    let mut later: Option<SimTime> = None;
    for floor in floors.iter_mut().rev() {
        *floor = later.map_or(*floor, |later| later.min(*floor));
        later = Some(*floor);
    }
    ChainedMonitorStream {
        monitor,
        readers,
        floors,
        next_pending: 0,
        active: Vec::new(),
        error: None,
        hook,
        rows: KeyedRows::default(),
    }
}

/// One segment admitted to a [`ChainedMonitorStream`] merge and not yet
/// exhausted. The invariant that `head` is always populated is what lets the
/// chain retire exhausted streams immediately.
struct ActiveSegment<'a> {
    /// Rotation index of the segment in its chain (the stable tie-break).
    index: usize,
    head: RowKey,
    stream: SortedKeys<'a>,
}

/// One monitor's entries across its segment chain, in exact
/// `(timestamp, arrival)` order.
///
/// Each segment's sorted stream is already stably time-sorted;
/// rotation preserves arrival order, so a stable merge preferring the earlier
/// segment on timestamp ties reproduces the order a single unrotated segment
/// would yield. Segments are admitted lazily by their timestamp floor and
/// retired when exhausted (see [`ManifestReader::stream_monitor_sorted`]), so
/// merge state is bounded by the segments overlapping the frontier, not the
/// chain length. Yielded entries carry the *global* monitor index.
///
/// What the merge moves is a row's 16-byte key; as an iterator the stream
/// builds each entry as it yields it, from the chunk the key points into.
/// The crate's own consumers take the keys: a prefetch worker ships them,
/// with the chunks, to the thread that builds the rows, and a run that needs
/// only the order reads the timestamp off each.
pub struct ChainedMonitorStream<'a> {
    monitor: usize,
    readers: &'a [TraceReader],
    /// Suffix-minimum timestamp floor per rotation index: no entry in
    /// segments `i..` can be earlier than `floors[i]`.
    floors: Vec<SimTime>,
    /// Next rotation index not yet admitted to the merge.
    next_pending: usize,
    active: Vec<ActiveSegment<'a>>,
    /// First error from a retired stream (live streams keep their own).
    error: Option<SegmentError>,
    /// Handed to every segment stream the chain admits.
    hook: Option<ChunkHook<'a>>,
    /// Every segment stream hands its chunks off here, so chunk numbers —
    /// and with them keys — are the chain's.
    rows: KeyedRows,
}

impl ChainedMonitorStream<'_> {
    /// Returns the first error any underlying segment stream hit, if one did.
    pub fn take_error(&mut self) -> Option<SegmentError> {
        self.error.take().or_else(|| {
            self.active
                .iter_mut()
                .find_map(|a| a.stream.inner.take_error())
        })
    }

    /// Segment streams currently open in the merge (exposed for memory
    /// diagnostics: stays at the rotation-overlap window, not chain length).
    pub fn active_segments(&self) -> usize {
        self.active.len()
    }

    /// Opens the next pending segment; an immediately-exhausted (empty or
    /// broken) stream is retired on the spot.
    #[allow(clippy::indexing_slicing)] // Called only while a segment is pending.
    fn admit_next(&mut self) {
        // Chain-merge stage span: admission (open + first decode of the next
        // rotation segment) is where the merge machinery spends its time;
        // the per-entry scan is a handful of compares.
        let _span = obs::histogram!("store.chain_admit_ns").timer();
        obs::counter!("store.segments_admitted").incr();
        let index = self.next_pending;
        self.next_pending += 1;
        let mut stream = self.readers[index].sorted_keys(self.hook);
        match stream.next_key(&mut self.rows.handoff) {
            Some(head) => self.active.push(ActiveSegment {
                index,
                head,
                stream,
            }),
            None => {
                if let Some(error) = stream.inner.take_error() {
                    self.error.get_or_insert(error);
                }
            }
        }
    }

    /// The next row of the chain as a key; its chunk is, or was, among
    /// [`ChainedMonitorStream::take_chunks`].
    fn next_key(&mut self) -> Option<RowKey> {
        loop {
            // Min by (timestamp, rotation index): the earlier segment wins
            // ties, which is exactly arrival order across a rotation
            // boundary. The active window is tiny, so a linear scan wins.
            let candidate = self
                .active
                .iter()
                .enumerate()
                .map(|(pos, a)| ((a.head.timestamp, a.index), pos))
                .min();
            let has_pending = self.next_pending < self.readers.len();
            match candidate {
                None if has_pending => {
                    self.admit_next();
                }
                None => return None,
                // A pending segment could still hold an entry preceding the
                // candidate once its floor reaches the frontier — admit it
                // before emitting. (`<=` is conservative: at equality the
                // rotation-index tie-break would order the candidate first
                // anyway, but admitting early is always correct.)
                Some(((ts, _), _))
                    if has_pending
                        && self.floors.get(self.next_pending).is_some_and(|&f| f <= ts) =>
                {
                    self.admit_next();
                }
                Some((_, pos)) => {
                    let segment = self.active.get_mut(pos)?;
                    return Some(match segment.stream.next_key(&mut self.rows.handoff) {
                        Some(next_head) => std::mem::replace(&mut segment.head, next_head),
                        None => {
                            let mut retired = self.active.swap_remove(pos);
                            if let Some(error) = retired.stream.inner.take_error() {
                                self.error.get_or_insert(error);
                            }
                            retired.head
                        }
                    });
                }
            }
        }
    }

    /// The chunks keys were made into since the last call, in the order of
    /// their numbers — for a consumer that resolves the keys itself.
    fn take_chunks(&mut self) -> Vec<KeyedChunk> {
        std::mem::take(&mut self.rows.handoff.fresh)
    }

    /// The timestamp of the next row, for a consumer that wants nothing else
    /// of it: no chunk is kept for the key, so the chain takes each chunk
    /// back as soon as it has read past it.
    pub(crate) fn next_time(&mut self) -> Option<SimTime> {
        let key = self.next_key()?;
        self.rows.handoff.fresh.clear();
        Some(key.timestamp)
    }
}

impl Iterator for ChainedMonitorStream<'_> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        let key = self.next_key()?;
        let mut entry = self.rows.build(key);
        entry.monitor = self.monitor;
        Some(entry)
    }
}

/// Rows per prefetch batch. Sized near one default chunk so a batch
/// amortizes channel synchronization without holding much more memory than
/// the chain stream's one-decoded-chunk working set.
const PREFETCH_BATCH: usize = 2048;
/// Batches a prefetch worker may queue ahead of the merge. With the batch
/// the merge is consuming and the one the worker is building (it blocks
/// once that is finished and the queue is full), up to four per monitor
/// are alive at once.
const PREFETCH_DEPTH: usize = 2;

/// What a prefetch worker ships to the merge.
enum Prefetched {
    /// The next rows, in stream order, and the chunks the chain has made
    /// keys into since the last batch: every key points into a chunk of
    /// this batch or an earlier one.
    Batch {
        keys: Vec<RowKey>,
        chunks: Vec<KeyedChunk>,
    },
    /// The chain ended cleanly; nothing follows.
    Done,
    /// The chain ended on a storage error; nothing follows.
    Failed(SegmentError),
}

/// One monitor chain decoded ahead on its own worker thread.
///
/// The worker runs the [`ChainedMonitorStream`] over the reader's own
/// validated segment handles and ships row keys, with the chunks they point
/// into, in bounded batches over a rendezvous-depth channel, closing with an
/// explicit done/failed message. A hangup *without* that closing message
/// means the worker died (panic); the consumer reports it as an error rather
/// than a clean, silently truncated stream. Dropping the stream disconnects
/// the channel; the worker notices on its next send and exits, and `Drop`
/// joins it.
struct PrefetchedMonitorStream {
    receiver: Option<mpsc::Receiver<Prefetched>>,
    keys: std::vec::IntoIter<RowKey>,
    /// The chunks received so far that a key still held points into.
    ring: ChunkRing,
    error: Option<SegmentError>,
    worker: Option<std::thread::JoinHandle<()>>,
}

fn spawn_prefetch(
    readers: Arc<[TraceReader]>,
    monitor: usize,
    select: Option<ChunkSelect>,
) -> PrefetchedMonitorStream {
    let (sender, receiver) = mpsc::sync_channel(PREFETCH_DEPTH);
    let worker = std::thread::spawn(move || {
        let hook = select.as_deref().map(|select| select as ChunkHook<'_>);
        let mut stream = chain_stream(&readers, monitor, hook);
        loop {
            let mut keys = Vec::with_capacity(PREFETCH_BATCH);
            while keys.len() < PREFETCH_BATCH {
                match stream.next_key() {
                    Some(key) => keys.push(key),
                    None => break,
                }
            }
            if keys.is_empty() {
                break;
            }
            let chunks = stream.take_chunks();
            if sender.send(Prefetched::Batch { keys, chunks }).is_err() {
                // Consumer dropped the merge mid-stream; stop decoding.
                return;
            }
        }
        let closing = match stream.take_error() {
            Some(error) => Prefetched::Failed(error),
            None => Prefetched::Done,
        };
        let _ = sender.send(closing);
    });
    PrefetchedMonitorStream {
        receiver: Some(receiver),
        keys: Vec::new().into_iter(),
        ring: ChunkRing::default(),
        error: None,
        worker: Some(worker),
    }
}

impl PrefetchedMonitorStream {
    #[inline]
    fn next_key(&mut self) -> Option<RowKey> {
        match self.keys.next() {
            Some(key) => Some(key),
            None => self.next_batch_key(),
        }
    }

    /// Waits for the next batch and starts on it.
    #[cold]
    fn next_batch_key(&mut self) -> Option<RowKey> {
        loop {
            if self.error.is_some() {
                return None;
            }
            let receiver = self.receiver.as_ref()?;
            match receiver.recv() {
                Ok(Prefetched::Batch { keys, mut chunks }) => {
                    self.ring.admit(&mut chunks);
                    self.keys = keys.into_iter();
                    if let Some(key) = self.keys.next() {
                        return Some(key);
                    }
                }
                Ok(Prefetched::Done) => {
                    self.receiver = None;
                    return None;
                }
                Ok(Prefetched::Failed(error)) => {
                    self.receiver = None;
                    self.error = Some(error);
                    return None;
                }
                // Hangup without a closing message: the worker died mid-
                // stream. Surface it as an error, not a clean end — a
                // truncated trace must never pass for a complete one.
                Err(mpsc::RecvError) => {
                    self.receiver = None;
                    self.error = Some(SegmentError::Corrupt(
                        "prefetch worker terminated unexpectedly".into(),
                    ));
                    return None;
                }
            }
        }
    }
}

impl Drop for PrefetchedMonitorStream {
    fn drop(&mut self) {
        // Disconnect first so a blocked worker wakes up, then reap it.
        self.receiver = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// K-way merge of all monitors' chained streams by `(timestamp, monitor)`,
/// each chain decoded ahead by its own worker (see
/// [`ManifestReader::stream_merged`]).
///
/// The monitor-index tie-break is what makes the merge *stable*: the chain
/// streams are time-sorted and arrival-stable, so the merged output equals a
/// stable sort of the monitor-major concatenation — the bit-identity
/// guarantee the preprocessing equivalence tests pin down. With one
/// candidate per monitor, a linear scan beats a heap for the monitor counts
/// deployments use (the paper ran two).
///
/// The merge orders 16-byte row keys. As an iterator it builds each entry as
/// it yields it; [`ManifestMergedStream::next_row`] hands out the row where
/// it lies instead, for a consumer that reads the chunk's columns first.
pub struct ManifestMergedStream {
    streams: Vec<PrefetchedMonitorStream>,
    heads: Vec<Option<RowKey>>,
    /// The row [`ManifestMergedStream::next_row`] lent out last: its key is
    /// let go — and with a chunk's last key the chunk — when the next row
    /// is asked for.
    lent: Option<(usize, RowKey)>,
    /// Obs progress (`store.merged_entries`), batched: one local add per
    /// yielded row, flushed every few thousand and on drop.
    merged: obs::BatchedCounter,
    built: obs::BatchedCounter,
}

/// One row of a [`ManifestMergedStream`], in place: the validated chunk it
/// lies in and its index there. Nothing of it has been copied yet;
/// [`MergedRow::entry`] builds the [`TraceEntry`].
pub struct MergedRow<'a> {
    /// The chunk holding the row: CRC-checked, every column validated.
    pub chunk: &'a ChunkView<'static>,
    /// The row's index in `chunk`.
    pub row: usize,
    /// The dataset-wide index of the monitor that recorded the row (the
    /// chunk does not know it).
    pub monitor: usize,
    /// The row's timestamp.
    pub timestamp: SimTime,
    /// Words the consumer may keep with the chunk: empty when the chunk's
    /// first row is handed out, then whatever the consumer left there, for
    /// as long as the stream holds the chunk — the place for what is worked
    /// out once per dictionary entry instead of once per row.
    pub memo: &'a mut Vec<u64>,
    built: &'a mut obs::BatchedCounter,
}

impl MergedRow<'_> {
    /// Builds the row's entry, stamped with the dataset-wide monitor index.
    #[inline]
    pub fn entry(self) -> TraceEntry {
        self.built.incr();
        TraceEntry {
            monitor: self.monitor,
            ..self.chunk.entry(self.row)
        }
    }
}

impl ManifestMergedStream {
    /// Returns the first error any monitor chain hit, if one did.
    pub fn take_error(&mut self) -> Option<SegmentError> {
        self.streams.iter_mut().find_map(|s| s.error.take())
    }

    /// The next row of the merge, where it lies — what [`Iterator::next`]
    /// builds its entry from. Both advance the same stream.
    #[inline]
    pub fn next_row(&mut self) -> Option<MergedRow<'_>> {
        if let Some((monitor, key)) = self.lent.take() {
            if let Some(stream) = self.streams.get_mut(monitor) {
                stream.ring.let_go(key);
            }
        }
        let best = self
            .heads
            .iter()
            .enumerate()
            .filter_map(|(i, head)| head.map(|key| (key.timestamp, i)))
            .min()?
            .1;
        let (head, stream) = (self.heads.get_mut(best)?, self.streams.get_mut(best)?);
        let key = head.take()?;
        *head = stream.next_key();
        self.lent = Some((best, key));
        self.merged.incr();
        let slot = stream.ring.slot(key);
        Some(MergedRow {
            chunk: &slot.chunk,
            row: key.row(),
            monitor: best,
            timestamp: key.timestamp,
            memo: &mut slot.memo,
            built: &mut self.built,
        })
    }
}

impl Iterator for ManifestMergedStream {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        self.next_row().map(MergedRow::entry)
    }
}

#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{DatasetConfig, DatasetWriter};
    use crate::record::EntryFlags;
    use crate::segment::{decode_footer, SegmentConfig, TRAILER_LEN};
    use crate::test_segment::reader_of;
    use crate::writer::TraceWriter;
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_simnet::time::SimTime;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn entry(ms: u64, peer: u64, monitor: usize) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(2, peer),
            address: Multiaddr::new(1, 1, Transport::Tcp, Country::Nl),
            request_type: RequestType::WantHave,
            cid: Cid::new_v1(Multicodec::Raw, &[peer as u8]),
            monitor,
            flags: EntryFlags::default(),
        }
    }

    fn build_segment(entries: &[TraceEntry], capacity: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        let mut writer = TraceWriter::new(
            &mut bytes,
            "m0".into(),
            SegmentConfig {
                chunk_capacity: capacity,
            },
        )
        .unwrap();
        for entry in entries {
            writer.append(entry).unwrap();
        }
        writer.finish().unwrap();
        bytes
    }

    /// Writes `entries` as a dataset that rotates every three chunks and
    /// returns its merged stream.
    fn merged_via_manifest(tag: &str, entries: &[TraceEntry], capacity: usize) -> Vec<TraceEntry> {
        let dir = std::env::temp_dir().join(format!("tracestore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DatasetConfig {
            segment: SegmentConfig {
                chunk_capacity: capacity,
            },
            rotate_after_entries: 3 * capacity as u64,
            ..DatasetConfig::default()
        };
        let mut writer =
            DatasetWriter::create(&dir, vec!["m0".into(), "m1".into()], config).unwrap();
        for entry in entries {
            writer.append(entry).unwrap();
        }
        writer.finish().unwrap();
        let reader = ManifestReader::open(&dir).unwrap();
        let mut stream = reader.stream_merged();
        let merged: Vec<TraceEntry> = stream.by_ref().collect();
        assert!(stream.take_error().is_none());
        std::fs::remove_dir_all(&dir).ok();
        merged
    }

    #[test]
    fn merged_stream_orders_by_timestamp_then_monitor() {
        // Interleaved timestamps across two monitors, including a tie at
        // t=300 that must resolve to the lower monitor index.
        let entries = vec![
            entry(100, 1, 0),
            entry(300, 2, 0),
            entry(500, 3, 0),
            entry(200, 4, 1),
            entry(300, 5, 1),
            entry(400, 6, 1),
        ];
        let merged: Vec<(u64, usize)> = merged_via_manifest("merge-order", &entries, 2)
            .iter()
            .map(|e| (e.timestamp.as_millis(), e.monitor))
            .collect();
        assert_eq!(
            merged,
            vec![(100, 0), (200, 1), (300, 0), (300, 1), (400, 1), (500, 0)]
        );
    }

    #[test]
    fn streaming_crosses_chunk_boundaries() {
        let entries: Vec<TraceEntry> = (0..97).map(|i| entry(i * 10, i, 0)).collect();
        let bytes = build_segment(&entries, 8);
        let reader = reader_of(&bytes).unwrap();
        assert!(reader.chunks().len() > 10);
        let streamed: Vec<TraceEntry> = reader.stream().collect();
        assert_eq!(streamed, entries);
    }

    #[test]
    fn corrupt_body_is_detected_on_stream() {
        let entries: Vec<TraceEntry> = (0..20).map(|i| entry(i * 10, i, 0)).collect();
        let mut bytes = build_segment(&entries, 8);
        // Flip a byte inside the first chunk's payload (after the 5-byte
        // header), leaving the footer intact.
        bytes[10] ^= 0x55;
        let reader = reader_of(&bytes).unwrap();
        let mut stream = reader.stream();
        let streamed: Vec<TraceEntry> = (&mut stream).collect();
        assert!(streamed.len() < entries.len());
        assert!(matches!(
            stream.take_error(),
            Some(SegmentError::ChecksumMismatch { .. }) | Some(SegmentError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_or_garbage_segments_are_rejected() {
        assert!(reader_of(b"").is_err());
        assert!(reader_of(b"IPMT\x01").is_err());
        assert!(reader_of(&[0u8; 64]).is_err());
        let entries = vec![entry(1, 1, 0)];
        let bytes = build_segment(&entries, 8);
        assert!(reader_of(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn sorted_stream_restores_order_of_jittered_arrivals() {
        // Arrival order with bounded local disorder (send-side timestamps):
        // the sorted stream must equal a stable sort by timestamp.
        let arrival = vec![
            entry(100, 1, 0),
            entry(250, 2, 0),
            entry(180, 3, 0), // 70 ms late
            entry(250, 4, 0), // tie with seq 1 entry — must stay after it
            entry(400, 5, 0),
            entry(330, 6, 0), // 70 ms late again
            entry(500, 7, 0),
        ];
        let bytes = build_segment(&arrival, 3);
        let reader = reader_of(&bytes).unwrap();
        assert_eq!(reader.max_lateness_ms(), 70);

        // Raw stream preserves arrival order (lossless round-trip)...
        let raw: Vec<TraceEntry> = reader.stream().collect();
        assert_eq!(raw, arrival);

        // ...sorted stream delivers the stable time order.
        let mut expected = arrival.clone();
        expected.sort_by_key(|e| e.timestamp);
        let sorted: Vec<TraceEntry> = SortedEntries::new(&reader, None).collect();
        assert_eq!(sorted, expected);
    }

    /// One segment as sorted entries: [`SortedKeys`] with each
    /// row built where it is read, the way [`ChainedMonitorStream`] builds
    /// the rows of a chain.
    struct SortedEntries<'a> {
        keys: SortedKeys<'a>,
        rows: KeyedRows,
    }

    impl<'a> SortedEntries<'a> {
        fn new(reader: &'a TraceReader, hook: Option<ChunkHook<'a>>) -> Self {
            Self {
                keys: reader.sorted_keys(hook),
                rows: KeyedRows::default(),
            }
        }
    }

    impl Iterator for SortedEntries<'_> {
        type Item = TraceEntry;

        fn next(&mut self) -> Option<TraceEntry> {
            let key = self.keys.next_key(&mut self.rows.handoff)?;
            Some(self.rows.build(key))
        }
    }

    /// Every chunk a stream has read, as the hook that logs them sees them.
    type ChunkLog = Arc<std::sync::Mutex<Vec<std::sync::Weak<ChunkView<'static>>>>>;

    /// The chunks of `log` that somebody still holds.
    fn alive(log: &ChunkLog) -> usize {
        let log = log.lock().unwrap();
        log.iter().filter(|chunk| chunk.strong_count() > 0).count()
    }

    /// Streams `arrival` back through the sorted stream, checks it against a
    /// stable sort by timestamp, and returns the most entries the reorder
    /// buffer held after any emission. Along the way the chunks alive are
    /// exactly those a held row keys into, the one being read and those the
    /// stream takes back with its next chunk, and none once it is drained.
    fn check_sorted_stream(arrival: &[TraceEntry], capacity: usize) -> usize {
        let bytes = build_segment(arrival, capacity);
        let reader = reader_of(&bytes).unwrap();
        let mut expected = arrival.to_vec();
        expected.sort_by_key(|e| e.timestamp);

        let log = ChunkLog::default();
        let hook = |chunk: &SharedChunk, _rows: &mut Vec<usize>| {
            log.lock().unwrap().push(Arc::downgrade(chunk));
            false
        };
        let mut stream = SortedEntries::new(&reader, Some(&hook));
        let mut peak = 0;
        let mut sorted = Vec::with_capacity(arrival.len());
        let sample = (arrival.len() / 64).max(1);
        while let Some(entry) = stream.next() {
            sorted.push(entry);
            peak = peak.max(stream.keys.held.len());
            if sorted.len() % sample == 0 {
                let mut keyed: std::collections::BTreeSet<u32> =
                    stream.keys.held.iter().map(|key| key.0.chunk()).collect();
                if stream.keys.inner.current.is_some() {
                    keyed.insert(stream.keys.inner.current_number);
                }
                // Plus what the stream takes back when it reads on.
                let lent = &stream.rows.handoff.lent;
                let unkeyed = lent.iter().filter(|chunk| Arc::strong_count(chunk) == 1);
                assert_eq!(
                    alive(&log),
                    keyed.len() + unkeyed.count(),
                    "after {} rows",
                    sorted.len()
                );
            }
        }
        assert!(stream.keys.inner.take_error().is_none());
        assert!(stream.keys.held.is_empty());
        assert_eq!(log.lock().unwrap().len(), reader.chunks().len());
        assert_eq!(alive(&log), 0, "a drained stream holds no chunk");
        assert!(sorted == expected, "sorted stream is not the stable sort");
        peak
    }

    #[test]
    fn sorted_stream_is_a_stable_sort_of_adversarial_arrivals() {
        // Reverse-sorted: every arrival is later than the whole buffer.
        let reversed: Vec<TraceEntry> = (0..2_000).map(|i| entry(5_000 - i, i, 0)).collect();
        assert_eq!(check_sorted_stream(&reversed, 64), reversed.len() - 1);

        // All-equal timestamps: the high-water mark never passes anything,
        // so all is held and the arrival number alone decides the order.
        let equal: Vec<TraceEntry> = (0..2_000).map(|i| entry(777, i, 0)).collect();
        assert_eq!(check_sorted_stream(&equal, 64), equal.len() - 1);

        // Jitter of up to four chunks' worth of entries, so late entries
        // land in earlier positions than whole chunks decoded before them.
        let mut rng = StdRng::seed_from_u64(15);
        let jittered: Vec<TraceEntry> = (0..5_000u64)
            .map(|i| entry(10_000 + i * 10 - rng.gen_range(0..640u64), i % 97, 0))
            .collect();
        // Held entries are bounded by the disorder window, not the trace.
        let peak = check_sorted_stream(&jittered, 16);
        assert!((2..200).contains(&peak), "peak {peak}");
    }

    #[test]
    fn sorted_stream_survives_a_whole_trace_backward_jump() {
        // The first arrival carries the latest timestamp, so the lateness
        // bound is the full span and every entry is held until the stream
        // drains; the sawtooth behind it makes each arrival sort into the
        // middle of what is held. A buffer that is quadratic in the held
        // count does not finish this inside a test run.
        let n = 200_000u64;
        let mut arrival = vec![entry(10_000_000, 0, 0)];
        arrival.extend((1..n).map(|i| entry((i % 1_000) * 5_000 + i / 1_000, i % 251, 0)));
        assert_eq!(check_sorted_stream(&arrival, 4_096), arrival.len() - 1);
    }

    /// The heavy variant: ten times the rows in chunks of 64, so that nearly
    /// every held row pins a chunk of its own until the drain reaches it.
    #[test]
    #[ignore = "2 M rows, ~31 k chunks alive at once; CI runs it in release"]
    fn sorted_stream_survives_a_whole_trace_backward_jump_in_small_chunks() {
        let n = 2_000_000u64;
        let mut arrival = vec![entry(100_000_000, 0, 0)];
        arrival.extend((1..n).map(|i| entry((i % 1_000) * 50_000 + i / 1_000, i % 251, 0)));
        assert_eq!(check_sorted_stream(&arrival, 64), arrival.len() - 1);
    }

    /// The unit-level twin of `tests/manifest_streaming.rs`'s
    /// `abandoned_merged_stream_leaves_the_reader_reusable`: a merged stream
    /// dropped part-way — workers blocked on a full channel, batches queued,
    /// rows held in reorder buffers — leaves no chunk behind once its
    /// workers have joined.
    #[test]
    fn abandoned_merged_stream_frees_every_chunk() {
        let dir = std::env::temp_dir().join(format!("tracestore-abandon-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DatasetConfig {
            segment: SegmentConfig {
                chunk_capacity: 256,
            },
            rotate_after_entries: 2_000,
            ..DatasetConfig::default()
        };
        let labels = vec!["m0".into(), "m1".into(), "m2".into()];
        let mut writer = DatasetWriter::create(&dir, labels, config).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        for monitor in 0..3 {
            for i in 0..9_000u64 {
                let ms = 1_000 + i * 40 - rng.gen_range(0..800u64);
                writer.append(&entry(ms, i % 53, monitor)).unwrap();
            }
        }
        writer.finish().unwrap();
        let reader = ManifestReader::open(&dir).unwrap();

        for taken in [0, 1, 5_000, 27_000] {
            let log = ChunkLog::default();
            let logged = log.clone();
            let mut stream = reader.merge_chains(Some(Arc::new(
                move |chunk: &SharedChunk, _rows: &mut Vec<usize>| {
                    logged.lock().unwrap().push(Arc::downgrade(chunk));
                    false
                },
            )));
            assert_eq!(stream.by_ref().take(taken).count(), taken);
            if taken < 27_000 {
                assert!(alive(&log) > 0, "rows are pending, so chunks are held");
            }
            drop(stream);
            assert!(!log.lock().unwrap().is_empty());
            assert_eq!(alive(&log), 0, "after {taken} rows");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merged_stream_equals_global_stable_sort_with_jitter() {
        let mut arrival = Vec::new();
        // Deterministic pseudo-jitter across two monitors.
        for i in 0..500u64 {
            let jitter = (i * 37) % 90;
            arrival.push(entry(
                1_000 + i * 50 - jitter.min(40),
                i % 13,
                (i % 2) as usize,
            ));
        }
        // Reference: the in-memory unification order (monitor-major concat,
        // stable sort by (timestamp, monitor)).
        let mut reference: Vec<TraceEntry> = Vec::new();
        for monitor in 0..2 {
            reference.extend(arrival.iter().filter(|e| e.monitor == monitor).cloned());
        }
        reference.sort_by_key(|e| (e.timestamp, e.monitor));

        assert_eq!(merged_via_manifest("merge-jitter", &arrival, 16), reference);
    }

    #[test]
    fn overflowing_footer_length_is_corrupt_not_panic() {
        let mut bytes = build_segment(&[entry(1, 1, 0)], 8);
        // Trailer layout: crc (4) | payload length (8) | magic (4).
        let len = bytes.len();
        bytes[len - 12..len - 4].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(reader_of(&bytes), Err(SegmentError::Corrupt(_))));
    }

    /// Rewrites the footer of a written segment through `doctor`, with a
    /// valid footer CRC — damage the checksum cannot catch.
    fn with_doctored_footer(bytes: &[u8], doctor: impl FnOnce(&mut Footer)) -> Vec<u8> {
        let payload = footer_payload(bytes);
        let mut footer = decode_footer(&bytes[payload.clone()]).unwrap();
        doctor(&mut footer);
        let mut doctored = bytes[..payload.start].to_vec();
        crate::segment::encode_footer(&footer, &mut doctored);
        doctored
    }

    /// Where the footer payload of a written segment lies.
    fn footer_payload(bytes: &[u8]) -> std::ops::Range<usize> {
        let len = bytes.len();
        let payload_len = u64::from_le_bytes(bytes[len - 12..len - 4].try_into().unwrap()) as usize;
        let end = len - TRAILER_LEN;
        end - payload_len..end
    }

    /// [`with_doctored_footer`] for what a [`Footer`] cannot say: the stored
    /// monitor index of the first index row, set to 1.
    fn with_foreign_index_row(bytes: &[u8]) -> Vec<u8> {
        use crate::segment::{encode_connections, encode_labels};
        use ipfs_mon_types::varint;
        let footer_start = footer_payload(bytes).start;
        let mut payload = bytes[footer_payload(bytes)].to_vec();
        let footer = decode_footer(&payload).unwrap();
        // What precedes the index in the first row: labels, lateness,
        // connections, the row count, the row's offset and length.
        let mut before = Vec::new();
        encode_labels(std::slice::from_ref(&footer.label), &mut before);
        varint::encode(footer.max_lateness_ms, &mut before);
        encode_connections(&footer.connections, &mut before);
        varint::encode(footer.chunks.len() as u64, &mut before);
        varint::encode(footer.chunks[0].offset, &mut before);
        varint::encode(footer.chunks[0].len, &mut before);
        assert_eq!(payload[..before.len()], before[..]);
        assert_eq!(payload[before.len()], 0);
        payload[before.len()] = 1;
        let mut doctored = bytes[..footer_start].to_vec();
        doctored.extend_from_slice(&payload);
        doctored.extend_from_slice(&crate::crc::crc32(&payload).to_le_bytes());
        doctored.extend_from_slice(&bytes[bytes.len() - 12..]);
        doctored
    }

    /// The first error met opening `bytes` and draining them.
    fn first_error(bytes: &[u8]) -> Option<SegmentError> {
        let reader = match reader_of(bytes) {
            Ok(reader) => reader,
            Err(error) => return Some(error),
        };
        let mut stream = reader.stream();
        (&mut stream).for_each(drop);
        stream.take_error()
    }

    #[test]
    fn inconsistent_chunk_index_is_corrupt_not_a_shortened_stream() {
        let entries: Vec<TraceEntry> = (0..40).map(|i| entry(i * 10, i, 0)).collect();
        let bytes = build_segment(&entries, 8);
        assert!(first_error(&bytes).is_none());

        type Doctor = fn(&mut Footer);
        let doctored = |doctor: Doctor| with_doctored_footer(&bytes, doctor);
        let cases = [
            // Refused when the footer is decoded: a row naming another
            // monitor than the segment's own, and rows that do not add up to
            // the total.
            ("index-monitor", true, with_foreign_index_row(&bytes)),
            ("index-total", true, doctored(|f| f.total_entries += 1)),
            ("index-row", true, doctored(|f| f.chunks[1].entries -= 1)),
            // Self-consistent rows that disagree with the chunks they point
            // at open fine and are refused when the chunk is decoded: an
            // entry moved between two rows.
            (
                "row-entries",
                false,
                doctored(|f| {
                    f.chunks[0].entries -= 1;
                    f.chunks[2].entries += 1;
                }),
            ),
        ];
        for (tag, refused_at_open, doctored) in cases {
            assert_eq!(reader_of(&doctored).is_err(), refused_at_open, "{tag}");
            let error = first_error(&doctored);
            assert!(
                matches!(error, Some(SegmentError::Corrupt(_))),
                "{tag}: {error:?}"
            );
        }
    }
}
