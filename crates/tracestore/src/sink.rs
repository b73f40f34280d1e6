//! The parallel analysis engine: [`AnalysisSink`] and the drivers that run
//! sinks over trace sources — serially over the merged stream, or with one
//! worker per monitor chain via [`ManifestReader::run_parallel`].
//!
//! # Why sinks
//!
//! Most of the paper's analyses (request-type series, raw popularity,
//! activity counts, descriptive stats) aggregate per entry and never compare
//! entries *across* monitors — the global `(timestamp, monitor)` merge the
//! read path produces is pure overhead for them. A sink makes that
//! independence explicit:
//!
//! * [`AnalysisSink::consume`] folds one entry into the sink's state;
//! * [`AnalysisSink::combine`] merges two partial states. It must be
//!   **associative and commutative up to the final output**: splitting each
//!   monitor's stream into time-contiguous runs, folding the runs into
//!   clones (each run in stream order), and combining the clones in any
//!   order must finish to the same output as one sink consuming everything.
//!   Drivers always keep one monitor's stream contiguous — a sink may
//!   therefore carry per-monitor sequential state (last-seen timestamps),
//!   but must not assume anything about cross-monitor interleaving. (Sinks
//!   over integer aggregates combine exactly; sinks that need
//!   floating-point must defer the float math to `finish` so partials stay
//!   exact.)
//! * [`AnalysisSink::finish`] turns the state into the analysis result.
//!
//! With that contract, [`ManifestReader::run_parallel`] feeds every monitor
//! chain's decode stream to a sink clone on its own worker thread and never
//! materializes the merge at all — each worker runs the *same*
//! per-monitor chain stream the merged stream's prefetch workers run (same
//! code, same streams, only the interleaving differs, and the sink contract
//! makes the interleaving irrelevant).
//!
//! The serial driver [`run_sink`] runs the same sink over the merged stream
//! of *any* [`TraceSource`]; the single-stream analysis entry points in
//! `ipfs-mon-core` are thin wrappers over it, and the equivalence
//! `run_parallel(sink) == run_sink(source, sink)` is property-tested in
//! `tests/parallel_analysis.rs` and `tests/column_paths.rs`.
//!
//! # Entries, timestamps or chunks
//!
//! What a sink may assume depends on how it is fed:
//!
//! * **per entry** ([`AnalysisSink::consume`], every sink): the entries of
//!   one monitor arrive in that monitor's exact `(timestamp, arrival)`
//!   order, each complete and owned;
//! * **per chunk** ([`AnalysisSink::consume_chunk`]): one monitor's rows as
//!   stored — arrival order, not time order, cut wherever the writer's
//!   buffer filled — as validated columns: dictionaries of the distinct
//!   peers and CIDs, and per row an index into each. A sink whose result is
//!   a multiset aggregate (counts per key, sets of keys) folds a chunk by
//!   counting per dictionary *index* and touching its own maps once per
//!   distinct key, instead of hashing the same 32- or 36-byte key for every
//!   row;
//! * **per timestamp** ([`AnalysisSink::consume_time`]): one monitor's
//!   timestamps in the order its entries would arrive in, and nothing else;
//! * **per chunk rows** ([`AnalysisSink::consume_rows`]): some rows of one
//!   validated chunk, by index, in the order `consume` would see them as
//!   entries. The windowed sink feeds a window's accumulator this way
//!   ([`WindowedSink::consume_chunk_rows`](crate::window::WindowedSink::consume_chunk_rows)):
//!   the rows are the window's share of a chunk, so the accumulator may
//!   count them per dictionary index like `consume_chunk` does, and must
//!   reach the state `consume` reaches over them. The default materialises
//!   each row and calls `consume`.
//!
//! [`ManifestReader::run_parallel`] is the driver that reads chunks: it
//! decodes each chunk once, offers it to the sink, and then delivers what
//! the sink's [`AnalysisSink::ROWS`] says it still needs of the chunk's
//! rows — [`Rows::None`] for a sink that is done with a chunk once it has
//! folded it; [`Rows::Times`] for a sink that takes everything but the
//! order from the chunk and needs only the sorted timestamps on top (gaps
//! between successive entries); [`Rows::Entries`], the default, for a sink
//! that is fed as before (event-time windows, any sink that implements
//! `consume` alone). A composition needs the most any member needs, and
//! [`AnalysisSink::consume_row`] routes each entry to the members by their
//! kind. Whatever is delivered, the chain stream behind it moves 16-byte row
//! keys through one reorder buffer and one chain merge: an entry is built
//! from its key for a `Rows::Entries` run, the timestamp is read off the key
//! for a `Rows::Times` run — same release rule, same tie-breaks, so the
//! sequence of timestamps is the entry stream's, exactly — and a
//! `Rows::None` run makes no key at all. Every check is the entry path's:
//! the chunk was read, CRC-verified, column-validated and matched against
//! its index row before a key into it existed.
//!
//! Both drivers fail on damage with the error of the lowest failing
//! monitor, the one the merged stream reports; neither reads past it.
//! [`crate::recover_dataset`] is the repair.
//!
//! # Example
//!
//! ```
//! use ipfs_mon_tracestore::{run_sink, AnalysisSink, MonitoringDataset, TraceEntry};
//!
//! /// Counts entries per monitor.
//! #[derive(Clone, Default)]
//! struct CountSink {
//!     per_monitor: Vec<u64>,
//! }
//!
//! impl AnalysisSink for CountSink {
//!     type Output = Vec<u64>;
//!
//!     fn consume(&mut self, entry: TraceEntry) {
//!         if self.per_monitor.len() <= entry.monitor {
//!             self.per_monitor.resize(entry.monitor + 1, 0);
//!         }
//!         self.per_monitor[entry.monitor] += 1;
//!     }
//!
//!     fn combine(&mut self, other: Self) {
//!         if self.per_monitor.len() < other.per_monitor.len() {
//!             self.per_monitor.resize(other.per_monitor.len(), 0);
//!         }
//!         for (mine, theirs) in self.per_monitor.iter_mut().zip(other.per_monitor) {
//!             *mine += theirs;
//!         }
//!     }
//!
//!     fn finish(self) -> Vec<u64> {
//!         self.per_monitor
//!     }
//! }
//!
//! let dataset = MonitoringDataset::new(vec!["us".into(), "de".into()]);
//! let counts = run_sink(&dataset, CountSink::default()).unwrap();
//! assert_eq!(counts, Vec::<u64>::new()); // empty dataset, no buckets
//! ```

use crate::reader::{ManifestReader, SharedChunk};
use crate::record::TraceEntry;
use crate::segment::{ChunkView, SegmentError};
use crate::source::TraceSource;
use ipfs_mon_obs as obs;
use ipfs_mon_simnet::time::SimTime;
use std::cell::RefCell;

/// What a sink still needs of a chunk's rows once
/// [`AnalysisSink::consume_chunk`] has seen the chunk — the least first, so a
/// composition needs the maximum of its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rows {
    /// Nothing: `consume_chunk` folds the whole chunk.
    None,
    /// Each row's timestamp, in the monitor's time order
    /// ([`AnalysisSink::consume_time`]); `consume_chunk` folds the rest.
    Times,
    /// Each row as an entry, in the monitor's time order
    /// ([`AnalysisSink::consume`]).
    Entries,
}

impl Rows {
    /// The greater need of two.
    pub const fn max(self, other: Self) -> Self {
        if (self as u8) < (other as u8) {
            other
        } else {
            self
        }
    }
}

/// A streaming analysis whose result does not depend on the interleaving of
/// entries *across* monitors.
///
/// Implementors fold entries with [`AnalysisSink::consume`]; partial states
/// merge with [`AnalysisSink::combine`] (associative and commutative up to
/// the final output, over per-monitor time-contiguous partitions — see the
/// [module docs](self) for the exact contract); [`AnalysisSink::finish`]
/// produces the result. Entries within one monitor are always delivered in
/// that monitor's exact `(timestamp, arrival)` stream order, so per-monitor
/// sequential state (last-seen timestamps, inter-arrival tracking) is fine
/// as long as it is *keyed by monitor*.
///
/// The trait itself has no `Send` bound — only
/// [`ManifestReader::run_parallel`] requires `Send` (plus `Clone`) on the
/// concrete sink; serial drivers accept any sink.
pub trait AnalysisSink {
    /// What the analysis produces.
    type Output;

    /// What a driver that reads chunks must still deliver of a chunk's rows
    /// after offering the chunk to [`AnalysisSink::consume_chunk`]. Whatever
    /// is declared, `consume_chunk` plus the declared deliveries must reach
    /// the state [`AnalysisSink::consume`] reaches over the same rows. The
    /// default suits a sink that implements `consume` alone.
    const ROWS: Rows = Rows::Entries;

    /// Folds one entry into the sink's state.
    fn consume(&mut self, entry: TraceEntry);

    /// The chunk-level entry point: folds every row of one validated chunk
    /// straight from its columns, to the same state
    /// [`AnalysisSink::consume`] would reach over the chunk's rows.
    ///
    /// Only a sink whose result is a multiset aggregate can do this: a chunk
    /// is one monitor's rows in *arrival* order — not time-sorted, and not
    /// aligned with the chunks before and after it — so per chunk a sink may
    /// assume the monitor and nothing about order. `monitor` is the
    /// dataset-wide index every row of the chunk would carry in
    /// [`TraceEntry::monitor`] (the chunk itself does not know it). The
    /// default does nothing: such a sink is fed rows.
    fn consume_chunk(&mut self, _monitor: usize, _chunk: &ChunkView<'_>) {}

    /// The timestamp of one row of `monitor`, for a [`Rows::Times`] sink: a
    /// monitor's timestamps arrive in the order [`AnalysisSink::consume`]
    /// would see its entries in, and every row delivered here was in a chunk
    /// offered to [`AnalysisSink::consume_chunk`] (not necessarily the
    /// latest one: rows are held back until they are in order).
    fn consume_time(&mut self, _monitor: usize, _timestamp: SimTime) {}

    /// Folds `rows` of one validated chunk of `monitor` — row indexes, in the
    /// order [`AnalysisSink::consume`] would see them as entries — to the
    /// state `consume` reaches over those entries. The default materialises
    /// each row (with `monitor` set) and calls `consume`; a multiset
    /// aggregate overrides it to count per dictionary index instead.
    fn consume_rows(&mut self, monitor: usize, chunk: &ChunkView<'_>, rows: &[usize]) {
        for &row in rows {
            let mut entry = chunk.entry(row);
            entry.monitor = monitor;
            self.consume(entry);
        }
    }

    /// One row of a chunk that was offered to
    /// [`AnalysisSink::consume_chunk`], as an entry: the sink takes of it
    /// what its [`AnalysisSink::ROWS`] says it still needs. Provided — only
    /// a composition overrides it, to route the row to each of its members.
    fn consume_row(&mut self, entry: TraceEntry) {
        match Self::ROWS {
            Rows::None => {}
            Rows::Times => self.consume_time(entry.monitor, entry.timestamp),
            Rows::Entries => self.consume(entry),
        }
    }

    /// Merges another sink's partial state into this one.
    fn combine(&mut self, other: Self);

    /// Produces the analysis result.
    fn finish(self) -> Self::Output;
}

/// Two sinks runnable as one: both see every entry, and the output is the
/// pair of outputs. Nests, so any number of analyses share a single pass.
impl<A: AnalysisSink, B: AnalysisSink> AnalysisSink for (A, B) {
    type Output = (A::Output, B::Output);

    const ROWS: Rows = A::ROWS.max(B::ROWS);

    fn consume(&mut self, entry: TraceEntry) {
        self.0.consume(entry.clone());
        self.1.consume(entry);
    }

    fn consume_chunk(&mut self, monitor: usize, chunk: &ChunkView<'_>) {
        self.0.consume_chunk(monitor, chunk);
        self.1.consume_chunk(monitor, chunk);
    }

    fn consume_time(&mut self, monitor: usize, timestamp: SimTime) {
        self.0.consume_time(monitor, timestamp);
        self.1.consume_time(monitor, timestamp);
    }

    fn consume_rows(&mut self, monitor: usize, chunk: &ChunkView<'_>, rows: &[usize]) {
        self.0.consume_rows(monitor, chunk, rows);
        self.1.consume_rows(monitor, chunk, rows);
    }

    fn consume_row(&mut self, entry: TraceEntry) {
        self.0.consume_row(entry.clone());
        self.1.consume_row(entry);
    }

    fn combine(&mut self, other: Self) {
        self.0.combine(other.0);
        self.1.combine(other.1);
    }

    fn finish(self) -> Self::Output {
        (self.0.finish(), self.1.finish())
    }
}

/// Runs a sink serially over the merged entry stream of any trace source —
/// the reference semantics every parallel execution must reproduce.
pub fn run_sink<S, K>(source: &S, mut sink: K) -> Result<K::Output, SegmentError>
where
    S: TraceSource + ?Sized,
    K: AnalysisSink,
{
    let _span = obs::histogram!("analysis.serial_pass_ns").timer();
    let mut consumed = obs::BatchedCounter::new(obs::counter!("analysis.entries"));
    let mut entries = source.merged_entries();
    for entry in &mut entries {
        sink.consume(entry);
        consumed.incr();
    }
    if let Some(error) = entries.take_error() {
        return Err(error);
    }
    Ok(sink.finish())
}

impl ManifestReader {
    /// Runs a sink with one worker thread per monitor chain, skipping the
    /// k-way merge entirely.
    ///
    /// Each worker streams its monitor's segment chain — the identical
    /// [`ChainedMonitorStream`](crate::reader::ChainedMonitorStream) the
    /// merged stream consumes, over the same segment handles — into a
    /// clone of `sink`; the partial sinks are then combined in monitor
    /// order and finished on the calling thread. For any sink honouring the
    /// [`AnalysisSink`] contract the output equals
    /// [`run_sink`]`(self, sink)`, while decode *and* analysis run on all
    /// monitor chains concurrently.
    ///
    /// If any chain ends on a storage error, the error of the
    /// lowest-numbered failing monitor is returned (deterministic regardless
    /// of worker timing), the same error the merged stream reports.
    ///
    /// Progress goes to the obs registry: the `analysis.entries` counter
    /// totals all workers, and every monitor adds the entries it consumed to
    /// `analysis.entries.<label>` — error or not, so a partially corrupt
    /// dataset shows how far each chain got — and heartbeat snapshots show
    /// per-monitor progress while the run is still in flight.
    pub fn run_parallel<K>(&self, sink: K) -> Result<K::Output, SegmentError>
    where
        K: AnalysisSink + Clone + Send,
    {
        let monitors = self.monitor_count();
        if monitors == 0 {
            return Ok(sink.finish());
        }
        // One worker's chain pass. Shared by the single-monitor (inline) and
        // multi-monitor (scoped threads) paths so both report identically.
        let run_chain = |monitor: usize, worker_sink: K| -> Result<K, SegmentError> {
            let _span = obs::histogram!("analysis.worker_pass_ns").timer();
            let consumed = obs::counter(&format!(
                "analysis.entries.{}",
                self.monitor_labels()[monitor]
            ));
            let total = obs::counter!("analysis.entries");
            // The chain stream calls the hook with every chunk it has just
            // validated and hands out the rows afterwards, so the sink is
            // borrowed from both sides, never at the same time.
            let worker_sink = RefCell::new(worker_sink);
            let offer = |chunk: &SharedChunk, _rows: &mut Vec<usize>| {
                worker_sink.borrow_mut().consume_chunk(monitor, chunk);
                consumed.add(chunk.len() as u64);
                total.add(chunk.len() as u64);
                // A sink that is done with the chunk selects none of its
                // rows, so no key is made into it.
                K::ROWS == Rows::None
            };
            let mut stream = self.stream_monitor_sorted_with(monitor, Some(&offer));
            // Entries only if some member consumes entries: a composition
            // that needs at most the times is fed from the same reorder and
            // chain merge, and no entry is built for it.
            if K::ROWS == Rows::Entries {
                for entry in &mut stream {
                    worker_sink.borrow_mut().consume_row(entry);
                }
            } else {
                let mut timed = 0u64;
                while let Some(timestamp) = stream.next_time() {
                    worker_sink.borrow_mut().consume_time(monitor, timestamp);
                    timed += 1;
                }
                obs::counter!("store.rows_timed").add(timed);
            }
            match stream.take_error() {
                Some(error) => Err(error),
                None => Ok(worker_sink.into_inner()),
            }
        };
        let results: Vec<Result<K, SegmentError>> = if monitors == 1 {
            vec![run_chain(0, sink.clone())]
        } else {
            std::thread::scope(|scope| {
                let run_chain = &run_chain;
                let handles: Vec<_> = (0..monitors)
                    .map(|monitor| {
                        let worker_sink = sink.clone();
                        scope.spawn(move || run_chain(monitor, worker_sink))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("analysis worker panicked"))
                    .collect()
            })
        };
        let mut combined: Option<K> = None;
        for result in results {
            let part = result.inspect_err(|_| obs::counter!("analysis.workers_failed").incr())?;
            match combined.as_mut() {
                None => combined = Some(part),
                Some(acc) => {
                    let _span = obs::histogram!("analysis.combine_ns").timer();
                    acc.combine(part);
                }
            }
        }
        Ok(combined.unwrap_or(sink).finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{DatasetConfig, DatasetWriter};
    use crate::record::EntryFlags;
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_simnet::time::SimTime;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};

    fn entry(ms: u64, peer: u64, monitor: usize) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(3, peer),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Us),
            request_type: RequestType::WantHave,
            cid: Cid::new_v1(Multicodec::Raw, &[peer as u8]),
            monitor,
            flags: EntryFlags::default(),
        }
    }

    /// `(per-monitor entry count, per-monitor sum of timestamps)` — enough
    /// state to notice dropped, duplicated, or misattributed entries.
    #[derive(Clone, Default, PartialEq, Debug)]
    struct ProbeSink {
        counts: Vec<u64>,
        time_sums: Vec<u64>,
    }

    impl AnalysisSink for ProbeSink {
        type Output = (Vec<u64>, Vec<u64>);

        fn consume(&mut self, entry: TraceEntry) {
            if self.counts.len() <= entry.monitor {
                self.counts.resize(entry.monitor + 1, 0);
                self.time_sums.resize(entry.monitor + 1, 0);
            }
            self.counts[entry.monitor] += 1;
            self.time_sums[entry.monitor] += entry.timestamp.as_millis();
        }

        fn combine(&mut self, other: Self) {
            if self.counts.len() < other.counts.len() {
                self.counts.resize(other.counts.len(), 0);
                self.time_sums.resize(other.counts.len(), 0);
            }
            for (i, (c, s)) in other.counts.into_iter().zip(other.time_sums).enumerate() {
                self.counts[i] += c;
                self.time_sums[i] += s;
            }
        }

        fn finish(self) -> Self::Output {
            (self.counts, self.time_sums)
        }
    }

    fn build_manifest_dir(label: &str, monitors: usize, per_monitor: u64) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ts-sink-{label}-{}-{}",
            std::process::id(),
            monitors
        ));
        // Labels unique to the test, so its `analysis.entries.<label>`
        // counters count only its own runs.
        let labels: Vec<String> = (0..monitors).map(|m| format!("{label}.m{m}")).collect();
        let mut writer = DatasetWriter::create(
            &dir,
            labels,
            DatasetConfig {
                rotate_after_entries: (per_monitor / 3).max(1),
                ..DatasetConfig::default()
            },
        )
        .unwrap();
        for m in 0..monitors {
            for i in 0..per_monitor {
                writer.append(&entry(i * 7 + m as u64, i % 11, m)).unwrap();
            }
        }
        writer.finish().unwrap();
        dir
    }

    #[test]
    fn run_parallel_matches_run_sink() {
        let dir = build_manifest_dir("match", 3, 200);
        let reader = ManifestReader::open(&dir).unwrap();
        let serial = run_sink(&reader, ProbeSink::default()).unwrap();
        let parallel = reader.run_parallel(ProbeSink::default()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(serial, parallel);
        assert_eq!(serial.0, vec![200, 200, 200]);
    }

    #[test]
    fn tuple_sinks_share_one_pass() {
        let dir = build_manifest_dir("tuple", 2, 50);
        let reader = ManifestReader::open(&dir).unwrap();
        let (a, b) = reader
            .run_parallel((ProbeSink::default(), ProbeSink::default()))
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(a, b);
        assert_eq!(a.0, vec![50, 50]);
    }

    /// A [`Rows::Times`] sink: rows are counted from the chunk, their
    /// timestamps recorded per monitor in the order they are delivered.
    #[derive(Clone, Default, PartialEq, Debug)]
    struct TimeProbe {
        rows: u64,
        times: Vec<Vec<SimTime>>,
    }

    impl AnalysisSink for TimeProbe {
        type Output = Self;
        const ROWS: Rows = Rows::Times;

        fn consume(&mut self, entry: TraceEntry) {
            self.rows += 1;
            self.consume_time(entry.monitor, entry.timestamp);
        }

        fn consume_chunk(&mut self, _monitor: usize, chunk: &ChunkView<'_>) {
            self.rows += chunk.len() as u64;
        }

        fn consume_time(&mut self, monitor: usize, timestamp: SimTime) {
            if self.times.len() <= monitor {
                self.times.resize(monitor + 1, Vec::new());
            }
            self.times[monitor].push(timestamp);
        }

        fn combine(&mut self, other: Self) {
            self.rows += other.rows;
            for (monitor, times) in other.times.into_iter().enumerate() {
                for timestamp in times {
                    self.consume_time(monitor, timestamp);
                }
            }
        }

        fn finish(self) -> Self {
            self
        }
    }

    #[test]
    fn a_composition_is_fed_the_most_any_member_needs() {
        assert_eq!(TimeProbe::ROWS, Rows::Times);
        assert_eq!(ProbeSink::ROWS, Rows::Entries);
        assert_eq!(<(TimeProbe, TimeProbe)>::ROWS, Rows::Times);
        assert_eq!(<((TimeProbe, ProbeSink), TimeProbe)>::ROWS, Rows::Entries);

        let dir = build_manifest_dir("rows", 2, 90);
        let reader = ManifestReader::open(&dir).unwrap();
        let expected = run_sink(&reader, TimeProbe::default()).unwrap();
        assert_eq!(expected.rows, 180);
        assert_eq!(expected.times[1].len(), 90);
        // Fed timestamps, and fed entries beside a member that needs them:
        // the same rows, in the same order.
        let timed = reader.run_parallel(TimeProbe::default()).unwrap();
        let ((beside, entries), nested) = reader
            .run_parallel((
                (TimeProbe::default(), ProbeSink::default()),
                TimeProbe::default(),
            ))
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(timed, expected);
        assert_eq!(beside, expected);
        assert_eq!(nested, expected);
        assert_eq!(entries.0, vec![90, 90]);
    }

    /// What `analysis.entries.<label>` has counted so far.
    fn entries_counted(label: &str) -> u64 {
        obs::snapshot().counters[&format!("analysis.entries.{label}")]
    }

    #[test]
    fn run_parallel_counts_every_monitor() {
        let dir = build_manifest_dir("progress", 3, 150);
        let reader = ManifestReader::open(&dir).unwrap();
        let result = reader.run_parallel(ProbeSink::default());
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(result.unwrap().0, vec![150, 150, 150]);
        for m in 0..3 {
            assert_eq!(entries_counted(&format!("progress.m{m}")), 150);
        }
    }

    #[test]
    fn run_parallel_keeps_counts_on_error() {
        let dir = build_manifest_dir("progress-err", 2, 120);
        // Damage one monitor's segment body; the file name carries the
        // monitor index (`seg-<monitor>-<sequence>.seg`).
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let failed_monitor: usize = victim
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .split('-')
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[10] ^= 0x55;
        std::fs::write(&victim, &bytes).unwrap();
        let reader = ManifestReader::open(&dir).unwrap();
        let result = reader.run_parallel(ProbeSink::default());
        std::fs::remove_dir_all(&dir).ok();
        assert!(result.is_err());
        // The failing chain stopped early; the healthy one still reports a
        // full pass instead of being swallowed by the error.
        assert!(entries_counted(&format!("progress-err.m{failed_monitor}")) < 120);
        assert_eq!(
            entries_counted(&format!("progress-err.m{}", 1 - failed_monitor)),
            120
        );
    }

    #[test]
    fn run_parallel_surfaces_storage_errors() {
        let dir = build_manifest_dir("err", 2, 120);
        // Damage one segment body (past the header, before the footer).
        let victim = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[10] ^= 0x55;
        std::fs::write(&victim, &bytes).unwrap();
        let reader = ManifestReader::open(&dir).unwrap();
        let result = reader.run_parallel(ProbeSink::default());
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(
            result,
            Err(SegmentError::ChecksumMismatch { .. }) | Err(SegmentError::Corrupt(_))
        ));
    }
}
