//! Event-time windowing over trace streams: [`WindowedSink`] slices any
//! per-window accumulator (an [`AnalysisSink`]) into tumbling or sliding
//! windows ([`WindowSpec`]), seals windows as a cross-monitor watermark
//! passes them, and collects sealed [`WindowResult`]s until the caller
//! takes them: as they close with [`take_sealed`](WindowedSink::take_sealed)
//! (the monitoring service), or all at once from
//! [`finish`](WindowedSink::finish) (the batch and parallel drivers).
//!
//! # Window semantics
//!
//! Windows are half-open event-time intervals derived purely from entry
//! timestamps: window `i` of a spec with stride `s` and size `w` covers
//! `[i*s, i*s + w)`. Tumbling windows are the `s == w` special case; with
//! `s < w` an entry belongs to every window whose interval contains its
//! timestamp. Sealed windows are emitted *densely* — every index from 0 up
//! to the last sealed window is reported, including empty ones — so a
//! consumer can verify completeness by index alone.
//!
//! # Watermark
//!
//! Entries arrive in per-monitor timestamp order only up to a bounded
//! arrival disorder (the segment format records each chain's observed
//! `max_lateness_ms`), and different monitors progress at different
//! speeds. The sink therefore tracks one high-water timestamp per monitor
//! and defines the watermark as
//!
//! ```text
//! watermark = min over monitors (high_water[m]) - allowed_lateness
//! ```
//!
//! No window seals until *every* monitor has reported at least one entry —
//! which is also what makes the sink safe under
//! [`run_parallel`](crate::reader::ManifestReader::run_parallel): a worker
//! that only ever sees one monitor's chain never seals anything, the
//! partial states merge per window in
//! [`combine`](AnalysisSink::combine), and everything seals in `finish`,
//! independent of combine order.
//!
//! # Late entries
//!
//! An entry is *late* for a window that already sealed (its timestamp
//! falls below the sealed boundary despite the lateness allowance). The
//! policy is explicit per sink: [`LatePolicy::Drop`] counts the entry into
//! [`WindowedOutput::late_dropped`] (and the `window.late_dropped` obs
//! counter) and moves on; [`LatePolicy::Strict`] panics, for tests and
//! deployments where lateness indicates a configuration bug. With
//! `allowed_lateness` at least the dataset's recorded arrival disorder, no
//! entry is ever late.
//!
//! # Entries or chunk rows
//!
//! Rows reach the windows one at a time through [`AnalysisSink::consume`]
//! (an owned entry, folded into its windows at once) or a chunk at a time
//! through [`WindowedSink::consume_chunk_rows`] (a validated chunk from
//! [`DatasetTail::poll_chunks`](crate::tail::DatasetTail::poll_chunks), rows
//! in stored order). Both route every row through the same step — window
//! assignment, late check, high-water mark, sealing — in row order, so both
//! reach the same state row for row. The chunk path only defers the fold:
//! each window collects the indexes of its rows of the chunk and hands them
//! to its accumulator's [`AnalysisSink::consume_rows`] in one call, before
//! the window seals and at the end of the chunk. An accumulator that counts
//! per dictionary index there touches its own maps once per distinct key,
//! not once per row.

use crate::record::TraceEntry;
use crate::segment::ChunkView;
use crate::sink::AnalysisSink;
use ipfs_mon_obs as obs;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Shape of the event-time windows: size and stride in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    size: SimDuration,
    stride: SimDuration,
}

impl WindowSpec {
    /// Tumbling windows: back-to-back, non-overlapping intervals of
    /// `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn tumbling(size: SimDuration) -> Self {
        Self::sliding(size, size)
    }

    /// Sliding (hopping) windows of `size`, one starting every `stride`.
    ///
    /// # Panics
    ///
    /// Panics if either duration is zero or the stride exceeds the size
    /// (which would leave gaps no window covers).
    pub fn sliding(size: SimDuration, stride: SimDuration) -> Self {
        assert!(size.as_millis() > 0, "window size must be positive");
        assert!(stride.as_millis() > 0, "window stride must be positive");
        assert!(
            stride <= size,
            "window stride must not exceed the window size"
        );
        Self { size, stride }
    }

    /// Window size.
    pub fn size(&self) -> SimDuration {
        self.size
    }

    /// Window stride (equals `size` for tumbling windows).
    pub fn stride(&self) -> SimDuration {
        self.stride
    }

    /// Bounds of window `index`.
    pub fn bounds(&self, index: u64) -> WindowBounds {
        let start = SimTime::from_millis(index * self.stride.as_millis());
        WindowBounds {
            index,
            start,
            end: start + self.size,
        }
    }

    /// Inclusive range of window indexes containing `t`.
    pub fn windows_containing(&self, t: SimTime) -> std::ops::RangeInclusive<u64> {
        let ts = t.as_millis();
        let stride = self.stride.as_millis();
        let size = self.size.as_millis();
        let last = ts / stride;
        let first = if ts < size {
            0
        } else {
            (ts - size) / stride + 1
        };
        first..=last
    }
}

/// The half-open event-time interval `[start, end)` of one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowBounds {
    /// Window index (`start = index * stride`).
    pub index: u64,
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

/// What to do with an entry that arrives for an already-sealed window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatePolicy {
    /// Count it into [`WindowedOutput::late_dropped`] and drop it.
    #[default]
    Drop,
    /// Panic — for tests and deployments where the lateness allowance is
    /// supposed to cover all arrival disorder.
    Strict,
}

/// One sealed window: its bounds, how many entries it absorbed, and the
/// finished accumulator output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowResult<O> {
    /// The window's event-time interval.
    pub bounds: WindowBounds,
    /// Entries consumed into this window (an entry of a sliding spec
    /// counts once per window it falls into).
    pub entries: u64,
    /// The finished per-window analysis output.
    pub output: O,
}

struct OpenWindow<A> {
    accum: A,
    entries: u64,
}

impl<A: Clone> Clone for OpenWindow<A> {
    fn clone(&self) -> Self {
        Self {
            accum: self.accum.clone(),
            entries: self.entries,
        }
    }
}

/// The chunk being routed, with its monitor: whose held rows a window folds
/// before it seals.
type Routing<'c, 'v> = Option<(usize, &'c ChunkView<'v>)>;

/// Aggregate outcome of a windowed run: the sealed windows not taken
/// earlier, plus accounting over the whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedOutput<O> {
    /// The sealed windows [`WindowedSink::take_sealed`] has not already
    /// handed out, in index order — dense from window 0 when it was never
    /// called.
    pub results: Vec<WindowResult<O>>,
    /// Total windows sealed, taken early or not.
    pub windows_sealed: u64,
    /// Entries dropped under [`LatePolicy::Drop`], counted per window
    /// assignment.
    pub late_dropped: u64,
    /// Peak number of simultaneously open windows — the sink's memory
    /// high-water mark in units of accumulators.
    pub max_open_windows: usize,
}

/// The windowing adapter: slices a stream into event-time windows, runs a
/// fresh per-window [`AnalysisSink`] (built by the factory — any sink
/// honouring the combine contract works, including the
/// [sketches](crate::sketch)) per window, seals windows behind the
/// cross-monitor watermark, and emits [`WindowResult`]s.
///
/// Implements [`AnalysisSink`], so it runs under both
/// [`run_sink`](crate::sink::run_sink) and
/// [`run_parallel`](crate::reader::ManifestReader::run_parallel) (see the
/// [module docs](self) for why the combine contract holds). Memory is
/// bounded by the number of *open* windows: with bounded arrival disorder
/// that is `O(lateness / stride + size / stride)` accumulators, never the
/// stream length.
pub struct WindowedSink<A: AnalysisSink, F> {
    spec: WindowSpec,
    lateness: SimDuration,
    policy: LatePolicy,
    factory: F,
    /// Sealed and not yet taken, in index order.
    sealed: Vec<WindowResult<A::Output>>,
    /// Highest timestamp seen per monitor; the watermark is the minimum
    /// over all monitors minus the lateness allowance, and undefined until
    /// every monitor has reported.
    high_water: Vec<Option<SimTime>>,
    open: BTreeMap<u64, OpenWindow<A>>,
    /// Lowest window index not yet sealed.
    next_index: u64,
    windows_sealed: u64,
    late_dropped: u64,
    max_open: usize,
    /// Per open window handed rows of the chunk being routed, those rows,
    /// not folded yet, in first-touch order; empty between chunks.
    held: Vec<(u64, Vec<usize>)>,
}

impl<A, F> Clone for WindowedSink<A, F>
where
    A: AnalysisSink + Clone,
    A::Output: Clone,
    F: Clone,
{
    fn clone(&self) -> Self {
        Self {
            spec: self.spec,
            lateness: self.lateness,
            policy: self.policy,
            factory: self.factory.clone(),
            sealed: self.sealed.clone(),
            high_water: self.high_water.clone(),
            open: self.open.clone(),
            next_index: self.next_index,
            windows_sealed: self.windows_sealed,
            late_dropped: self.late_dropped,
            max_open: self.max_open,
            held: self.held.clone(),
        }
    }
}

impl<A, F> WindowedSink<A, F>
where
    A: AnalysisSink,
    F: Fn(&WindowBounds) -> A,
{
    /// Creates a sink over `monitors` monitor chains (the watermark waits
    /// for all of them); `factory` builds the fresh accumulator for each
    /// window. Sealed windows collect in the sink until
    /// [`take_sealed`](WindowedSink::take_sealed) or
    /// [`finish`](WindowedSink::finish) hands them out.
    pub fn deferred(
        monitors: usize,
        spec: WindowSpec,
        lateness: SimDuration,
        policy: LatePolicy,
        factory: F,
    ) -> Self {
        assert!(monitors > 0, "windowed sink needs at least one monitor");
        Self {
            spec,
            lateness,
            policy,
            factory,
            sealed: Vec::new(),
            high_water: vec![None; monitors],
            open: BTreeMap::new(),
            next_index: 0,
            windows_sealed: 0,
            late_dropped: 0,
            max_open: 0,
            held: Vec::new(),
        }
    }

    /// Drains the windows sealed since the last call, in index order. A
    /// caller that drains after every entry holds no more than the windows
    /// one entry can seal; across all calls plus
    /// [`finish`](WindowedSink::finish) every sealed window is handed out
    /// exactly once.
    pub fn take_sealed(&mut self) -> Vec<WindowResult<A::Output>> {
        std::mem::take(&mut self.sealed)
    }

    /// The watermark: the point up to which the event-time stream is
    /// complete, or `None` while any monitor has yet to report.
    pub fn watermark(&self) -> Option<SimTime> {
        let mut min: Option<SimTime> = None;
        for high in &self.high_water {
            let high = (*high)?;
            min = Some(match min {
                Some(m) if m <= high => m,
                _ => high,
            });
        }
        min.map(|m| SimTime::from_millis(m.as_millis().saturating_sub(self.lateness.as_millis())))
    }

    /// Currently open (unsealed, non-empty) windows.
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Window `index`, opened with a fresh accumulator if it is not open.
    fn open_window(&mut self, index: u64) -> &mut OpenWindow<A> {
        self.open.entry(index).or_insert_with(|| OpenWindow {
            accum: (self.factory)(&self.spec.bounds(index)),
            entries: 0,
        })
    }

    /// Holds `row` of the chunk being routed for open window `index`: the
    /// chunk path's fold step.
    fn hold(&mut self, index: u64, row: usize) {
        // A chunk's rows mostly go to the window the previous row went to.
        if let Some((_, rows)) = self.held.iter_mut().rev().find(|(held, _)| *held == index) {
            rows.push(row);
            return;
        }
        self.open_window(index);
        self.held.push((index, vec![row]));
    }

    /// Folds the rows of `chunk` held for window `index` into it, if any.
    fn fold_held(&mut self, index: u64, monitor: usize, chunk: &ChunkView<'_>) {
        let Some(at) = self.held.iter().position(|(held, _)| *held == index) else {
            return;
        };
        let (_, rows) = self.held.swap_remove(at);
        let window = self
            .open
            .get_mut(&index)
            .expect("held rows belong to an open window");
        window.accum.consume_rows(monitor, chunk, &rows);
        window.entries += rows.len() as u64;
    }

    fn seal_one(&mut self, index: u64, routing: Routing<'_, '_>) {
        if let Some((monitor, chunk)) = routing {
            self.fold_held(index, monitor, chunk);
        }
        let bounds = self.spec.bounds(index);
        let window = self.open.remove(&index).unwrap_or_else(|| OpenWindow {
            accum: (self.factory)(&bounds),
            entries: 0,
        });
        let result = WindowResult {
            bounds,
            entries: window.entries,
            output: window.accum.finish(),
        };
        self.windows_sealed += 1;
        obs::counter!("window.sealed").incr();
        self.sealed.push(result);
        self.next_index = index + 1;
    }

    /// Seals every window whose end the watermark has passed. Emission is
    /// dense: indexes below the highest sealable window seal too, empty or
    /// not.
    fn advance(&mut self, routing: Routing<'_, '_>) {
        let Some(watermark) = self.watermark() else {
            return;
        };
        while self.spec.bounds(self.next_index).end <= watermark {
            self.seal_one(self.next_index, routing);
        }
        obs::gauge!("window.open").set(self.open.len() as u64);
    }

    /// The one routing step of a row of `monitor` at `timestamp`, whichever
    /// way it came in: `fold` hands the row to each open window it falls in
    /// (by index), a sealed window counts it late; then the monitor's
    /// high-water mark moves and every window the watermark passed seals,
    /// folding the rows of the `routing` chunk held for it first.
    fn route(
        &mut self,
        monitor: usize,
        timestamp: SimTime,
        routing: Routing<'_, '_>,
        mut fold: impl FnMut(&mut Self, u64),
    ) {
        assert!(
            monitor < self.high_water.len(),
            "entry for monitor {monitor} but the windowed sink was built for {} monitors",
            self.high_water.len()
        );
        for index in self.spec.windows_containing(timestamp) {
            if index < self.next_index {
                match self.policy {
                    LatePolicy::Drop => {
                        self.late_dropped += 1;
                        obs::counter!("window.late_dropped").incr();
                    }
                    LatePolicy::Strict => panic!(
                        "late entry at {} ms for sealed window {index} (strict late policy)",
                        timestamp.as_millis()
                    ),
                }
                continue;
            }
            fold(self, index);
        }
        self.max_open = self.max_open.max(self.open.len());
        if self.high_water[monitor] < Some(timestamp) {
            self.high_water[monitor] = Some(timestamp);
        }
        self.advance(routing);
    }

    /// Routes every row of `chunk`, a validated chunk of `monitor`, in
    /// stored (arrival) order, to exactly the state
    /// [`consume`](AnalysisSink::consume) reaches over `chunk.entry(j)` for
    /// `j` ascending (with `monitor` set): the same windows open and seal at
    /// the same rows, the same rows count late, `max_open_windows` is the
    /// same. Each window's rows of the chunk are held and folded in one
    /// [`consume_rows`](AnalysisSink::consume_rows) call, in row order,
    /// before the window seals or else when the chunk ends.
    pub fn consume_chunk_rows(&mut self, monitor: usize, chunk: &ChunkView<'_>) {
        let routing = Some((monitor, chunk));
        for (row, &ms) in chunk.timestamps_ms().iter().enumerate() {
            self.route(monitor, SimTime::from_millis(ms), routing, |sink, index| {
                sink.hold(index, row);
            });
        }
        while let Some(&(index, _)) = self.held.last() {
            self.fold_held(index, monitor, chunk);
        }
    }
}

impl<A, F> AnalysisSink for WindowedSink<A, F>
where
    A: AnalysisSink,
    F: Fn(&WindowBounds) -> A,
{
    type Output = WindowedOutput<A::Output>;

    fn consume(&mut self, entry: TraceEntry) {
        self.route(entry.monitor, entry.timestamp, None, |sink, index| {
            let window = sink.open_window(index);
            window.accum.consume(entry.clone());
            window.entries += 1;
        });
    }

    /// Merges the partial state of another windowed sink over the same
    /// spec: per-window accumulators merge, high-water marks take the
    /// per-monitor maximum. Supported only while neither side has sealed a
    /// window — exactly the state of `run_parallel` workers, whose
    /// single-monitor streams never complete the cross-monitor watermark
    /// (see the [module docs](self)).
    fn combine(&mut self, other: Self) {
        assert_eq!(self.spec, other.spec, "windowed sinks must share a spec");
        assert!(
            self.next_index == 0 && other.next_index == 0,
            "windowed sinks cannot combine after sealing windows"
        );
        for (mine, theirs) in self.high_water.iter_mut().zip(other.high_water) {
            if *mine < theirs {
                *mine = theirs;
            }
        }
        for (index, window) in other.open {
            match self.open.entry(index) {
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let slot = slot.get_mut();
                    slot.accum.combine(window.accum);
                    slot.entries += window.entries;
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(window);
                }
            }
        }
        self.late_dropped += other.late_dropped;
        self.max_open = self.max_open.max(self.open.len());
    }

    /// Seals every remaining window (the stream is over, so the watermark
    /// no longer applies) and returns the aggregate output. Emission stays
    /// dense and in index order through the last non-empty window.
    fn finish(mut self) -> WindowedOutput<A::Output> {
        if let Some((&last, _)) = self.open.iter().next_back() {
            while self.next_index <= last {
                self.seal_one(self.next_index, None);
            }
        }
        obs::gauge!("window.open").set(0);
        WindowedOutput {
            results: self.sealed,
            windows_sealed: self.windows_sealed,
            late_dropped: self.late_dropped,
            max_open_windows: self.max_open,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EntryFlags;
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};

    fn entry(ms: u64, monitor: usize) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(1, monitor as u64),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Us),
            request_type: RequestType::WantHave,
            cid: Cid::new_v1(Multicodec::Raw, &[ms as u8]),
            monitor,
            flags: EntryFlags::default(),
        }
    }

    /// Counts entries; the simplest possible accumulator.
    #[derive(Clone, Default)]
    struct Count(u64);

    impl AnalysisSink for Count {
        type Output = u64;

        fn consume(&mut self, _entry: TraceEntry) {
            self.0 += 1;
        }

        fn combine(&mut self, other: Self) {
            self.0 += other.0;
        }

        fn finish(self) -> u64 {
            self.0
        }
    }

    fn counting_sink(
        monitors: usize,
        spec: WindowSpec,
    ) -> WindowedSink<Count, impl Fn(&WindowBounds) -> Count + Clone> {
        WindowedSink::deferred(
            monitors,
            spec,
            SimDuration::ZERO,
            LatePolicy::Strict,
            |_| Count::default(),
        )
    }

    #[test]
    fn tumbling_windows_partition_the_stream() {
        let spec = WindowSpec::tumbling(SimDuration::from_millis(100));
        let mut sink = counting_sink(1, spec);
        for ms in [0, 10, 99, 100, 150, 320] {
            sink.consume(entry(ms, 0));
        }
        let out = sink.finish();
        let counts: Vec<u64> = out.results.iter().map(|r| r.output).collect();
        assert_eq!(counts, vec![3, 2, 0, 1]);
        assert_eq!(out.windows_sealed, 4);
        assert_eq!(out.late_dropped, 0);
        // Window 0 and 1 sealed eagerly once the stream passed them.
        assert!(out.max_open_windows <= 2);
    }

    #[test]
    fn sliding_windows_overlap() {
        let spec =
            WindowSpec::sliding(SimDuration::from_millis(200), SimDuration::from_millis(100));
        let mut sink = counting_sink(1, spec);
        // 150 falls in windows [0,200) and [100,300).
        sink.consume(entry(150, 0));
        sink.consume(entry(420, 0));
        let out = sink.finish();
        let counts: Vec<u64> = out.results.iter().map(|r| r.output).collect();
        // Windows: [0,200) [100,300) [200,400) [300,500) [400,600).
        assert_eq!(counts, vec![1, 1, 0, 1, 1]);
    }

    #[test]
    fn watermark_waits_for_every_monitor() {
        let spec = WindowSpec::tumbling(SimDuration::from_millis(100));
        let mut sink = counting_sink(2, spec);
        sink.consume(entry(500, 0));
        assert_eq!(sink.watermark(), None);
        assert_eq!(sink.windows_sealed, 0);
        sink.consume(entry(250, 1));
        assert_eq!(sink.watermark(), Some(SimTime::from_millis(250)));
        // Windows [0,100) and [100,200) sealed; [200,300) still open.
        assert_eq!(sink.windows_sealed, 2);
    }

    #[test]
    fn lateness_holds_the_watermark_back() {
        let spec = WindowSpec::tumbling(SimDuration::from_millis(100));
        let mut sink = WindowedSink::deferred(
            1,
            spec,
            SimDuration::from_millis(150),
            LatePolicy::Strict,
            |_: &WindowBounds| Count::default(),
        );
        sink.consume(entry(240, 0));
        assert_eq!(sink.watermark(), Some(SimTime::from_millis(90)));
        assert_eq!(sink.windows_sealed, 0);
        // In-allowance disorder is absorbed, not late.
        sink.consume(entry(110, 0));
        let out = sink.finish();
        assert_eq!(out.late_dropped, 0);
        let counts: Vec<u64> = out.results.iter().map(|r| r.output).collect();
        assert_eq!(counts, vec![0, 1, 1]);
    }

    #[test]
    fn late_entries_drop_with_accounting() {
        let spec = WindowSpec::tumbling(SimDuration::from_millis(100));
        let mut sink = WindowedSink::deferred(
            1,
            spec,
            SimDuration::ZERO,
            LatePolicy::Drop,
            |_: &WindowBounds| Count::default(),
        );
        sink.consume(entry(350, 0));
        sink.consume(entry(20, 0)); // window 0 sealed long ago
        let out = sink.finish();
        assert_eq!(out.late_dropped, 1);
        let total: u64 = out.results.iter().map(|r| r.output).sum();
        assert_eq!(total, 1);
    }

    #[test]
    #[should_panic(expected = "late entry")]
    fn strict_policy_panics_on_late_entries() {
        let spec = WindowSpec::tumbling(SimDuration::from_millis(100));
        let mut sink = counting_sink(1, spec);
        sink.consume(entry(350, 0));
        sink.consume(entry(20, 0));
    }

    #[test]
    fn take_sealed_hands_out_each_window_once_in_index_order() {
        let spec = WindowSpec::tumbling(SimDuration::from_millis(100));
        let mut sink = counting_sink(1, spec);
        let mut seen = Vec::new();
        let mut drain = |sealed: Vec<WindowResult<u64>>| {
            seen.extend(sealed.into_iter().map(|r| (r.bounds.index, r.output)));
            seen.len()
        };
        sink.consume(entry(30, 0));
        assert_eq!(drain(sink.take_sealed()), 0);
        sink.consume(entry(130, 0));
        assert_eq!(drain(sink.take_sealed()), 1);
        assert_eq!(drain(sink.take_sealed()), 1, "taken windows are gone");
        sink.consume(entry(510, 0));
        assert_eq!(drain(sink.take_sealed()), 5);
        // `finish` returns only what was not taken: the last open window.
        let out = sink.finish();
        assert_eq!(out.windows_sealed, 6);
        assert_eq!(drain(out.results), 6);
        assert_eq!(seen, vec![(0, 1), (1, 1), (2, 0), (3, 0), (4, 0), (5, 1)]);
    }

    /// Logs every entry its window consumed, in order; rows come through
    /// the default [`AnalysisSink::consume_rows`].
    #[derive(Clone, Default)]
    struct Log(Vec<TraceEntry>);

    impl AnalysisSink for Log {
        type Output = Vec<TraceEntry>;

        fn consume(&mut self, entry: TraceEntry) {
            self.0.push(entry);
        }

        fn combine(&mut self, other: Self) {
            self.0.extend(other.0);
        }

        fn finish(self) -> Vec<TraceEntry> {
            self.0
        }
    }

    /// [`Count`] that folds chunk rows without building entries.
    #[derive(Clone, Default)]
    struct RowCount(u64);

    impl AnalysisSink for RowCount {
        type Output = u64;

        fn consume(&mut self, _entry: TraceEntry) {
            self.0 += 1;
        }

        fn consume_rows(&mut self, _monitor: usize, _chunk: &ChunkView<'_>, rows: &[usize]) {
            self.0 += rows.len() as u64;
        }

        fn combine(&mut self, other: Self) {
            self.0 += other.0;
        }

        fn finish(self) -> u64 {
            self.0
        }
    }

    /// A monitor's row at `ms`; `cid` and `kind` vary the columns.
    fn row(ms: u64, monitor: usize, cid: u8, kind: u8) -> TraceEntry {
        TraceEntry {
            request_type: match kind {
                0 => RequestType::WantHave,
                1 => RequestType::WantBlock,
                _ => RequestType::Cancel,
            },
            cid: Cid::new_v1(Multicodec::Raw, &[cid]),
            ..entry(ms, monitor)
        }
    }

    /// Per row `(monitor, gap_ms, back_ms, cid, kind)`: each monitor's clock
    /// moves on by `gap_ms`, and the row is stamped up to 240 ms before it —
    /// past the lateness allowance, so some rows are late.
    type Rows = Vec<(usize, u64, u64, u8, u8)>;

    /// Each monitor's rows cut into chunks at the given sizes (cycled), and
    /// the chunks interleaved across monitors by `picks`, each monitor's in
    /// order: the frames the tail hands out, in one order it may.
    fn chunked(
        monitors: usize,
        rows: Rows,
        cuts: &[usize],
        picks: &[usize],
    ) -> Vec<(usize, Vec<u8>)> {
        let mut clocks = vec![0u64; monitors];
        let mut per_monitor = vec![Vec::new(); monitors];
        for (monitor, gap, back, cid, kind) in rows {
            let monitor = monitor % monitors;
            clocks[monitor] += gap;
            let ms = clocks[monitor].saturating_sub(back);
            per_monitor[monitor].push(row(ms, monitor, cid, kind));
        }
        let mut chunks: Vec<std::collections::VecDeque<Vec<u8>>> =
            vec![Default::default(); monitors];
        let mut cut = cuts.iter().cycle();
        for (monitor, rows) in per_monitor.iter().enumerate() {
            let mut rest = &rows[..];
            while !rest.is_empty() {
                let (head, tail) = rest.split_at((*cut.next().unwrap()).min(rest.len()));
                let mut frame = Vec::new();
                crate::segment::encode_chunk(head, &mut frame);
                chunks[monitor].push_back(frame);
                rest = tail;
            }
        }
        let mut order = Vec::new();
        let mut pick = picks.iter().cycle();
        loop {
            let open: Vec<usize> = (0..monitors).filter(|&m| !chunks[m].is_empty()).collect();
            if open.is_empty() {
                return order;
            }
            let monitor = open[pick.next().unwrap() % open.len()];
            order.push((monitor, chunks[monitor].pop_front().unwrap()));
        }
    }

    proptest::proptest! {
        /// Routing a chunk's rows reaches the state `consume` reaches over
        /// the chunk's entries in stored order: the same windows sealed at
        /// every chunk boundary, the same late drops, the same peak of open
        /// windows, the same output.
        #[test]
        fn chunk_rows_route_like_entries(
            monitors in 1usize..4,
            rows in proptest::collection::vec((0usize..4, 0u64..60, 0u64..240, 0u8..6, 0u8..3), 0..400),
            cuts in proptest::collection::vec(1usize..40, 1..8),
            picks in proptest::collection::vec(0usize..4, 1..8),
            size in 1u64..300,
            hops in 1u64..4,
            lateness in 0u64..120,
        ) {
            let spec = WindowSpec::sliding(
                SimDuration::from_millis(size),
                SimDuration::from_millis(size.div_ceil(hops)),
            );
            let sink = || {
                WindowedSink::deferred(
                    monitors,
                    spec,
                    SimDuration::from_millis(lateness),
                    LatePolicy::Drop,
                    |_: &WindowBounds| (Log::default(), RowCount::default()),
                )
            };
            let (mut by_rows, mut by_entries) = (sink(), sink());
            for (monitor, frame) in chunked(monitors, rows, &cuts, &picks) {
                let view = ChunkView::parse(std::borrow::Cow::Borrowed(&frame)).unwrap();
                by_rows.consume_chunk_rows(monitor, &view);
                for j in 0..view.len() {
                    let mut entry = view.entry(j);
                    entry.monitor = monitor;
                    by_entries.consume(entry);
                }
                proptest::prop_assert_eq!(by_rows.take_sealed(), by_entries.take_sealed());
                proptest::prop_assert_eq!(by_rows.late_dropped, by_entries.late_dropped);
                proptest::prop_assert_eq!(by_rows.max_open, by_entries.max_open);
                proptest::prop_assert_eq!(by_rows.watermark(), by_entries.watermark());
            }
            proptest::prop_assert_eq!(by_rows.finish(), by_entries.finish());
        }
    }

    #[test]
    fn combine_merges_per_window_state() {
        let spec = WindowSpec::tumbling(SimDuration::from_millis(100));
        let mut a = counting_sink(2, spec);
        let mut b = counting_sink(2, spec);
        for ms in [10, 110, 120] {
            a.consume(entry(ms, 0));
        }
        for ms in [50, 115] {
            b.consume(entry(ms, 1));
        }
        // Neither sealed: each worker saw only one monitor.
        assert_eq!(a.windows_sealed + b.windows_sealed, 0);
        a.combine(b);
        let out = a.finish();
        let counts: Vec<u64> = out.results.iter().map(|r| r.output).collect();
        assert_eq!(counts, vec![2, 3]);
    }
}
