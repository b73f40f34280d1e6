//! The continuous monitoring service: one long-running loop tying crash
//! recovery → resumed collection → incremental chain tailing → windowed
//! analysis, with *exactly-once* window output across kill/restart.
//!
//! # The loop
//!
//! [`MonitorService::open`] runs
//! [`recover_dataset`](ipfs_mon_tracestore::recover::recover_dataset) on
//! the directory (repairing any crash damage and reporting
//! [`ResumeCursor`]s), resumes the
//! [`DatasetWriter`] over the recovered manifest, and opens a
//! [`DatasetTail`] over the segment chains. From then on the caller feeds
//! entries with [`MonitorService::ingest`] (collection: appended,
//! rotated, checkpointed per [`DatasetConfig`]) and calls
//! [`MonitorService::poll`] whenever it wants answers: the tail validates
//! every newly *durable* chunk frame and hands the chunk to the windowed
//! analysis sink, which routes its rows to their windows, counts each
//! window's share of the chunk per dictionary index, seals windows behind
//! the cross-monitor watermark and emits one [`WindowSummary`] JSON line per
//! window. [`MonitorService::finish`]
//! writes the final manifest, drains the tail, and seals the remaining
//! windows.
//!
//! Memory is bounded (open segment buffers + open windows + one exact count
//! per open window, its distinct requested CIDs: at most 204 per 10-minute
//! window on the repo benchmark's `service` workload, seed 77), and
//! latency-to-answer is bounded by the checkpoint cadence (entries become
//! durable, hence tail-visible, at every checkpoint) plus the window size
//! and lateness allowance.
//!
//! # Exactly-once window output
//!
//! Every sealed window is one frame of the append-only window log,
//! `windows.log` (see [`window_log`](crate::window_log) for its format).
//! The windows one poll seals are appended together, in one write and one
//! fsync; only after that fsync do their lines join what
//! [`MonitorService::poll`] returns. That makes the log the restart state:
//!
//! * after a crash, the log is its longest valid frame prefix, windows
//!   `0 .. n`. A kill or power loss mid-append leaves a torn tail, which
//!   open cuts; a frame of that append may survive whole, but none of its
//!   lines was returned yet, and
//!   [`read_window_log`](crate::window_log::read_window_log) reads exactly
//!   the prefix open keeps;
//! * on restart the service replays the recovered chains through a fresh
//!   windowed sink and *suppresses* the first `n` sealed windows instead of
//!   appending them again — no duplicates;
//! * the replay re-derives window `n` and everything after it from exactly
//!   the bytes that survived the crash — no gaps. The tail only ever feeds
//!   *durable* bytes to the sink, so a window sealed before the crash was
//!   computed from data that is still there after it.
//!
//! A failed append leaves its windows pending, to be appended by the next
//! poll after the log is cut back to its durable prefix.
//!
//! Each window is also a file, `windows/win-<index>.json`, holding its line
//! byte for byte: a view of the log, written by one helper thread after the
//! frame is durable, without staging or fsync. A file can lag the log — a
//! killed process does not wait for the helper — but never leads it, and
//! [`MonitorService::open`] rewrites every logged window whose file is
//! missing or differs; [`MonitorService::finish`] returns with every file
//! written. The helper's first I/O error is returned by the next `poll` and
//! by `finish`.
//!
//! Re-derived windows are bit-identical to the pre-crash ones as long as
//! the lateness allowance covers each chain's arrival disorder (zero for
//! the in-order collectors); the `service_soak` integration test
//! kill/restarts the service at sampled storage operations, and at every
//! operation of a multi-window append, and asserts the concatenated output
//! equals a fault-free run's, byte for byte.
//!
//! [`ResumeCursor`]: ipfs_mon_tracestore::recover::ResumeCursor

use crate::popularity::rank_top_k;
use crate::trace::TraceEntry;
use crate::window_log::{window_file_name, FileView, WindowLog, WINDOW_DIR_NAME};
use ipfs_mon_bitswap::RequestType;
use ipfs_mon_obs as obs;
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_tracestore::recover::{recover_dataset_with, RecoveryReport};
use ipfs_mon_tracestore::window::{
    LatePolicy, WindowBounds, WindowResult, WindowSpec, WindowedSink,
};
use ipfs_mon_tracestore::{
    AnalysisSink, ChunkView, DatasetConfig, DatasetTail, DatasetWriter, RealStorage, SegmentError,
    Storage, WordHashBuilder,
};
use ipfs_mon_types::Cid;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Configuration of the service loop.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Collection-side configuration (rotation, checkpoint cadence, chunk
    /// capacity). The checkpoint cadence doubles as the latency-to-answer
    /// bound: entries become tail-visible when they become durable.
    pub dataset: DatasetConfig,
    /// Window shape of the online analysis.
    pub window: WindowSpec,
    /// Arrival-disorder allowance subtracted from the watermark.
    pub lateness: SimDuration,
    /// What to do with entries for already-sealed windows.
    pub policy: LatePolicy,
    /// Requested CIDs each window line reports, the most requested first
    /// (at least 1; [`MonitorService::open`] refuses 0).
    pub top_k: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            dataset: DatasetConfig::default(),
            window: WindowSpec::tumbling(SimDuration::from_mins(1)),
            lateness: SimDuration::ZERO,
            policy: LatePolicy::Drop,
            top_k: 8,
        }
    }
}

/// The per-window analysis the service runs: exact request-type totals
/// plus the `top_k` most requested CIDs by exact count — compact enough for
/// one JSON line per window, rich enough to answer the paper's "what is
/// being asked for right now" question continuously.
///
/// Per window it holds one count per distinct requested CID. Exact counts
/// do not depend on the order the tail interleaves the chains in, so a
/// restart's bulk replay seals the same summary as the live polls did.
#[derive(Debug, Clone)]
pub struct ServiceWindowAccum {
    top_k: usize,
    want_have: u64,
    want_block: u64,
    cancel: u64,
    cid_requests: HashMap<Cid, u64, WordHashBuilder>,
}

impl ServiceWindowAccum {
    fn new(top_k: usize) -> Self {
        Self {
            top_k,
            want_have: 0,
            want_block: 0,
            cancel: 0,
            cid_requests: HashMap::with_hasher(WordHashBuilder::random()),
        }
    }
}

impl AnalysisSink for ServiceWindowAccum {
    type Output = WindowSummary;

    fn consume(&mut self, entry: TraceEntry) {
        match entry.request_type {
            RequestType::WantHave => self.want_have += 1,
            RequestType::WantBlock => self.want_block += 1,
            RequestType::Cancel => self.cancel += 1,
        }
        if entry.is_request() {
            *self.cid_requests.entry(entry.cid).or_insert(0) += 1;
        }
    }

    /// Request types come from the type plane; requests are counted per CID
    /// dictionary index, so the window's map is touched once per distinct
    /// CID the rows request.
    fn consume_rows(&mut self, _monitor: usize, chunk: &ChunkView<'_>, rows: &[usize]) {
        let mut requests = vec![0u64; chunk.cid_dict().len()];
        let cids = chunk.cid_indexes();
        for &row in rows {
            match chunk.request_type(row) {
                RequestType::WantHave => self.want_have += 1,
                RequestType::WantBlock => self.want_block += 1,
                RequestType::Cancel => {
                    self.cancel += 1;
                    continue;
                }
            }
            requests[cids[row]] += 1;
        }
        for (cid, n) in chunk.cid_dict().iter().zip(requests) {
            if n == 0 {
                continue;
            }
            match self.cid_requests.get_mut(cid) {
                Some(count) => *count += n,
                None => {
                    self.cid_requests.insert(cid.clone(), n);
                }
            }
        }
    }

    fn combine(&mut self, other: Self) {
        self.want_have += other.want_have;
        self.want_block += other.want_block;
        self.cancel += other.cancel;
        for (cid, requests) in other.cid_requests {
            *self.cid_requests.entry(cid).or_insert(0) += requests;
        }
    }

    fn finish(self) -> WindowSummary {
        WindowSummary {
            want_have: self.want_have,
            want_block: self.want_block,
            cancel: self.cancel,
            top_cids: rank_top_k(self.cid_requests.into_iter().collect(), self.top_k),
        }
    }
}

/// One sealed window's analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSummary {
    /// `WANT_HAVE` entries in the window.
    pub want_have: u64,
    /// `WANT_BLOCK` entries in the window.
    pub want_block: u64,
    /// `CANCEL` entries in the window.
    pub cancel: u64,
    /// The most requested CIDs with their exact request counts, ranked by
    /// count descending, CID ascending.
    pub top_cids: Vec<(Cid, u64)>,
}

/// Formats one sealed window as its canonical JSON line — the bytes
/// written to `windows/win-<index>.json` and surfaced by
/// [`MonitorService::poll`]. Deterministic: equal windows format to equal
/// bytes.
pub fn format_window_line(result: &WindowResult<WindowSummary>) -> String {
    let mut line = format!(
        "{{\"index\":{},\"start_ms\":{},\"end_ms\":{},\"entries\":{},\"want_have\":{},\"want_block\":{},\"cancel\":{},\"top_cids\":[",
        result.bounds.index,
        result.bounds.start.as_millis(),
        result.bounds.end.as_millis(),
        result.entries,
        result.output.want_have,
        result.output.want_block,
        result.output.cancel,
    );
    for (i, (cid, count)) in result.output.top_cids.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        // CID string forms are base32/base58 — no JSON escaping needed.
        line.push_str(&format!("{{\"cid\":\"{cid}\",\"count\":{count}}}"));
    }
    line.push_str("]}");
    line
}

/// The window emitter: collects the windows one drain seals, appends them
/// to the log in one write and one fsync, queues their files, and
/// suppresses windows a previous incarnation already logged.
struct Emitter {
    log: WindowLog,
    view: FileView,
    /// Windows `0..skip_below` were logged by a previous run: re-derived,
    /// but not appended again.
    skip_below: u64,
    /// Next window index expected from the sink (sealing is dense).
    next: u64,
    emitted: u64,
    skipped: u64,
    /// Lines of sealed windows not yet durable, in index order.
    pending: Vec<String>,
    /// JSON lines of committed windows not yet handed to the caller.
    lines: Vec<String>,
}

impl Emitter {
    fn emit(&mut self, result: WindowResult<WindowSummary>) {
        let index = result.bounds.index;
        assert_eq!(
            index, self.next,
            "windowed sink sealed out of order (dense emission invariant)"
        );
        self.next += 1;
        if index < self.skip_below {
            self.skipped += 1;
            obs::counter!("service.windows_skipped").incr();
            return;
        }
        self.pending.push(format_window_line(&result));
    }

    /// Makes every pending window durable in one log append, hands its
    /// lines to the caller and queues its files. On a failed append nothing
    /// pending is surfaced; it stays pending, in order.
    fn commit(&mut self) -> Result<(), SegmentError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let first = self.log.windows();
        {
            let _span = obs::histogram!("service.window_commit_ns").timer();
            self.log.append(&self.pending)?;
        }
        let n = self.pending.len();
        obs::counter!("service.window_commits").incr();
        obs::counter!("service.windows_emitted").add(n as u64);
        self.emitted += n as u64;
        self.lines.append(&mut self.pending);
        let committed = &self.lines[self.lines.len() - n..];
        for (index, line) in (first..).zip(committed) {
            self.view.write(index, line.clone())?;
        }
        Ok(())
    }
}

/// Aggregate report of one service incarnation, from
/// [`MonitorService::finish`].
#[derive(Debug)]
pub struct ServiceReport {
    /// Windows appended to the log by *this* incarnation.
    pub windows_emitted: u64,
    /// Windows re-derived but suppressed (already in the log before this
    /// incarnation started).
    pub windows_skipped: u64,
    /// Entries appended through [`MonitorService::ingest`] this
    /// incarnation.
    pub entries_ingested: u64,
    /// Entries the tail decoded into the analysis, per monitor (includes
    /// the replay of pre-crash data after a restart).
    pub entries_analyzed: Vec<u64>,
    /// Entries dropped as late under [`LatePolicy::Drop`].
    pub late_dropped: u64,
    /// Peak simultaneously-open windows — the analysis memory bound.
    pub max_open_windows: usize,
    /// JSON lines of the windows sealed during [`MonitorService::finish`].
    pub lines: Vec<String>,
}

type ServiceSink = WindowedSink<
    ServiceWindowAccum,
    Box<dyn Fn(&WindowBounds) -> ServiceWindowAccum + Send + Sync>,
>;

/// The continuous monitoring service. See the [module docs](self).
pub struct MonitorService {
    writer: Option<DatasetWriter>,
    tail: DatasetTail,
    sink: Option<ServiceSink>,
    emit: Emitter,
    entries_ingested: u64,
}

impl MonitorService {
    /// Opens (or re-opens after a crash) the service over `dir` with real
    /// storage. Returns the service and the recovery report of the
    /// opening scan — [`RecoveryReport::resume`] tells the caller where
    /// each chain continues.
    pub fn open(
        dir: impl AsRef<Path>,
        monitor_labels: Vec<String>,
        config: ServiceConfig,
    ) -> Result<(Self, RecoveryReport), SegmentError> {
        Self::open_with(dir, monitor_labels, config, Arc::new(RealStorage))
    }

    /// [`MonitorService::open`] through an explicit [`Storage`] — the
    /// fault-injection seam the kill/restart soak test drives.
    pub fn open_with(
        dir: impl AsRef<Path>,
        monitor_labels: Vec<String>,
        config: ServiceConfig,
        storage: Arc<dyn Storage>,
    ) -> Result<(Self, RecoveryReport), SegmentError> {
        if config.top_k == 0 {
            return Err(SegmentError::InvalidConfig(
                "top_k must be at least 1".into(),
            ));
        }
        let dir = dir.as_ref();
        storage.create_dir_all(dir)?;
        let recovery = recover_dataset_with(dir, storage.as_ref())?;
        let (log, logged) = WindowLog::open(dir, Arc::clone(&storage))?;
        let window_dir = dir.join(WINDOW_DIR_NAME);
        storage.create_dir_all(&window_dir)?;
        let view = FileView::start(window_dir.clone())?;
        let skip_below = log.windows();
        let mut rebuilt = 0;
        for (index, line) in (0..).zip(logged) {
            let path = window_dir.join(window_file_name(index));
            if std::fs::read(path).ok().as_deref() != Some(line.as_bytes()) {
                view.write(index, line)?;
                rebuilt += 1;
            }
        }
        obs::counter!("service.window_files_rebuilt").add(rebuilt);

        let writer = if recovery.manifest.monitor_labels.is_empty() {
            DatasetWriter::create_with(
                dir,
                monitor_labels.clone(),
                config.dataset,
                Arc::clone(&storage),
            )?
        } else {
            if recovery.manifest.monitor_labels != monitor_labels {
                return Err(SegmentError::InvalidConfig(format!(
                    "service reopened with labels {:?} over a dataset of {:?}",
                    monitor_labels, recovery.manifest.monitor_labels
                )));
            }
            DatasetWriter::resume(
                dir,
                &recovery.manifest,
                config.dataset,
                Arc::clone(&storage),
            )?
        };
        let monitors = monitor_labels.len();
        let tail = DatasetTail::open(dir, monitors);
        let emit = Emitter {
            log,
            view,
            skip_below,
            next: 0,
            emitted: 0,
            skipped: 0,
            pending: Vec::new(),
            lines: Vec::new(),
        };
        let top_k = config.top_k;
        let factory: Box<dyn Fn(&WindowBounds) -> ServiceWindowAccum + Send + Sync> =
            Box::new(move |_| ServiceWindowAccum::new(top_k));
        let sink = WindowedSink::deferred(
            monitors,
            config.window,
            config.lateness,
            config.policy,
            factory,
        );
        obs::counter!("service.opens").incr();
        obs::gauge!("service.windows_durable").set(skip_below);
        Ok((
            Self {
                writer: Some(writer),
                tail,
                sink: Some(sink),
                emit,
                entries_ingested: 0,
            },
            recovery,
        ))
    }

    /// Appends one entry to the collection side (rotation and
    /// checkpointing per [`DatasetConfig`]). The entry becomes visible to
    /// the analysis once durable — at the next checkpoint or rotation.
    ///
    /// After the writer's first I/O error, this, [`MonitorService::checkpoint`]
    /// and [`MonitorService::finish`] return that error (the writer is
    /// ended; reopening the service recovers and resumes), while
    /// [`MonitorService::poll`] keeps serving the windows of what is durable.
    pub fn ingest(&mut self, entry: &TraceEntry) -> Result<(), SegmentError> {
        self.writer
            .as_mut()
            .expect("service already finished")
            .append(entry)?;
        self.entries_ingested += 1;
        Ok(())
    }

    /// Forces a checkpoint: everything ingested so far becomes durable
    /// and tail-visible.
    pub fn checkpoint(&mut self) -> Result<(), SegmentError> {
        self.writer
            .as_mut()
            .expect("service already finished")
            .checkpoint()?;
        Ok(())
    }

    /// Windows the log held when this incarnation opened.
    pub fn windows_durable_at_open(&self) -> u64 {
        self.emit.skip_below
    }

    /// Feeds the tail's new chunks to the sink, collecting the windows each
    /// chunk seals as soon as it is routed (their accumulators are dropped
    /// mid-poll, not after it), then commits the collected windows in one
    /// log append. Windows sealed before a tail error are committed before
    /// the error is returned.
    fn drain_tail(
        tail: &mut DatasetTail,
        sink: &mut ServiceSink,
        emit: &mut Emitter,
    ) -> Result<(), SegmentError> {
        let polled = tail.poll_chunks(|monitor, chunk| {
            sink.consume_chunk_rows(monitor, chunk);
            for result in sink.take_sealed() {
                emit.emit(result);
            }
        });
        emit.commit()?;
        polled.map(drop)
    }

    /// Drives the analysis forward: decodes every newly durable chunk
    /// frame into the windowed sink and returns the JSON lines of the
    /// windows sealed by this poll (suppressed replayed windows excluded),
    /// each already durable in the window log.
    ///
    /// Once the thread writing the window files has failed, returns its
    /// first error without polling.
    pub fn poll(&mut self) -> Result<Vec<String>, SegmentError> {
        self.emit.view.check()?;
        let sink = self.sink.as_mut().expect("service already finished");
        Self::drain_tail(&mut self.tail, sink, &mut self.emit)?;
        obs::counter!("service.polls").incr();
        Ok(std::mem::take(&mut self.emit.lines))
    }

    /// Finishes the incarnation cleanly: seals the dataset (manifest),
    /// drains the tail, seals every remaining window, waits for every window
    /// file to be written, and reports.
    pub fn finish(mut self) -> Result<ServiceReport, SegmentError> {
        let writer = self.writer.take().expect("service already finished");
        writer.finish()?;
        let mut sink = self.sink.take().expect("service already finished");
        Self::drain_tail(&mut self.tail, &mut sink, &mut self.emit)?;
        let windowed = sink.finish();
        for result in windowed.results {
            self.emit.emit(result);
        }
        self.emit.commit()?;
        self.emit.view.close()?;
        obs::gauge!("service.windows_durable").set(self.emit.skip_below + self.emit.emitted);
        Ok(ServiceReport {
            windows_emitted: self.emit.emitted,
            windows_skipped: self.emit.skipped,
            entries_ingested: self.entries_ingested,
            entries_analyzed: self.tail.entries_read(),
            late_dropped: windowed.late_dropped,
            max_open_windows: windowed.max_open_windows,
            lines: self.emit.lines,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EntryFlags;
    use crate::window_log::{push_frame, read_window_log, WINDOW_LOG_NAME};
    use ipfs_mon_simnet::time::SimTime;
    use ipfs_mon_tracestore::{FaultPlan, FaultyStorage, SegmentConfig};
    use ipfs_mon_types::{Country, Multiaddr, Multicodec, PeerId, Transport};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn entry(ms: u64, monitor: usize) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(4, ms % 7),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::De),
            request_type: if ms.is_multiple_of(3) {
                RequestType::WantBlock
            } else {
                RequestType::WantHave
            },
            cid: Cid::new_v1(Multicodec::Raw, &[(ms % 4) as u8]),
            monitor,
            flags: EntryFlags::default(),
        }
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            dataset: DatasetConfig {
                segment: SegmentConfig { chunk_capacity: 8 },
                rotate_after_entries: 40,
                checkpoint_after_entries: 16,
            },
            window: WindowSpec::tumbling(SimDuration::from_secs(1)),
            lateness: SimDuration::ZERO,
            policy: LatePolicy::Strict,
            top_k: 4,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("svc-{tag}-{}", std::process::id()))
    }

    #[test]
    fn service_emits_dense_window_files() {
        let dir = temp_dir("dense");
        std::fs::remove_dir_all(&dir).ok();
        let labels = vec!["us".to_string(), "de".to_string()];
        let (mut service, recovery) = MonitorService::open(&dir, labels, config()).unwrap();
        assert!(recovery.manifest.monitor_labels.is_empty());
        let mut lines = Vec::new();
        for i in 0..200u64 {
            for m in 0..2 {
                service.ingest(&entry(i * 40, m)).unwrap();
            }
            if i % 25 == 0 {
                lines.extend(service.poll().unwrap());
            }
        }
        let report = service.finish().unwrap();
        lines.extend(report.lines.iter().cloned());
        // 200 entries at 40 ms apart = just under 8 s of data = 8 windows.
        assert_eq!(report.windows_emitted, 8);
        assert_eq!(report.windows_skipped, 0);
        assert_eq!(report.entries_ingested, 400);
        assert_eq!(report.entries_analyzed, vec![200, 200]);
        assert_eq!(lines.len(), 8);
        assert_eq!(read_window_log(&dir).unwrap(), lines);
        assert_eq!(window_files(&dir), lines);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"index\":{i},")));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Feeds 100 entries 30 ms apart through one monitor (segments of 40
    /// entries) and checkpoints: the next poll seals windows 0 and 1 and
    /// commits them together.
    fn open_and_feed(dir: &Path, storage: FaultyStorage) -> MonitorService {
        let (mut service, _) =
            MonitorService::open_with(dir, vec!["solo".into()], config(), Arc::new(storage))
                .unwrap();
        for i in 0..100u64 {
            service.ingest(&entry(i * 30, 0)).unwrap();
        }
        service.checkpoint().unwrap();
        service
    }

    /// A tail error mid-poll does not strand the windows sealed before it:
    /// they are committed, then the error is returned, and their lines wait
    /// for the caller's next successful poll.
    #[test]
    fn windows_sealed_before_a_tail_error_are_committed_first() {
        let dir = temp_dir("tail-error");
        std::fs::remove_dir_all(&dir).ok();
        let mut service = open_and_feed(&dir, FaultyStorage::new(FaultPlan::none()));
        // The first segment alone seals window 0; the second one's header
        // is damaged.
        let second = dir.join("seg-000-00001.seg");
        let mut bytes = std::fs::read(&second).unwrap();
        bytes[..4].copy_from_slice(b"XXXX");
        std::fs::write(&second, bytes).unwrap();

        let err = service.poll().unwrap_err();
        assert!(matches!(err, SegmentError::Corrupt(_)), "{err}");
        assert_eq!(service.emit.emitted, 1);
        let logged = read_window_log(&dir).unwrap();
        assert_eq!(service.emit.lines, logged);
        assert_eq!(logged.len(), 1);
        drop(service);
        assert_eq!(window_files(&dir), logged);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The window files of `dir`, which must be exactly `win-0 .. win-n`,
    /// in index order.
    fn window_files(dir: &Path) -> Vec<String> {
        let window_dir = dir.join(WINDOW_DIR_NAME);
        let mut names: Vec<String> = std::fs::read_dir(&window_dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        let want: Vec<String> = (0..names.len() as u64).map(window_file_name).collect();
        assert_eq!(names, want);
        names
            .iter()
            .map(|name| std::fs::read_to_string(window_dir.join(name)).unwrap())
            .collect()
    }

    /// A log append that fails surfaces none of its lines — at whichever
    /// of its two operations the storage dies, cleanly or torn, what the
    /// log keeps is a prefix of the reference — and one that fails without
    /// killing the storage keeps its windows pending for the next poll, so
    /// each line is surfaced, logged and written to its file exactly once,
    /// in order.
    #[test]
    fn a_failed_commit_surfaces_no_line() {
        let dir = temp_dir("commit-ref");
        std::fs::remove_dir_all(&dir).ok();
        let counter = FaultyStorage::new(FaultPlan::none());
        let mut service = open_and_feed(&dir, counter.clone());
        let before = counter.ops();
        let reference = service.poll().unwrap();
        assert_eq!(reference.len(), 2, "want a two-window commit");
        let commit_ops = before..counter.ops();
        assert_eq!(commit_ops.end - commit_ops.start, 2, "one write, one fsync");
        let mut reference_all = reference.clone();
        reference_all.extend(service.finish().unwrap().lines);
        std::fs::remove_dir_all(&dir).ok();

        for k in commit_ops.clone() {
            for (mode, plan) in [
                ("clean", FaultPlan::crash_at(k)),
                ("torn", FaultPlan::torn_at(k, k)),
            ] {
                let dir = temp_dir(&format!("commit-crash-{mode}-{k}"));
                std::fs::remove_dir_all(&dir).ok();
                let mut service = open_and_feed(&dir, FaultyStorage::new(plan));
                assert!(service.poll().is_err(), "{mode} crash at op {k}");
                assert!(service.emit.lines.is_empty(), "{mode} crash at op {k}");
                assert_eq!(service.emit.emitted, 0);
                assert!(service.poll().is_err() && service.emit.lines.is_empty());
                drop(service);
                let logged = read_window_log(&dir).unwrap();
                assert!(reference_all.starts_with(&logged), "{mode} crash at op {k}");
                std::fs::remove_dir_all(&dir).ok();
            }
        }

        for k in commit_ops {
            let dir = temp_dir(&format!("commit-enospc-{k}"));
            std::fs::remove_dir_all(&dir).ok();
            let mut service = open_and_feed(
                &dir,
                FaultyStorage::new(FaultPlan {
                    enospc_at_op: Some(k),
                    ..FaultPlan::default()
                }),
            );
            let err = service.poll().unwrap_err();
            assert!(
                matches!(&err, SegmentError::Io(e) if e.raw_os_error() == Some(28)),
                "{err}"
            );
            assert!(service.emit.lines.is_empty());
            let mut lines = service.poll().unwrap();
            assert_eq!(
                lines, reference,
                "ENOSPC at op {k}: the retried append surfaces the batch once"
            );
            lines.extend(service.finish().unwrap().lines);
            assert_eq!(lines, reference_all);
            assert_eq!(
                read_window_log(&dir).unwrap(),
                reference_all,
                "ENOSPC at op {k}"
            );
            assert_eq!(window_files(&dir), reference_all, "ENOSPC at op {k}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Copies the files of `from` (and of its `windows/`) into a fresh `to`.
    fn copy_dataset(from: &Path, to: &Path) {
        std::fs::remove_dir_all(to).ok();
        for sub in ["", WINDOW_DIR_NAME] {
            std::fs::create_dir_all(to.join(sub)).unwrap();
            for entry in std::fs::read_dir(from.join(sub)).unwrap() {
                let entry = entry.unwrap();
                if entry.file_type().unwrap().is_file() {
                    std::fs::copy(entry.path(), to.join(sub).join(entry.file_name())).unwrap();
                }
            }
        }
    }

    /// A torn window log: the service dies at the fsync of its last append,
    /// whose frames are all written, and the log's last frame is then cut
    /// at every length and has every line byte flipped under a re-fixed
    /// CRC. The next incarnation keeps the longest valid prefix — what
    /// [`read_window_log`] drains for the dead one — so the lines
    /// concatenated across the two incarnations are the reference's, the
    /// log ends up holding them and every file is byte-exact. A flip that
    /// leaves the line UTF-8 makes a well-formed frame (its CRC is right):
    /// the new incarnation keeps it as window `n - 1`, appends nothing for
    /// it, and its file follows the log.
    #[test]
    fn a_torn_window_log_keeps_its_longest_valid_prefix() {
        let dir = temp_dir("torn-log-ref");
        std::fs::remove_dir_all(&dir).ok();
        let counter = FaultyStorage::new(FaultPlan::none());
        let mut service = open_and_feed(&dir, counter.clone());
        let mut reference = service.poll().unwrap();
        reference.extend(service.finish().unwrap().lines);
        let last_fsync = counter.ops() - 1;
        std::fs::remove_dir_all(&dir).ok();

        // The dead incarnation: its finish appends the last windows and dies
        // at their fsync.
        let crashed = temp_dir("torn-log-crashed");
        std::fs::remove_dir_all(&crashed).ok();
        let mut service = open_and_feed(
            &crashed,
            FaultyStorage::new(FaultPlan::crash_at(last_fsync)),
        );
        let surfaced = service.poll().unwrap();
        assert!(service.finish().is_err());
        assert!(
            surfaced.len() < reference.len(),
            "want an unsurfaced append"
        );
        let log_path = crashed.join(WINDOW_LOG_NAME);
        let log = std::fs::read(&log_path).unwrap();
        let mut frames = Vec::new();
        for (index, line) in (0..).zip(&reference) {
            push_frame(index, line.as_bytes(), &mut frames);
        }
        assert_eq!(log, frames, "every frame written, none synced");
        let last = reference.len() - 1;
        let mut head = Vec::new();
        for (index, line) in (0..).zip(&reference[..last]) {
            push_frame(index, line.as_bytes(), &mut head);
        }
        let mut damaged_logs: Vec<(String, Vec<u8>)> = (head.len()..log.len())
            .map(|cut| (format!("cut at {cut}"), log[..cut].to_vec()))
            .collect();
        for at in 0..reference[last].len() {
            for mask in [0x01u8, 0x80] {
                let mut line = reference[last].clone().into_bytes();
                line[at] ^= mask;
                // The frame's CRC is computed over the flipped line.
                let mut damaged = head.clone();
                push_frame(last as u64, &line, &mut damaged);
                damaged_logs.push((format!("line byte {at} ^ {mask:#x}"), damaged));
            }
        }

        let mut kept_forged = 0;
        for (case, damaged) in damaged_logs {
            let dir = temp_dir("torn-log-case");
            copy_dataset(&crashed, &dir);
            std::fs::write(dir.join(WINDOW_LOG_NAME), &damaged).unwrap();
            // The dead incarnation's drain, then the next incarnation.
            let mut lines = surfaced.clone();
            let drained = read_window_log(&dir).unwrap();
            lines.extend(drained[surfaced.len()..].iter().cloned());
            let (service, _) = MonitorService::open(&dir, vec!["solo".into()], config()).unwrap();
            assert_eq!(
                service.windows_durable_at_open(),
                drained.len() as u64,
                "{case}"
            );
            lines.extend(service.finish().unwrap().lines);
            let mut want = reference.clone();
            if drained.len() == reference.len() {
                kept_forged += 1;
                assert_ne!(drained[last], reference[last], "{case}");
                want[last] = drained[last].clone();
            } else {
                assert_eq!(drained.len(), last, "{case}");
            }
            assert_eq!(lines, want, "{case}");
            assert_eq!(read_window_log(&dir).unwrap(), want, "{case}");
            assert_eq!(window_files(&dir), want, "{case}");
            std::fs::remove_dir_all(&dir).ok();
        }
        assert_eq!(kept_forged, reference[last].len(), "only the UTF-8 flips");
        std::fs::remove_dir_all(&crashed).ok();
    }

    /// Window files deleted, truncated or overwritten between incarnations
    /// are rewritten byte-exact from the log when the service opens.
    #[test]
    fn window_log_rebuilds_damaged_window_files_at_open() {
        let dir = temp_dir("rebuild");
        std::fs::remove_dir_all(&dir).ok();
        let mut service = open_and_feed(&dir, FaultyStorage::new(FaultPlan::none()));
        let mut lines = service.poll().unwrap();
        lines.extend(service.finish().unwrap().lines);
        assert!(lines.len() >= 3, "{} windows", lines.len());
        let file = |i: u64| dir.join(WINDOW_DIR_NAME).join(window_file_name(i));
        std::fs::remove_file(file(0)).unwrap();
        std::fs::write(file(1), &lines[1][..lines[1].len() / 2]).unwrap();
        std::fs::write(file(2), lines[2].replace("index", "INDEX")).unwrap();
        let (service, _) = MonitorService::open(&dir, vec!["solo".into()], config()).unwrap();
        assert_eq!(
            service.finish().unwrap().windows_skipped,
            lines.len() as u64
        );
        assert_eq!(window_files(&dir), lines);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The file view's helper fails on a directory squatting on a window
    /// file's name: `finish` returns its I/O error, and the log has the
    /// window all the same.
    #[test]
    fn window_log_view_error_is_returned_by_finish() {
        let dir = temp_dir("squat");
        std::fs::remove_dir_all(&dir).ok();
        let (mut service, _) = MonitorService::open(&dir, vec!["solo".into()], config()).unwrap();
        std::fs::create_dir(dir.join(WINDOW_DIR_NAME).join(window_file_name(0))).unwrap();
        for i in 0..100u64 {
            service.ingest(&entry(i * 30, 0)).unwrap();
        }
        let err = service.finish().unwrap_err();
        assert!(matches!(err, SegmentError::Io(_)), "{err}");
        assert!(err.to_string().contains(&window_file_name(0)), "{err}");
        assert!(!read_window_log(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A directory whose window files have no log beside them is refused
    /// whole.
    #[test]
    fn window_files_without_a_window_log_are_refused() {
        let dir = temp_dir("no-log");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join(WINDOW_DIR_NAME)).unwrap();
        std::fs::write(dir.join(WINDOW_DIR_NAME).join(window_file_name(0)), "{}").unwrap();
        let err = MonitorService::open(&dir, vec!["solo".into()], config())
            .err()
            .expect("window files without a log must be refused");
        assert!(matches!(err, SegmentError::UnsupportedLayout(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopening_a_finished_service_skips_all_windows() {
        let dir = temp_dir("reopen");
        std::fs::remove_dir_all(&dir).ok();
        let labels = vec!["solo".to_string()];
        let (mut service, _) = MonitorService::open(&dir, labels.clone(), config()).unwrap();
        for i in 0..100u64 {
            service.ingest(&entry(i * 30, 0)).unwrap();
        }
        let first = service.finish().unwrap();
        assert!(first.windows_emitted > 0);

        // Reopen over the finished dataset: everything replays, nothing
        // is re-written, and no new windows appear.
        let (service, recovery) = MonitorService::open(&dir, labels, config()).unwrap();
        assert_eq!(recovery.manifest.total_entries(), 100);
        assert_eq!(service.windows_durable_at_open(), first.windows_emitted);
        let report = service.finish().unwrap();
        assert_eq!(report.windows_emitted, 0);
        assert_eq!(report.windows_skipped, first.windows_emitted);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_top_k_is_refused_at_open() {
        let dir = temp_dir("zero-top-k");
        std::fs::remove_dir_all(&dir).ok();
        let config = ServiceConfig {
            top_k: 0,
            ..config()
        };
        let err = MonitorService::open(&dir, vec!["solo".into()], config)
            .err()
            .expect("top_k 0 must be refused");
        assert!(matches!(err, SegmentError::InvalidConfig(_)), "{err}");
        assert!(!dir.exists(), "a refused config touches nothing");
    }

    fn cid(byte: u8) -> Cid {
        Cid::new_v1(Multicodec::Raw, &[byte])
    }

    /// One entry of `chain` at `ms` for `cid(cid_byte)`; `kind` 0, 1 and 2
    /// are `WANT_HAVE`, `WANT_BLOCK` and `CANCEL`.
    fn request(ms: u64, chain: usize, cid_byte: u8, kind: u8) -> TraceEntry {
        TraceEntry {
            request_type: match kind {
                0 => RequestType::WantHave,
                1 => RequestType::WantBlock,
                _ => RequestType::Cancel,
            },
            cid: cid(cid_byte),
            ..entry(ms, chain)
        }
    }

    const WINDOW_MS: u64 = 1_000;

    /// Runs `feed` through the service's windowed analysis (1 s tumbling
    /// windows, no lateness) and returns every sealed window.
    fn sealed_windows(
        monitors: usize,
        top_k: usize,
        feed: impl IntoIterator<Item = TraceEntry>,
    ) -> Vec<WindowResult<WindowSummary>> {
        let mut sink = WindowedSink::deferred(
            monitors,
            WindowSpec::tumbling(SimDuration::from_millis(WINDOW_MS)),
            SimDuration::ZERO,
            LatePolicy::Strict,
            move |_: &WindowBounds| ServiceWindowAccum::new(top_k),
        );
        let mut sealed = Vec::new();
        for entry in feed {
            sink.consume(entry);
            sealed.extend(sink.take_sealed());
        }
        sealed.extend(sink.finish().results);
        sealed
    }

    /// Per-chain steps `(gap_ms, cid, kind)`: up to about 60 entries per
    /// chain and window over 32 CIDs, so a window holds more distinct CIDs
    /// than `top_k` and request counts tie often, across the cut too.
    type ChainSteps = Vec<Vec<(u64, u8, u8)>>;

    fn arb_chain_steps() -> impl Strategy<Value = ChainSteps> {
        proptest::collection::vec(
            proptest::collection::vec((0u64..32, 0u8..32, 0u8..3), 0..160),
            1..4,
        )
    }

    /// Each chain's entries, in timestamp order.
    fn chains_of(steps: ChainSteps) -> Vec<Vec<TraceEntry>> {
        steps
            .into_iter()
            .enumerate()
            .map(|(chain, steps)| {
                let mut ms = 0;
                steps
                    .into_iter()
                    .map(|(gap, cid_byte, kind)| {
                        ms += gap;
                        request(ms, chain, cid_byte, kind)
                    })
                    .collect()
            })
            .collect()
    }

    /// The chains merged in an arbitrary order that keeps each chain's own:
    /// each pick chooses among the chains not yet drained.
    fn interleave(chains: &[Vec<TraceEntry>], picks: &[usize]) -> Vec<TraceEntry> {
        let mut next = vec![0; chains.len()];
        let mut merged = Vec::new();
        let mut picks = picks.iter().cycle();
        loop {
            let open: Vec<usize> = (0..chains.len())
                .filter(|&c| next[c] < chains[c].len())
                .collect();
            if open.is_empty() {
                return merged;
            }
            let chain = open[picks.next().unwrap() % open.len()];
            merged.push(chains[chain][next[chain]].clone());
            next[chain] += 1;
        }
    }

    #[test]
    fn top_cids_break_ties_at_the_cut_by_cid() {
        let mut feed = Vec::new();
        for (byte, requests) in [(9u8, 3), (4, 2), (7, 2), (2, 2), (5, 1)] {
            feed.extend((0..requests).map(|i| request(i, 0, byte, (i % 2) as u8)));
        }
        feed.push(request(5, 0, 5, 2));
        let windows = sealed_windows(1, 3, feed);
        assert_eq!(windows.len(), 1);
        let mut tied = [cid(4), cid(7), cid(2)];
        tied.sort();
        assert_eq!(
            windows[0].output.top_cids,
            vec![(cid(9), 3), (tied[0].clone(), 2), (tied[1].clone(), 2)]
        );
        assert!(format_window_line(&windows[0])
            .ends_with(&format!("\"top_cids\":[{{\"cid\":\"{}\",\"count\":3}},{{\"cid\":\"{}\",\"count\":2}},{{\"cid\":\"{}\",\"count\":2}}]}}", cid(9), tied[0], tied[1])));
    }

    proptest! {
        /// Every window's `top_cids` is a brute-force count of its
        /// requests, ranked by count descending then CID, cut at `top_k`;
        /// its request-type totals are the window's too.
        #[test]
        fn top_cids_equal_a_brute_force_count(
            steps in arb_chain_steps(),
            picks in proptest::collection::vec(0usize..3, 1..16),
            top_k in 1usize..12,
        ) {
            let chains = chains_of(steps);
            let feed = interleave(&chains, &picks);
            let windows = sealed_windows(chains.len(), top_k, feed.clone());
            for window in &windows {
                let index = window.bounds.index;
                let in_window: Vec<&TraceEntry> = feed
                    .iter()
                    .filter(|e| e.timestamp.as_millis() / WINDOW_MS == index)
                    .collect();
                let mut counts = BTreeMap::<Cid, u64>::new();
                for e in in_window.iter().filter(|e| e.is_request()) {
                    *counts.entry(e.cid.clone()).or_default() += 1;
                }
                let mut want: Vec<(Cid, u64)> = counts.into_iter().collect();
                want.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                want.truncate(top_k);
                prop_assert_eq!(&window.output.top_cids, &want, "window {}", index);
                let of = |kind| in_window.iter().filter(|e| e.request_type == kind).count() as u64;
                prop_assert_eq!(window.output.want_have, of(RequestType::WantHave));
                prop_assert_eq!(window.output.want_block, of(RequestType::WantBlock));
                prop_assert_eq!(window.output.cancel, of(RequestType::Cancel));
            }
        }

        /// Windows fed the tail's chunks through
        /// [`WindowedSink::consume_chunk_rows`] — the service's path, counting
        /// CIDs per dictionary index — seal the lines that `consume` over the
        /// same rows seals, chunk for chunk.
        #[test]
        fn chunk_rows_seal_the_lines_entries_seal(
            steps in arb_chain_steps(),
            chunk_capacity in 1usize..40,
            top_k in 1usize..12,
        ) {
            let chains = chains_of(steps);
            let dir = temp_dir("chunk-rows");
            std::fs::remove_dir_all(&dir).ok();
            let labels = (0..chains.len()).map(|chain| chain.to_string()).collect();
            let dataset = DatasetConfig {
                segment: SegmentConfig { chunk_capacity },
                ..DatasetConfig::default()
            };
            let mut writer = DatasetWriter::create(&dir, labels, dataset).unwrap();
            for entry in chains.concat() {
                writer.append(&entry).unwrap();
            }
            writer.finish().unwrap();
            let sink = || {
                WindowedSink::deferred(
                    chains.len(),
                    WindowSpec::tumbling(SimDuration::from_millis(WINDOW_MS)),
                    SimDuration::ZERO,
                    LatePolicy::Strict,
                    move |_: &WindowBounds| ServiceWindowAccum::new(top_k),
                )
            };
            let (mut by_rows, mut by_entries) = (sink(), sink());
            let lines = |sealed: Vec<WindowResult<WindowSummary>>| -> Vec<String> {
                sealed.iter().map(format_window_line).collect()
            };
            let mut tail = DatasetTail::open(&dir, chains.len());
            let mut batches = Vec::new();
            tail.poll_chunks(|monitor, chunk| {
                by_rows.consume_chunk_rows(monitor, chunk);
                for j in 0..chunk.len() {
                    let mut entry = chunk.entry(j);
                    entry.monitor = monitor;
                    by_entries.consume(entry);
                }
                batches.push((lines(by_rows.take_sealed()), lines(by_entries.take_sealed())));
            })
            .unwrap();
            std::fs::remove_dir_all(&dir).ok();
            for (by_rows, by_entries) in batches {
                prop_assert_eq!(by_rows, by_entries);
            }
            prop_assert_eq!(lines(by_rows.finish().results), lines(by_entries.finish().results));
        }

        /// The same entries fed chain by chain — as a restart replays them —
        /// and interleaved — as live polls deliver them — seal byte-identical
        /// window lines.
        #[test]
        fn chain_by_chain_and_interleaved_feeds_seal_identical_lines(
            steps in arb_chain_steps(),
            picks in proptest::collection::vec(0usize..3, 1..16),
            top_k in 1usize..12,
        ) {
            let chains = chains_of(steps);
            let lines = |feed: Vec<TraceEntry>| -> Vec<String> {
                sealed_windows(chains.len(), top_k, feed)
                    .iter()
                    .map(format_window_line)
                    .collect()
            };
            let chain_by_chain = lines(chains.concat());
            let interleaved = lines(interleave(&chains, &picks));
            prop_assert_eq!(chain_by_chain, interleaved);
        }
    }
}
