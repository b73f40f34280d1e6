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
//! Every sealed window is written as its own durable file
//! (`windows/win-<index>.json`). The windows one poll seals are made durable
//! together, in one group commit ([`write_files_durable`]): each file is
//! staged as a `.tmp`, written and fsynced; then the staged files are renamed
//! *in index order*; then `windows/` is fsynced once. Only after that fsync
//! do their lines join what [`MonitorService::poll`] returns. That makes the
//! window directory itself the restart state:
//!
//! * after a crash, the files present start with a dense prefix
//!   `win-0 .. win-(n-1)`. A process kill mid-commit leaves a prefix of the
//!   batch renamed; a power loss before the directory fsync may lose any
//!   subset of the batch's renames, which can leave a gap. Either way no
//!   line of that batch was returned yet;
//! * on restart the service counts the dense prefix, replays the recovered
//!   chains through a fresh windowed sink, and *suppresses* the first `n`
//!   sealed windows instead of re-writing them — no duplicates;
//! * the replay re-derives window `n` and everything after it (overwriting
//!   any file past a gap) from exactly the bytes that survived the crash —
//!   no gaps. The tail only ever feeds *durable* bytes to the sink, so a
//!   window sealed before the crash was computed from data that is still
//!   there after it.
//!
//! Re-derived windows are bit-identical to the pre-crash ones as long as
//! the lateness allowance covers each chain's arrival disorder (zero for
//! the in-order collectors); the `service_soak` integration test
//! kill/restarts the service at sampled storage operations, and at every
//! operation of a multi-window commit, and asserts the concatenated output
//! equals a fault-free run's, byte for byte.
//!
//! [`ResumeCursor`]: ipfs_mon_tracestore::recover::ResumeCursor

use crate::popularity::rank_top_k;
use crate::trace::TraceEntry;
use ipfs_mon_bitswap::RequestType;
use ipfs_mon_obs as obs;
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_tracestore::fault::write_files_durable;
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
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Name of the window-output directory inside the dataset directory.
pub const WINDOW_DIR_NAME: &str = "windows";

/// File name of sealed window `index`.
pub fn window_file_name(index: u64) -> String {
    format!("win-{index:08}.json")
}

/// Inverse of [`window_file_name`].
fn parse_window_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("win-")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

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

/// The window emitter: collects the windows one drain seals, makes them
/// durable in one group commit, and suppresses windows a previous
/// incarnation already emitted.
struct Emitter {
    storage: Arc<dyn Storage>,
    window_dir: PathBuf,
    /// Windows `0..skip_below` are already durable from a previous run:
    /// re-derived, verified dense, but not re-written.
    skip_below: u64,
    /// Next window index expected from the sink (sealing is dense).
    next: u64,
    emitted: u64,
    skipped: u64,
    /// Sealed windows not yet durable, in index order: `(file, line)`.
    pending: Vec<(PathBuf, String)>,
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
        let path = self.window_dir.join(window_file_name(index));
        self.pending.push((path, format_window_line(&result)));
    }

    /// Makes every pending window durable in one group commit, then hands
    /// its lines to the caller. On error nothing pending is surfaced; it
    /// stays pending, in order.
    fn commit(&mut self) -> Result<(), SegmentError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        {
            let _span = obs::histogram!("service.window_commit_ns").timer();
            write_files_durable(self.storage.as_ref(), &self.pending)?;
        }
        obs::counter!("service.window_commits").incr();
        obs::counter!("service.windows_emitted").add(self.pending.len() as u64);
        self.emitted += self.pending.len() as u64;
        self.lines
            .extend(self.pending.drain(..).map(|(_, line)| line));
        Ok(())
    }
}

/// Aggregate report of one service incarnation, from
/// [`MonitorService::finish`].
#[derive(Debug)]
pub struct ServiceReport {
    /// Windows written durably by *this* incarnation.
    pub windows_emitted: u64,
    /// Windows re-derived but suppressed (already durable before this
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
        let window_dir = dir.join(WINDOW_DIR_NAME);
        storage.create_dir_all(&window_dir)?;
        let skip_below = sweep_window_dir(&window_dir, storage.as_ref())?;

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
            storage,
            window_dir,
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

    /// Windows already durable when this incarnation opened.
    pub fn windows_durable_at_open(&self) -> u64 {
        self.emit.skip_below
    }

    /// Feeds the tail's new chunks to the sink, collecting the windows each
    /// chunk seals as soon as it is routed (their accumulators are dropped
    /// mid-poll, not after it), then commits the collected windows in one
    /// group commit. Windows sealed before a tail error are committed before
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
    /// each already durable in `windows/`.
    pub fn poll(&mut self) -> Result<Vec<String>, SegmentError> {
        let sink = self.sink.as_mut().expect("service already finished");
        Self::drain_tail(&mut self.tail, sink, &mut self.emit)?;
        obs::counter!("service.polls").incr();
        Ok(std::mem::take(&mut self.emit.lines))
    }

    /// Finishes the incarnation cleanly: seals the dataset (manifest),
    /// drains the tail, seals every remaining window, and reports.
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

/// Scans the window directory: sweeps stale durable-write temp files and
/// returns the length of the dense `win-0..n` prefix already present —
/// the windows a previous incarnation made durable.
fn sweep_window_dir(window_dir: &Path, storage: &dyn Storage) -> Result<u64, SegmentError> {
    let mut indexes = Vec::new();
    for entry in std::fs::read_dir(window_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            storage.remove_file(&entry.path())?;
            continue;
        }
        indexes.extend(parse_window_file_name(name));
    }
    indexes.sort_unstable();
    // Dense prefix: a group commit renames in index order, so a killed
    // process leaves no gap, but a power loss before the commit's directory
    // fsync can drop any of its renames (and so can external tampering).
    // None of that batch's lines was surfaced: everything past the first
    // gap is re-derived (and overwritten) rather than trusted.
    let mut dense = 0u64;
    for index in indexes {
        if index == dense {
            dense += 1;
        } else {
            break;
        }
    }
    Ok(dense)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EntryFlags;
    use ipfs_mon_simnet::time::SimTime;
    use ipfs_mon_tracestore::{FaultPlan, FaultyStorage, SegmentConfig};
    use ipfs_mon_types::{Country, Multiaddr, Multicodec, PeerId, Transport};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"index\":{i},")));
            let on_disk =
                std::fs::read_to_string(dir.join(WINDOW_DIR_NAME).join(window_file_name(i as u64)))
                    .unwrap();
            assert_eq!(&on_disk, line);
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
        let window_dir = dir.join(WINDOW_DIR_NAME);
        let names: Vec<String> = std::fs::read_dir(&window_dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec![window_file_name(0)]);
        assert_eq!(service.emit.emitted, 1);
        let on_disk = std::fs::read_to_string(window_dir.join(window_file_name(0))).unwrap();
        assert_eq!(service.emit.lines, vec![on_disk]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A group commit that fails surfaces none of its lines — at whichever
    /// of its operations the storage dies — and one that fails without
    /// killing the storage keeps its windows pending for the next poll, so
    /// each line is still surfaced exactly once, in order.
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
        assert_eq!(commit_ops.end - commit_ops.start, 3 * 2 + 2 + 1);
        let mut reference_all = reference.clone();
        reference_all.extend(service.finish().unwrap().lines);
        std::fs::remove_dir_all(&dir).ok();

        for k in commit_ops.clone() {
            let dir = temp_dir(&format!("commit-crash-{k}"));
            std::fs::remove_dir_all(&dir).ok();
            let mut service = open_and_feed(&dir, FaultyStorage::new(FaultPlan::crash_at(k)));
            assert!(service.poll().is_err(), "crash at op {k}");
            assert!(service.emit.lines.is_empty(), "crash at op {k}");
            assert_eq!(service.emit.emitted, 0);
            assert!(service.poll().is_err() && service.emit.lines.is_empty());
            std::fs::remove_dir_all(&dir).ok();
        }

        let dir = temp_dir("commit-enospc");
        std::fs::remove_dir_all(&dir).ok();
        let mut service = open_and_feed(
            &dir,
            FaultyStorage::new(FaultPlan {
                enospc_at_op: Some(commit_ops.start + 1),
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
            "the retried commit surfaces the batch once"
        );
        lines.extend(service.finish().unwrap().lines);
        assert_eq!(lines, reference_all);
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
