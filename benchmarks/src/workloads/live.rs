//! Driving `MonitorService` the way both live workloads do: ingest entry by
//! entry, `checkpoint()` + `poll()` every `CHECKPOINT_EVERY` entries, time
//! every surfaced window against the moment it became sealable, and check
//! the durable windows against the benchmark's own counts afterwards.

use crate::feed::{WindowCounts, WindowOracle};
use crate::host;
use crate::json;
use crate::run::{Ctx, Segments, Tally};
use crate::storage::{CountingStorage, StorageCounts};
use crate::surface::{
    service_config, window_file_name, MonitorService, RecoveryReport, SegmentError, ServiceReport,
    TraceEntry, CHECKPOINT_EVERY, LATENESS, WINDOW, WINDOW_DIR_NAME,
};
use crate::trace::{SpanId, Tracer};
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

pub const MONITORS: usize = 2;
/// Ingested entries per segment of the repetition's clock (a whole fraction
/// of `CHECKPOINT_EVERY`; each checkpoint and each poll is a segment too).
const SEGMENT: u64 = 2_048;

pub fn labels() -> Vec<String> {
    vec!["us".into(), "de".into()]
}

/// Opens the service over `dir`: through `RealStorage` as the program does
/// by default, or through the counting storage in a traced repetition.
pub fn open_service(
    dir: &Path,
    counts: Option<&Arc<StorageCounts>>,
) -> Result<(MonitorService, RecoveryReport), SegmentError> {
    match counts {
        None => MonitorService::open(dir, labels(), service_config()),
        Some(counts) => MonitorService::open_with(
            dir,
            labels(),
            service_config(),
            Arc::new(CountingStorage {
                counts: Arc::clone(counts),
            }),
        ),
    }
}

/// What one repetition accumulates while the service is fed, across the
/// incarnations of the service.
pub struct RepState {
    pub oracle: WindowOracle,
    pub latencies_ms: Vec<f64>,
    pub segments: Segments,
}

impl RepState {
    /// Starts the repetition's clock.
    pub fn start() -> Self {
        Self {
            oracle: WindowOracle::new(MONITORS, WINDOW, LATENESS),
            latencies_ms: Vec::new(),
            segments: Segments::start(),
        }
    }
}

/// One incarnation of the service being fed.
pub struct LiveFeed<'a> {
    service: MonitorService,
    state: &'a mut RepState,
    tracer: &'a mut Tracer,
    since_checkpoint: u64,
    /// Per-call `ingest` time since the last checkpoint (traced only).
    ingest_busy_ns: u64,
    interval_start_ns: u64,
    pub ingested: u64,
    pub polls: u64,
    pub error: Option<SegmentError>,
}

impl<'a> LiveFeed<'a> {
    pub fn new(service: MonitorService, state: &'a mut RepState, tracer: &'a mut Tracer) -> Self {
        let interval_start_ns = tracer.clock_ns();
        Self {
            service,
            state,
            tracer,
            since_checkpoint: 0,
            ingest_busy_ns: 0,
            interval_start_ns,
            ingested: 0,
            polls: 0,
            error: None,
        }
    }

    /// Ingests one entry. `first_time` is false for an entry fed again
    /// after a crash lost it: the oracle has counted it already.
    pub fn feed(&mut self, entry: &TraceEntry, first_time: bool) {
        if self.error.is_some() {
            return;
        }
        let result = if self.tracer.enabled() {
            let start = Instant::now();
            let result = self.service.ingest(entry);
            self.ingest_busy_ns += start.elapsed().as_nanos() as u64;
            result
        } else {
            self.service.ingest(entry)
        };
        if let Err(error) = result {
            self.error = Some(error);
            return;
        }
        self.ingested += 1;
        if first_time {
            let oracle = &mut self.state.oracle;
            oracle.observe(entry.monitor, entry.timestamp, entry.request_type);
        }
        self.since_checkpoint += 1;
        if self.since_checkpoint.is_multiple_of(SEGMENT) {
            self.state.segments.cut();
            if self.since_checkpoint == CHECKPOINT_EVERY {
                self.checkpoint_and_poll();
            }
        }
    }

    fn close_ingest_interval(&mut self) {
        self.tracer.aggregate(
            "core.service.ingest",
            self.interval_start_ns,
            self.ingest_busy_ns,
            self.since_checkpoint,
        );
        self.ingest_busy_ns = 0;
        self.since_checkpoint = 0;
    }

    fn checkpoint_and_poll(&mut self) {
        self.close_ingest_interval();
        let span = self.tracer.begin("core.service.checkpoint");
        let checkpointed = self.service.checkpoint();
        self.tracer.end(span);
        self.state.segments.cut();
        if let Err(error) = checkpointed {
            self.error = Some(error);
            return;
        }
        self.poll("core.service.poll", true);
        self.state.segments.cut();
        self.interval_start_ns = self.tracer.clock_ns();
    }

    /// One `poll`; with `live`, every window it surfaces yields an answer
    /// latency sample (the replay after a restart passes `false`).
    pub fn poll(&mut self, span_name: &'static str, live: bool) {
        let span = self.tracer.begin(span_name);
        let polled = self.service.poll();
        self.tracer.end(span);
        let surfaced_at = Instant::now();
        self.polls += 1;
        match polled {
            Err(error) => self.error = Some(error),
            Ok(lines) => {
                for line in &lines {
                    let sample = window_index(line)
                        .and_then(|index| self.state.oracle.surfaced(index, surfaced_at));
                    if let (true, Some(ms)) = (live, sample) {
                        self.state.latencies_ms.push(ms);
                    }
                }
            }
        }
    }

    /// Closes `span`, which the caller opened around the calls to
    /// [`LiveFeed::feed`] (the tracer is lent to the feed meanwhile).
    pub fn end_span(&mut self, span: SpanId) {
        self.close_ingest_interval();
        self.tracer.end(span);
    }

    pub fn tracer(&mut self) -> &mut Tracer {
        self.tracer
    }

    /// Ends the current segment of the repetition's clock.
    pub fn cut_segment(&mut self) {
        self.state.segments.cut();
    }

    /// The crash: the service goes away without `finish`. Whatever was
    /// ingested since the last checkpoint was never made durable.
    pub fn crash(mut self) -> Option<SegmentError> {
        self.close_ingest_interval();
        self.state.oracle.forget_pending();
        self.state.segments.cut();
        self.error.take()
    }

    /// `finish`, as a span.
    pub fn finish(mut self) -> Result<ServiceReport, SegmentError> {
        self.close_ingest_interval();
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        let span = self.tracer.begin("core.service.finish");
        let report = self.service.finish();
        self.tracer.end(span);
        report
    }
}

/// `index` of a window line (`{"index":N,...`).
fn window_index(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"index\":")?;
    rest[..rest.find(',')?].parse().ok()
}

/// The output checks of a finished live run, and its `bytes_per_entry`.
/// Every durable window must be present (`win-0..n`, dense) and say what the
/// oracle counted from the entries fed; nothing may have been dropped as
/// late; everything fed must have been analysed.
pub fn check_finished(
    tally: &mut Tally,
    dir: &Path,
    oracle: &WindowOracle,
    report: &ServiceReport,
) -> f64 {
    tally.check_eq("late_dropped", report.late_dropped, 0);
    tally.check_eq(
        "entries analysed == entries fed",
        report.entries_analyzed.iter().sum::<u64>(),
        oracle.total(),
    );
    let window_dir = dir.join(WINDOW_DIR_NAME);
    let files = std::fs::read_dir(&window_dir).map_or(0, |entries| entries.count());
    tally.check_eq("window files", files, oracle.counts().len());
    for (index, want) in oracle.counts().iter().enumerate() {
        let path = window_dir.join(window_file_name(index as u64));
        let got = json::read_file(&path).ok().and_then(|line| {
            let field = |name| json::get(&line, name).and_then(|v| v.as_u64());
            (field("index") == Some(index as u64)
                && field("start_ms") == Some(index as u64 * WINDOW.as_millis()))
            .then_some(WindowCounts {
                entries: field("entries")?,
                want_have: field("want_have")?,
                want_block: field("want_block")?,
                cancel: field("cancel")?,
            })
        });
        tally.check(got == Some(*want), || {
            format!("window {index}: file says {got:?}, fed {want:?}")
        });
    }
    host::dir_bytes(dir).unwrap_or(0) as f64 / oracle.total().max(1) as f64
}

/// Layer metrics from the storage counters of the traced repetitions.
pub fn storage_layers(counts: &StorageCounts, traced_reps: u64, layers: &mut crate::run::Layers) {
    let per_rep = |total: u64| total as f64 / traced_reps.max(1) as f64;
    for (name, value) in [
        ("fsyncs", per_rep(counts.fsyncs.load(Relaxed))),
        ("fsync_s", per_rep(counts.fsync_ns.load(Relaxed)) / 1e9),
        ("dir_syncs", per_rep(counts.dir_syncs.load(Relaxed))),
        (
            "dir_sync_s",
            per_rep(counts.dir_sync_ns.load(Relaxed)) / 1e9,
        ),
        ("write_bytes", per_rep(counts.write_bytes.load(Relaxed))),
        ("write_s", per_rep(counts.write_ns.load(Relaxed)) / 1e9),
        ("creates", per_rep(counts.creates.load(Relaxed))),
        ("renames", per_rep(counts.renames.load(Relaxed))),
    ] {
        layers.insert(format!("tracestore.storage.{name}"), value);
    }
}

/// Probe: what one durable window write costs — `write_file_durable` of a
/// 1 KiB payload, median of 200.
pub fn durable_write_probe(ctx: &mut Ctx, layers: &mut crate::run::Layers) {
    use crate::surface::{write_file_durable, RealStorage};
    let dir = ctx.scratch.fresh("probe-durable");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let payload = [b'w'; 1024];
    let mut each_ms = Vec::with_capacity(200);
    for i in 0..200u64 {
        let path = dir.join(window_file_name(i));
        let start = Instant::now();
        let written = write_file_durable(&RealStorage, &path, &payload);
        each_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if ctx
            .tally
            .call("probe write_file_durable", written)
            .is_none()
        {
            break;
        }
    }
    ctx.scratch.discard(&dir);
    if let Some(ms) = crate::stats::median(&each_ms) {
        layers.insert("tracestore.storage.durable_write_ms".into(), ms);
    }
}
