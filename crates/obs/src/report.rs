//! The background heartbeat reporter: periodic JSONL snapshots of the
//! metrics registry.
//!
//! A [`Reporter`] owns a thread that wakes every [`ReporterConfig::interval`],
//! takes a [`crate::snapshot`], and writes one JSON object per line:
//!
//! ```json
//! {"heartbeat":3,"uptime_s":3.0,"interval_s":1.0,"done":false,
//!  "events_per_sec":9.5e6,
//!  "counters":{"sim.events":28500000},
//!  "rates":{"sim.events":9.5e6},
//!  "gauges":{"sim.pending":120000},
//!  "histograms":{"store.chunk_decode_ns":
//!      {"count":412,"mean":52000.0,"p50":48000.0,"p90":91000.0,
//!       "p99":130000.0,"max":262143}}}
//! ```
//!
//! `events_per_sec` is the per-second delta of the first counter in
//! [`ReporterConfig::progress_counters`] that moved during the interval
//! (falling back to the first with a non-zero total) — a priority list, so
//! one flag works for the simulator (`sim.events`), the decode path
//! (`store.entries_decoded`), and analysis (`analysis.entries`) without
//! per-binary configuration, and a multi-phase run hands the figure from
//! phase to phase. `rates` carries the per-second delta of
//! every counter that moved during the interval. `histograms` summarizes each
//! histogram as its count, mean, interpolated p50/p90/p99, and the upper
//! bound of its largest non-empty bucket (`max`).
//!
//! On [`Reporter::stop`] (or drop) a final line with `"done":true` is always
//! emitted, so runs shorter than one interval still produce telemetry — the
//! CI smoke tests rely on this.

use crate::metrics::{HistogramSnapshot, Snapshot};
use serde::content::Content;
use serde::Serialize;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration for a [`Reporter`].
#[derive(Debug, Clone)]
pub struct ReporterConfig {
    /// Time between heartbeat lines.
    pub interval: Duration,
    /// Priority list of counters that measure "progress"; the first one with
    /// a non-zero total drives the heartbeat's `events_per_sec` field.
    pub progress_counters: Vec<String>,
}

impl Default for ReporterConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_secs(1),
            progress_counters: vec![
                "sim.events".to_string(),
                "store.entries_decoded".to_string(),
                "analysis.entries".to_string(),
                "ingest.entries".to_string(),
            ],
        }
    }
}

impl ReporterConfig {
    /// A default config with a different interval.
    pub fn with_interval(interval: Duration) -> Self {
        Self {
            interval,
            ..Self::default()
        }
    }
}

/// Handle to the background heartbeat thread. Stop it explicitly with
/// [`Reporter::stop`] to get the final `"done":true` line before your
/// process prints its own summary; dropping the handle stops it too.
#[derive(Debug)]
pub struct Reporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Reporter {
    /// Spawns a reporter writing JSONL heartbeats to `writer`.
    pub fn to_writer(writer: Box<dyn Write + Send>, config: ReporterConfig) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("obs-reporter".to_string())
            .spawn(move || run(writer, config, flag))
            .expect("spawn obs reporter thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Spawns a reporter writing to the file at `path` (created if missing,
    /// truncated if present).
    pub fn to_file(path: &std::path::Path, config: ReporterConfig) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::to_writer(
            Box::new(std::io::BufWriter::new(file)),
            config,
        ))
    }

    /// Spawns a reporter writing to stdout (each line written atomically, so
    /// heartbeats interleave cleanly with other output).
    pub fn stdout(config: ReporterConfig) -> Self {
        Self::to_writer(Box::new(std::io::stdout()), config)
    }

    /// Emits the final `"done":true` heartbeat, flushes, and joins the
    /// background thread.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Relaxed);
            let _ = handle.join();
        }
    }
}

/// One heartbeat line; the wire format documented on the module.
struct Heartbeat {
    heartbeat: u64,
    uptime_s: f64,
    interval_s: f64,
    done: bool,
    events_per_sec: f64,
    counters: BTreeMap<String, u64>,
    rates: BTreeMap<String, f64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSummary>,
}

/// A string-keyed map as a JSON object (the vendored serde's blanket
/// `BTreeMap` impl emits `[[k, v], …]` pair sequences, which would make
/// heartbeat lines ungreppable by metric name).
fn string_map_content<V: Serialize>(map: &BTreeMap<String, V>) -> Content {
    Content::Map(
        map.iter()
            .map(|(name, value)| (name.clone(), value.to_content()))
            .collect(),
    )
}

// Hand-written so the metric maps serialize as JSON objects keyed by
// metric name (see `string_map_content`) rather than pair sequences.
impl Serialize for Heartbeat {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("heartbeat".to_string(), Content::U64(self.heartbeat)),
            ("uptime_s".to_string(), Content::F64(self.uptime_s)),
            ("interval_s".to_string(), Content::F64(self.interval_s)),
            ("done".to_string(), Content::Bool(self.done)),
            (
                "events_per_sec".to_string(),
                Content::F64(self.events_per_sec),
            ),
            ("counters".to_string(), string_map_content(&self.counters)),
            ("rates".to_string(), string_map_content(&self.rates)),
            ("gauges".to_string(), string_map_content(&self.gauges)),
            (
                "histograms".to_string(),
                string_map_content(&self.histograms),
            ),
        ])
    }
}

#[derive(Serialize)]
struct HistogramSummary {
    count: u64,
    mean: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    max: u64,
}

impl HistogramSummary {
    fn from_snapshot(hist: &HistogramSnapshot) -> Self {
        Self {
            count: hist.count,
            mean: hist.mean(),
            p50: hist.quantile(0.5),
            p90: hist.quantile(0.9),
            p99: hist.quantile(0.99),
            max: hist.max_bound(),
        }
    }
}

fn run(mut writer: Box<dyn Write + Send>, config: ReporterConfig, stop: Arc<AtomicBool>) {
    let start = Instant::now();
    let mut seq = 0u64;
    let mut prev_counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut prev_at = start;
    loop {
        let deadline = prev_at + config.interval;
        let mut done = stop.load(Relaxed);
        while !done {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Sleep in short slices so stop() returns promptly even with
            // long intervals.
            std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
            done = stop.load(Relaxed);
        }

        seq += 1;
        let now = Instant::now();
        let dt = now.duration_since(prev_at).as_secs_f64().max(1e-9);
        let snap = crate::snapshot();
        let line = heartbeat_line(seq, start, now, dt, done, &snap, &prev_counters, &config);
        // Telemetry is best-effort: a broken pipe must not kill the run.
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.flush();
        prev_counters = snap.counters;
        prev_at = now;
        if done {
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn heartbeat_line(
    seq: u64,
    start: Instant,
    now: Instant,
    dt: f64,
    done: bool,
    snap: &Snapshot,
    prev_counters: &BTreeMap<String, u64>,
    config: &ReporterConfig,
) -> String {
    let mut rates = BTreeMap::new();
    for (name, &total) in &snap.counters {
        let delta = total.saturating_sub(prev_counters.get(name).copied().unwrap_or(0));
        if delta > 0 {
            rates.insert(name.clone(), delta as f64 / dt);
        }
    }
    // Prefer the first priority counter that moved this interval — a
    // multi-phase run (simulate, then decode, then analyze) hands the
    // progress figure from phase to phase. Fall back to the first with
    // any total, so a finished/idle phase reports an honest 0.
    let events_per_sec = config
        .progress_counters
        .iter()
        .find(|name| rates.contains_key(*name))
        .or_else(|| {
            config
                .progress_counters
                .iter()
                .find(|name| snap.counters.get(*name).copied().unwrap_or(0) > 0)
        })
        .and_then(|name| rates.get(name).copied())
        .unwrap_or(0.0);
    let beat = Heartbeat {
        heartbeat: seq,
        uptime_s: now.duration_since(start).as_secs_f64(),
        interval_s: dt,
        done,
        events_per_sec,
        counters: snap.counters.clone(),
        rates,
        gauges: snap.gauges.clone(),
        histograms: snap
            .histograms
            .iter()
            .map(|(name, hist)| (name.clone(), HistogramSummary::from_snapshot(hist)))
            .collect(),
    };
    let mut line = serde_json::to_string(&beat).expect("heartbeat serializes");
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A `Write` that appends into a shared buffer.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn emits_final_line_even_for_short_runs() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let reporter = Reporter::to_writer(
            Box::new(SharedBuf(buf.clone())),
            ReporterConfig::with_interval(Duration::from_secs(3600)),
        );
        crate::counter("test.report.progress").add(50);
        reporter.stop();
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let last = out.lines().last().expect("at least one heartbeat line");
        assert!(last.contains("\"done\":true"), "final line: {last}");
        assert!(last.contains("\"events_per_sec\""), "final line: {last}");
        assert!(
            last.contains("\"test.report.progress\":50"),
            "final line: {last}"
        );
    }

    #[test]
    fn progress_counter_priority_drives_events_per_sec() {
        let config = ReporterConfig {
            interval: Duration::from_secs(3600),
            progress_counters: vec![
                "test.report.prio_absent".to_string(),
                "test.report.prio_present".to_string(),
            ],
        };
        let buf = Arc::new(Mutex::new(Vec::new()));
        let reporter = Reporter::to_writer(Box::new(SharedBuf(buf.clone())), config);
        crate::counter("test.report.prio_present").add(1000);
        reporter.stop();
        let out = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let last = out.lines().last().unwrap();
        let field = last
            .split("\"events_per_sec\":")
            .nth(1)
            .and_then(|rest| rest.split(&[',', '}'][..]).next())
            .unwrap();
        let rate: f64 = field.parse().unwrap();
        assert!(rate > 0.0, "events_per_sec = {rate} in {last}");
    }
}
