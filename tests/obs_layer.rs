//! Integration coverage for the observability layer (`ipfs-mon-obs`) as
//! wired through the pipeline:
//!
//! * metric handles registered across layers actually track real work
//!   (simulation events, decoded chunks, analysis entries);
//! * per-monitor analysis progress (the `analysis.entries.<label>`
//!   counters a `run_parallel` publishes) is exact;
//! * the instrumentation is output-passive — the pipeline produces
//!   byte-identical traces with a live heartbeat reporter sampling
//!   concurrently and with none at all;
//! * heartbeat JSONL lines parse and carry the documented fields;
//! * histogram bucket/quantile contracts hold through the public API;
//! * the metric catalog in docs/OBSERVABILITY.md names exactly the metrics
//!   the crates register.
//!
//! Metric state is global per test binary and the harness runs tests
//! concurrently, so counter assertions use unique metric names or `>=`
//! deltas; the tests that assert an exact delta of a reader counter take
//! turns ([`reading`]) with every other test that reads a dataset.

mod common;

use common::temp_dir;
use ipfs_monitoring::obs;
use ipfs_monitoring::tracestore::{AnalysisSink, ManifestReader, MonitoringDataset, TraceEntry};
use serde::content::{struct_field, Content};
use std::path::Path;

fn run_pipeline(seed: u64) -> MonitoringDataset {
    common::simulated_dataset(seed, 100)
}

fn write_manifest(dataset: &MonitoringDataset, dir: &Path) {
    common::write_manifest_rotated(
        dataset,
        dir,
        (dataset.total_entries() as u64 / 3).max(1),
        64,
    );
}

/// Held by a test while it reads a dataset, so that what the reader's
/// counters moved by in between is that test's doing.
fn reading() -> std::sync::MutexGuard<'static, ()> {
    static READING: std::sync::Mutex<()> = std::sync::Mutex::new(());
    READING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Trivial associative sink: counts entries.
#[derive(Clone, Default, PartialEq, Debug)]
struct CountSink {
    count: u64,
}

impl AnalysisSink for CountSink {
    type Output = u64;

    fn consume(&mut self, _entry: TraceEntry) {
        self.count += 1;
    }

    fn combine(&mut self, other: Self) {
        self.count += other.count;
    }

    fn finish(self) -> u64 {
        self.count
    }
}

/// The cross-layer counters and stage histograms move when the pipeline
/// does real work.
#[test]
fn pipeline_metrics_track_real_work() {
    let _reading = reading();
    let dataset = run_pipeline(41);
    let total = dataset.total_entries() as u64;
    assert!(total > 0, "scenario must produce observations");

    let dir = temp_dir("metrics");
    write_manifest(&dataset, &dir);
    let reader = ManifestReader::open(&dir).expect("open manifest");
    let before = obs::snapshot();
    let counted = reader.run_parallel(CountSink::default());
    assert_eq!(counted.expect("analysis"), total);
    let after = obs::snapshot();
    std::fs::remove_dir_all(&dir).ok();

    let delta = |name: &str| {
        after.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    };
    // `>=` because other tests in this binary drive the same global
    // counters concurrently.
    assert!(delta("analysis.entries") >= total);
    assert!(delta("store.chunks_decoded") >= 1);
    assert!(delta("store.entries_decoded") >= total);
    assert!(after.counters.get("sim.events").copied().unwrap_or(0) > 0);
    assert!(after.counters.get("ingest.entries").copied().unwrap_or(0) >= total);
    // The decode stage and its sub-spans fire on every chunk.
    for name in [
        "store.chunk_decode_ns",
        "store.chunk_crc_ns",
        "store.chunk_columns_ns",
        "store.chunk_dict_ns",
    ] {
        let samples = after.histograms.get(name).map_or(0, |h| h.count);
        assert!(samples >= 1, "{name} must have samples");
    }
}

/// A filtered stream accounts what its pushdown saved: every chunk is still
/// decoded, only the rows naming a target are selected, and a chunk naming
/// none is counted as pruned.
#[test]
fn pushdown_counters_track_selected_rows_and_pruned_chunks() {
    let _reading = reading();
    use ipfs_monitoring::tracestore::{RowTargets, TraceSource};
    let dataset = run_pipeline(44);
    let wanted = &dataset.entries[0][0];
    let targets = RowTargets {
        cids: [wanted.cid.clone()].into(),
        peers: [wanted.peer].into(),
    };
    let dir = temp_dir("pushdown");
    write_manifest(&dataset, &dir);
    let reader = ManifestReader::open(&dir).expect("open manifest");
    let before = obs::snapshot();
    let selected = reader.merged_entries_matching(&targets).count() as u64;
    let nothing = reader
        .merged_entries_matching(&RowTargets::default())
        .count();
    let after = obs::snapshot();
    std::fs::remove_dir_all(&dir).ok();

    assert!(selected > 0 && selected < dataset.total_entries() as u64);
    assert_eq!(nothing, 0);
    let delta = |name: &str| {
        after.counters.get(name).copied().unwrap_or(0)
            - before.counters.get(name).copied().unwrap_or(0)
    };
    assert_eq!(delta("store.rows_selected"), selected);
    assert!(delta("store.entries_decoded") >= 2 * dataset.total_entries() as u64);
    assert!(delta("store.chunks_pruned") >= (dataset.total_entries() as u64).div_ceil(64));
}

/// A `run_parallel` that feeds its sink timestamps accounts every row it
/// delivered that way; one that feeds entries accounts none.
#[test]
fn time_only_rows_are_counted() {
    let _reading = reading();
    use ipfs_monitoring::core::EntryStatsSink;
    let dataset = run_pipeline(45);
    let dir = temp_dir("rows-timed");
    write_manifest(&dataset, &dir);
    let reader = ManifestReader::open(&dir).expect("open manifest");
    let before = obs::snapshot();
    let stats = reader.run_parallel(EntryStatsSink::new()).expect("stats");
    let counted = reader
        .run_parallel((EntryStatsSink::new(), CountSink::default()))
        .expect("stats beside an entry consumer");
    let after = obs::snapshot();
    std::fs::remove_dir_all(&dir).ok();

    let total = dataset.total_entries() as u64;
    assert_eq!(stats.iter().map(|m| m.entries).sum::<u64>(), total);
    assert_eq!(counted, (stats, total));
    let timed = |snapshot: &obs::Snapshot| {
        snapshot
            .counters
            .get("store.rows_timed")
            .copied()
            .unwrap_or(0)
    };
    assert_eq!(timed(&after) - timed(&before), total);
}

/// A `TraceEntry` is built once per row that leaves a stream as an entry —
/// plain, flagged or filtered — and never for a run whose sinks fold chunks
/// and take timestamps, which is what the repo benchmark's sink pass is.
#[test]
fn entries_are_built_once_per_row_handed_out_as_an_entry() {
    use ipfs_monitoring::core::{
        flag_source, ActivityCountsSink, EntryStatsSink, PopularitySink, PreprocessConfig,
        RequestTypeSink,
    };
    use ipfs_monitoring::simnet::time::SimDuration;
    use ipfs_monitoring::tracestore::{RowTargets, TraceSource};
    let _reading = reading();
    let dataset = run_pipeline(46);
    let total = dataset.total_entries() as u64;
    let wanted = &dataset.entries[0][0];
    let targets = RowTargets {
        cids: [wanted.cid.clone()].into(),
        peers: [wanted.peer].into(),
    };
    let dir = temp_dir("entries-built");
    write_manifest(&dataset, &dir);
    let reader = ManifestReader::open(&dir).expect("open manifest");
    assert_eq!(reader.total_entries(), total);
    let counter = |name: &str| obs::snapshot().counters.get(name).copied().unwrap_or(0);
    // What `read` moved `store.entries_built` and `store.rows_selected` by.
    let moved = |read: &mut dyn FnMut() -> u64| {
        let before = (
            counter("store.entries_built"),
            counter("store.rows_selected"),
        );
        let rows = read();
        let built = counter("store.entries_built") - before.0;
        (rows, built, counter("store.rows_selected") - before.1)
    };

    let merged = moved(&mut || reader.merged_entries().count() as u64);
    let flagged = moved(&mut || {
        let mut stream = flag_source(&reader, PreprocessConfig::default());
        let rows = (&mut stream).count() as u64;
        assert!(stream.take_source_error().is_none());
        rows
    });
    let four_sinks = moved(&mut || {
        let ((series, _), (_, stats)) = reader
            .run_parallel((
                (
                    RequestTypeSink::new(SimDuration::from_hours(1)),
                    PopularitySink::new(),
                ),
                (ActivityCountsSink::new(), EntryStatsSink::new()),
            ))
            .expect("four sinks");
        assert!(!series.is_empty());
        stats.iter().map(|monitor| monitor.entries).sum()
    });
    let filtered = moved(&mut || reader.merged_entries_matching(&targets).count() as u64);
    let by_entry = moved(&mut || reader.run_parallel(CountSink::default()).expect("count"));
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        (merged.0, flagged.0, four_sinks.0, by_entry.0),
        (total, total, total, total)
    );
    assert!(filtered.0 > 0 && filtered.0 < total);
    assert_eq!(merged.1, total);
    assert_eq!(flagged.1, total);
    assert_eq!(four_sinks.1, 0);
    assert_eq!((filtered.1, filtered.2), (filtered.0, filtered.0));
    assert_eq!(by_entry.1, total);
}

/// Per-monitor progress from `run_parallel` is exact: each monitor's
/// `analysis.entries.<label>` counter moves by that monitor's entry count.
#[test]
fn parallel_progress_is_exact_per_monitor() {
    let _reading = reading();
    let dataset = run_pipeline(42);
    let per_monitor: Vec<u64> = dataset.entries.iter().map(|e| e.len() as u64).collect();
    let dir = temp_dir("progress");
    write_manifest(&dataset, &dir);
    let reader = ManifestReader::open(&dir).expect("open manifest");
    let consumed = |snapshot: &obs::Snapshot| -> Vec<u64> {
        reader
            .monitor_labels()
            .iter()
            .map(|label| {
                let name = format!("analysis.entries.{label}");
                snapshot.counters.get(&name).copied().unwrap_or(0)
            })
            .collect()
    };
    let before = consumed(&obs::snapshot());
    let counted = reader.run_parallel(CountSink::default());
    let after = consumed(&obs::snapshot());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(counted.expect("analysis"), per_monitor.iter().sum::<u64>());
    let moved: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    assert_eq!(moved, per_monitor);
}

/// Output passivity: the pipeline's dataset is identical whether a
/// heartbeat reporter is actively sampling the registry or no reporter
/// exists at all.
#[test]
fn instrumentation_is_output_passive() {
    let quiet = run_pipeline(43);

    let heartbeat_path = temp_dir("passive").with_extension("jsonl");
    let reporter = {
        let config = obs::ReporterConfig::with_interval(std::time::Duration::from_millis(1));
        obs::Reporter::to_file(&heartbeat_path, config).expect("reporter file")
    };
    let sampled = run_pipeline(43);
    reporter.stop();
    std::fs::remove_file(&heartbeat_path).ok();

    assert_eq!(quiet, sampled, "reporter sampling must not perturb outputs");
}

/// Heartbeat lines are valid JSON with the documented fields; the final
/// line carries `done: true`.
#[test]
fn heartbeat_lines_parse_and_finish_with_done() {
    let path = temp_dir("heartbeat").with_extension("jsonl");
    std::fs::remove_file(&path).ok();
    let reporter = obs::Reporter::to_file(
        &path,
        obs::ReporterConfig::with_interval(std::time::Duration::from_millis(10)),
    )
    .expect("reporter file");
    // Drive some work so counters exist, then give the reporter a tick.
    let _ = run_pipeline(44);
    std::thread::sleep(std::time::Duration::from_millis(40));
    reporter.stop();

    let text = std::fs::read_to_string(&path).expect("heartbeat file");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());
    for (i, line) in lines.iter().enumerate() {
        let value: Content = serde_json::from_str(line).expect("heartbeat JSON");
        let map = value.as_map().expect("heartbeat object");
        for field in [
            "heartbeat",
            "uptime_s",
            "events_per_sec",
            "counters",
            "histograms",
        ] {
            struct_field(map, field).expect("documented heartbeat field");
        }
        let done = struct_field(map, "done")
            .ok()
            .and_then(Content::as_bool)
            .expect("done flag");
        assert_eq!(done, i == lines.len() - 1, "only the last line is final");
    }
    let last: Content = serde_json::from_str(lines.last().unwrap()).unwrap();
    let counters = struct_field(last.as_map().unwrap(), "counters")
        .ok()
        .and_then(Content::as_map)
        .unwrap();
    assert!(
        counters.iter().any(|(name, _)| name == "sim.events"),
        "pipeline counters appear in the heartbeat"
    );
}

/// Bucket/quantile contract through the public API: every value lands in a
/// bucket whose bounds contain it, and quantiles are monotone and bounded.
#[test]
fn histogram_bucket_and_quantile_contract() {
    for value in (0u64..70).map(|i| 1u64.checked_shl(i as u32).unwrap_or(u64::MAX)) {
        for v in [value.saturating_sub(1), value, value.saturating_add(1)] {
            let (low, high) = obs::bucket_bounds(obs::bucket_index(v) as u8);
            assert!(low <= v && v <= high, "{v} outside [{low}, {high}]");
        }
    }

    let hist = obs::histogram!("test.obs_layer.quantiles");
    for v in [1u64, 3, 7, 90, 90, 4096, 70_000] {
        hist.record(v);
    }
    let snapshot = obs::snapshot();
    let h = snapshot
        .histograms
        .get("test.obs_layer.quantiles")
        .expect("recorded histogram");
    assert_eq!(h.count, 7);
    assert_eq!(h.sum, 1 + 3 + 7 + 90 + 90 + 4096 + 70_000);
    let quantiles: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|&q| h.quantile(q))
        .collect();
    for pair in quantiles.windows(2) {
        assert!(pair[0] <= pair[1], "quantiles must be monotone");
    }
    assert!(quantiles[0] >= 1.0);
    assert!(*quantiles.last().unwrap() <= h.max_bound() as f64);
    assert!((h.mean() - (h.sum as f64 / 7.0)).abs() < 1e-9);
}

/// Every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The metric names `source` registers: the string literal opening the
/// argument of each `obs::counter`/`gauge`/`histogram` call, macro or
/// function, behind an optional `&format!(`. A `{…}` placeholder in a
/// formatted name reads `<label>`, as the catalog writes it.
fn registered_names(source: &str) -> Vec<String> {
    let mut names = Vec::new();
    for kind in ["obs::counter", "obs::gauge", "obs::histogram"] {
        for (at, _) in source.match_indices(kind) {
            let call = source[at + kind.len()..].trim_start_matches('!');
            let Some(argument) = call.strip_prefix('(') else {
                continue;
            };
            let argument = argument.trim_start().trim_start_matches('&').trim_start();
            let argument = argument
                .strip_prefix("format!(")
                .unwrap_or(argument)
                .trim_start();
            let Some(literal) = argument.strip_prefix('"') else {
                continue;
            };
            let name = &literal[..literal.find('"').expect("closing quote")];
            names.push(match (name.find('{'), name.find('}')) {
                (Some(open), Some(close)) => {
                    format!("{}<label>{}", &name[..open], &name[close + 1..])
                }
                _ => name.to_string(),
            });
        }
    }
    names
}

/// The names the catalog table of docs/OBSERVABILITY.md documents: every
/// back-quoted name of each row's first cell, `a.{x,y}` expanded.
fn catalogued_names(doc: &str) -> Vec<String> {
    let catalog = doc
        .split("## Metric catalog")
        .nth(1)
        .expect("catalog section");
    let catalog = catalog.split("\n## ").next().expect("catalog body");
    let mut names = Vec::new();
    for row in catalog.lines().filter(|line| line.starts_with("| `")) {
        let cell = row.split('|').nth(1).expect("first cell");
        for name in cell.split('`').skip(1).step_by(2) {
            match (name.find('{'), name.find('}')) {
                (Some(open), Some(close)) => {
                    for variant in name[open + 1..close].split(',') {
                        names.push(format!("{}{variant}{}", &name[..open], &name[close + 1..]));
                    }
                }
                _ => names.push(name.to_string()),
            }
        }
    }
    names
}

/// The metric catalog cannot drift from the code: every name a crate
/// registers has a row in docs/OBSERVABILITY.md, and every row names a
/// metric some crate registers. (`crates/obs` itself only registers the
/// placeholder names of its own examples and tests.)
#[test]
fn metric_catalog_matches_the_names_in_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("crates"), &mut sources);
    let mut in_code = std::collections::BTreeSet::new();
    for path in sources {
        if path.starts_with(root.join("crates/obs")) {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("read source");
        in_code.extend(registered_names(&source));
    }
    let doc = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).expect("read catalog");
    let in_catalog: std::collections::BTreeSet<String> =
        catalogued_names(&doc).into_iter().collect();

    assert!(in_code.len() > 40, "the scan found only {in_code:?}");
    let undocumented: Vec<_> = in_code.difference(&in_catalog).collect();
    let unregistered: Vec<_> = in_catalog.difference(&in_code).collect();
    assert!(
        undocumented.is_empty(),
        "registered but not in the catalog: {undocumented:?}"
    );
    assert!(
        unregistered.is_empty(),
        "in the catalog but registered nowhere: {unregistered:?}"
    );
}
