//! Offline compaction of tracestore manifests to the `Col` chunk layout.
//!
//! Collection writes `raw` chunks; this rewrites every segment of a finished
//! manifest in `col` with an atomic per-segment swap (see
//! `ipfs_mon_tracestore::migrate_manifest`): segments compaction would not
//! change are skipped, each rewrite is verified entry-stream-identical before
//! it replaces the original, and a crash mid-run leaves at worst an ignored
//! `.migrate-tmp` file behind.
//!
//! ```text
//! tracestore_migrate <manifest-dir>
//! tracestore_migrate --demo
//! ```
//!
//! The source dataset may hold any mix of chunk layouts, including the
//! decode-only `lz` one.
//!
//! `--demo` is a self-contained smoke mode for CI: it collects a small
//! simulated trace straight into a `raw` manifest (through
//! `ManifestCollector`, as collection writes it), compacts it to `col`, and
//! verifies the merged entry stream is unchanged.

use ipfs_mon_bench::{args_or_exit, parse_flags, scaled};
use ipfs_mon_core::ManifestCollector;
use ipfs_mon_node::Network;
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_tracestore::{
    migrate_manifest, DatasetConfig, ManifestReader, TraceEntry, TraceSource,
};
use ipfs_mon_workload::{build_scenario, ScenarioConfig};
use std::path::{Path, PathBuf};

/// Entries per segment of the demo dataset: at any scale the demo runs, each
/// monitor's chain spans several segments, so compaction swaps more than one.
const DEMO_ROTATE_AFTER_ENTRIES: u64 = 8_192;

/// The manifest directory to compact, or `None` for `--demo`.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<PathBuf>, String> {
    let (mut dir, mut demo) = (None, false);
    parse_flags(args, |arg, _| {
        match arg {
            "--demo" => demo = true,
            _ if arg.starts_with('-') || dir.is_some() => return Ok(false),
            path => dir = Some(PathBuf::from(path)),
        }
        Ok(true)
    })?;
    match (dir, demo) {
        (Some(dir), false) => Ok(Some(dir)),
        (None, true) => Ok(None),
        _ => Err("give either a manifest directory or --demo".into()),
    }
}

fn main() {
    let dir = args_or_exit("<manifest-dir> | --demo", parse);
    let demo = dir.is_none();
    let dir = dir.unwrap_or_else(|| {
        let dir = std::env::temp_dir().join(format!("ts-migrate-demo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        collect_demo_manifest(&dir);
        dir
    });

    // Snapshot the logical content before migrating so the post-migration
    // stream can be verified end to end (on top of the per-segment
    // verification `migrate_manifest` already performs internally).
    let reference = merged_entries(&dir);

    let report = migrate_manifest(&dir).expect("migrate manifest");
    println!(
        "migrated {} to codec=col: {} segments ({} rewritten, {} kept), {} entries",
        dir.display(),
        report.segments_total,
        report.segments_rewritten,
        report.segments_total - report.segments_rewritten,
        report.entries,
    );
    println!(
        "on disk: {} -> {} bytes ({:.1}%)",
        report.bytes_before,
        report.bytes_after,
        report.bytes_after as f64 / report.bytes_before.max(1) as f64 * 100.0,
    );

    let migrated = merged_entries(&dir);
    assert_eq!(
        migrated, reference,
        "merged entry stream changed across migration"
    );
    println!(
        "verified: merged entry stream identical across migration ({} entries)",
        reference.len()
    );

    if demo {
        assert!(
            report.segments_rewritten > 0,
            "demo migration must rewrite the raw segments"
        );
        assert!(
            report.bytes_after < report.bytes_before,
            "col manifest must be smaller than the raw one it replaced"
        );
        std::fs::remove_dir_all(&dir).ok();
        println!("migrate demo PASS (raw -> col)");
    }
}

/// Collects a small two-monitor trace into a `raw` manifest at `dir`.
fn collect_demo_manifest(dir: &Path) {
    let mut config = ScenarioConfig::analysis_week(61, scaled(200).min(200));
    config.horizon = SimDuration::from_days(1);
    let scenario = build_scenario(&config);
    let labels = scenario.monitors.iter().map(|m| m.label.clone()).collect();
    let dataset = DatasetConfig {
        rotate_after_entries: DEMO_ROTATE_AFTER_ENTRIES,
        ..DatasetConfig::default()
    };
    let mut collector = ManifestCollector::new(labels, dir, dataset).expect("create dataset dir");
    Network::new(scenario).run(&mut collector);
    let summary = collector.finish().expect("finish manifest");
    println!(
        "demo manifest: {} segments, {} entries (codec=raw) at {}",
        summary.segment_count,
        summary.total_entries,
        dir.display()
    );
}

fn merged_entries(dir: &Path) -> Vec<TraceEntry> {
    let reader = ManifestReader::open(dir).expect("open manifest");
    let mut stream = reader.merged_entries();
    let entries: Vec<TraceEntry> = (&mut stream).collect();
    assert!(
        stream.take_error().is_none(),
        "stream error reading manifest"
    );
    entries
}
