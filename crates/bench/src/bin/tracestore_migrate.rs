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
//! `--demo` is a self-contained smoke mode for CI: it generates a small
//! simulated trace, spills it as a `raw` manifest (as collection writes it),
//! compacts it to `col`, and verifies the merged entry stream is unchanged.

use ipfs_mon_bench::{run_experiment, scaled, spill_to_manifest};
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_tracestore::{migrate_manifest, ManifestReader, TraceEntry, TraceSource};
use ipfs_mon_workload::ScenarioConfig;
use std::path::PathBuf;

const USAGE: &str = "usage: tracestore_migrate <manifest-dir> | --demo";

fn main() {
    let mut dir: Option<PathBuf> = None;
    let mut demo = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--demo" => demo = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with("--") => panic!("unknown flag {flag:?}\n{USAGE}"),
            path => {
                assert!(dir.is_none(), "more than one manifest dir given\n{USAGE}");
                dir = Some(PathBuf::from(path));
            }
        }
    }

    let dir = match (dir, demo) {
        (None, true) => {
            let dir = std::env::temp_dir().join(format!("ts-migrate-demo-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            prepare_demo_manifest(&dir);
            dir
        }
        (Some(dir), false) => dir,
        _ => panic!("{USAGE}"),
    };

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

/// Generates a small two-monitor trace and spills it as a `raw` manifest.
fn prepare_demo_manifest(dir: &std::path::Path) {
    let mut config = ScenarioConfig::analysis_week(61, scaled(200).min(200));
    config.horizon = SimDuration::from_days(1);
    let run = run_experiment(&config);
    let summary = spill_to_manifest(
        &run.dataset,
        dir,
        (run.dataset.total_entries() as u64 / 4).max(1),
    );
    println!(
        "demo manifest: {} segments, {} entries (codec=raw) at {}",
        summary.segment_count,
        summary.total_entries,
        dir.display()
    );
}

fn merged_entries(dir: &std::path::Path) -> Vec<TraceEntry> {
    let reader = ManifestReader::open(dir).expect("open manifest");
    let mut stream = reader.merged_entries();
    let entries: Vec<TraceEntry> = (&mut stream).collect();
    assert!(
        stream.take_error().is_none(),
        "stream error reading manifest"
    );
    entries
}
