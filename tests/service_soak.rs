//! Kill/restart soak for [`MonitorService`]: crash the storage layer at
//! sampled operation indices, restart on the same directory, and assert
//! the service's output is *exactly-once* — the concatenation of WINDOW
//! lines across all incarnations, and the durable `windows/` directory
//! itself, are byte-identical to a fault-free run's.
//!
//! The harness mirrors the `monitor_service` bench binary: each
//! incarnation re-feeds the deterministic dataset minus what the previous
//! incarnation made durable, polls on a cadence deliberately misaligned
//! with the rotation/checkpoint cadences, and — when it dies — drains the
//! windows its log made durable before the crash but whose lines never
//! surfaced (a log frame holds the line `poll` would have returned, so the
//! drain is a faithful replay).

mod common;

use common::{fresh_dir, random_dataset};
use ipfs_monitoring::core::{
    read_window_log, MonitorService, ServiceConfig, ServiceReport, WINDOW_DIR_NAME,
};
use ipfs_monitoring::simnet::time::SimDuration;
use ipfs_monitoring::tracestore::{
    DatasetConfig, FaultPlan, FaultyStorage, LatePolicy, MonitoringDataset, RealStorage,
    SegmentConfig, SegmentError, Storage, TraceSource, WindowSpec,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Poll cadence (entries between checkpoint+poll), chosen coprime to the
/// rotation and auto-checkpoint cadences below so crashes land in every
/// phase combination.
const POLL_EVERY: usize = 23;

/// An incarnation's first poll waits for this many entries, so it seals
/// several windows at once: a multi-window log append for the sweep.
const FIRST_POLL_AFTER: usize = 5 * POLL_EVERY;

fn config() -> ServiceConfig {
    ServiceConfig {
        dataset: DatasetConfig {
            segment: SegmentConfig { chunk_capacity: 8 },
            rotate_after_entries: 37,
            checkpoint_after_entries: 11,
        },
        window: WindowSpec::tumbling(SimDuration::from_secs(15)),
        // `random_dataset` can regress a monitor's timestamps by up to
        // 1 ms even at jitter 0; give the watermark comfortable slack so
        // `Strict` never trips.
        lateness: SimDuration::from_millis(2_000),
        policy: LatePolicy::Strict,
        top_k: 4,
    }
}

/// Runs one service incarnation over `dataset`, appending every surfaced
/// WINDOW line to `collected`. On failure, drains the logged windows that
/// were never surfaced — exactly what the bench binary does when a run
/// dies — so `collected` always equals the durable window set at the
/// incarnation boundary.
fn run_incarnation(
    dir: &Path,
    dataset: &MonitoringDataset,
    storage: Arc<dyn Storage>,
    collected: &mut Vec<String>,
) -> Result<ServiceReport, SegmentError> {
    let result = feed(dir, dataset, storage, collected, None);
    if result.is_err() {
        let logged = read_window_log(dir).expect("readable window log");
        assert!(
            logged.starts_with(collected),
            "the log must start with every surfaced line"
        );
        collected.extend_from_slice(&logged[collected.len()..]);
    }
    result
}

/// The storage operations one poll issued and the lines it returned.
struct PollOps {
    ops: Range<u64>,
    lines: usize,
}

/// One incarnation without the death-drain. With a `probe` (the storage the
/// service writes through), logs every poll's [`PollOps`].
fn feed(
    dir: &Path,
    dataset: &MonitoringDataset,
    storage: Arc<dyn Storage>,
    collected: &mut Vec<String>,
    mut probe: Option<(&FaultyStorage, &mut Vec<PollOps>)>,
) -> Result<ServiceReport, SegmentError> {
    let (mut service, recovery) =
        MonitorService::open_with(dir, dataset.monitor_labels.clone(), config(), storage)?;
    // Every durable window's line must already be in `collected` — this is
    // the invariant the death-drain above maintains; a violation here means
    // a line was lost or duplicated at the previous crash.
    assert_eq!(
        service.windows_durable_at_open(),
        collected.len() as u64,
        "durable windows at open must match lines collected so far"
    );
    let durable: Vec<u64> = if recovery.resume.is_empty() {
        vec![0; dataset.monitor_labels.len()]
    } else {
        recovery.resume.iter().map(|c| c.entries_durable).collect()
    };

    let mut fed = vec![0u64; dataset.monitor_labels.len()];
    let (mut ingested, mut since_poll) = (0usize, 0usize);
    for entry in dataset.merged_entries() {
        let n = &mut fed[entry.monitor];
        *n += 1;
        if *n <= durable[entry.monitor] {
            continue; // already durable from the previous incarnation
        }
        service.ingest(&entry)?;
        ingested += 1;
        since_poll += 1;
        if since_poll >= POLL_EVERY && ingested >= FIRST_POLL_AFTER {
            since_poll = 0;
            service.checkpoint()?;
            let before = probe.as_ref().map_or(0, |(storage, _)| storage.ops());
            let lines = service.poll()?;
            if let Some((storage, polls)) = probe.as_mut() {
                polls.push(PollOps {
                    ops: before..storage.ops(),
                    lines: lines.len(),
                });
            }
            collected.extend(lines);
        }
    }
    let report = service.finish()?;
    collected.extend(report.lines.iter().cloned());
    Ok(report)
}

/// Byte-exact snapshot of the durable `windows/` directory.
fn window_dir_snapshot(dir: &Path) -> BTreeMap<String, String> {
    let mut snapshot = BTreeMap::new();
    if let Ok(read) = std::fs::read_dir(dir.join(WINDOW_DIR_NAME)) {
        for entry in read.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read_to_string(entry.path()).expect("readable window file");
            snapshot.insert(name, bytes);
        }
    }
    snapshot
}

/// Fault-free reference run plus a storage-operation count for the same
/// workload (the count bounds the kill-point sweep) and the operations of
/// the first poll that appends two windows or more.
fn reference(
    dataset: &MonitoringDataset,
    tag: &str,
) -> (Vec<String>, BTreeMap<String, String>, u64, Range<u64>) {
    let ref_dir = fresh_dir(&format!("{tag}-ref"));
    let mut ref_lines = Vec::new();
    let report = run_incarnation(&ref_dir, dataset, Arc::new(RealStorage), &mut ref_lines)
        .expect("fault-free reference run");
    assert_eq!(report.windows_emitted as usize, ref_lines.len());
    assert_eq!(report.windows_skipped, 0);
    assert!(
        ref_lines.len() > 4,
        "want a multi-window reference, got {} windows",
        ref_lines.len()
    );
    let ref_windows = window_dir_snapshot(&ref_dir);
    assert_eq!(ref_windows.len(), ref_lines.len());
    assert_eq!(
        read_window_log(&ref_dir).expect("readable window log"),
        ref_lines
    );
    std::fs::remove_dir_all(&ref_dir).ok();

    let counter = Arc::new(FaultyStorage::new(FaultPlan::none()));
    let count_dir = fresh_dir(&format!("{tag}-count"));
    let mut count_lines = Vec::new();
    let mut polls = Vec::new();
    feed(
        &count_dir,
        dataset,
        Arc::clone(&counter) as Arc<dyn Storage>,
        &mut count_lines,
        Some((&counter, &mut polls)),
    )
    .expect("operation-counting run");
    assert_eq!(count_lines, ref_lines, "counting run must match reference");
    std::fs::remove_dir_all(&count_dir).ok();
    let total_ops = counter.ops();
    assert!(
        total_ops > 50,
        "expected a substantial run, {total_ops} ops"
    );

    // A poll's storage operations are its log append: one write and one
    // fsync, however many windows it seals.
    for poll in &polls {
        let n = poll.lines as u64;
        let expected = if n == 0 { 0 } else { 2 };
        assert_eq!(
            poll.ops.end - poll.ops.start,
            expected,
            "poll of {n} windows"
        );
    }
    let multi = polls
        .iter()
        .find(|poll| poll.lines >= 2)
        .expect("a poll that appends two windows or more")
        .ops
        .clone();

    (ref_lines, ref_windows, total_ops, multi)
}

#[test]
fn soak_kill_restart_at_sampled_ops_is_exactly_once() {
    let dataset = random_dataset(0x50AB, 3, 220, 0);
    let (ref_lines, ref_windows, total_ops, multi) = reference(&dataset, "soak");

    // Sweep kill points across the whole operation range (0-based, so a
    // fault-free run uses ops 0..total_ops), plus the very first ops
    // (crash during directory/manifest creation) and the very last
    // (crash during `finish`).
    let step = (total_ops / 24).max(1);
    let mut kill_points: Vec<u64> = (0..total_ops).step_by(step as usize).collect();
    kill_points.extend([1, 2, total_ops - 2, total_ops - 1]);
    kill_points.extend(multi.clone());
    kill_points.sort_unstable();
    kill_points.dedup();
    let mut plans: Vec<(String, FaultPlan)> = kill_points
        .into_iter()
        .map(|kill| (format!("kill at op {kill}"), FaultPlan::crash_at(kill)))
        .collect();
    // Every operation of a multi-window log append — its write and its
    // fsync — also as a torn write: a seeded prefix of the append's bytes
    // lands, so the log ends in a partial frame (or at a frame boundary
    // inside the batch) that the next open cuts.
    for kill in multi {
        for seed in 0..4 {
            plans.push((
                format!("torn kill at op {kill}, seed {seed}"),
                FaultPlan::torn_at(kill, seed),
            ));
        }
    }

    for (case, plan) in plans {
        let dir = fresh_dir("soak-kill");
        let mut lines = Vec::new();

        let faulty = Arc::new(FaultyStorage::new(plan));
        let died = run_incarnation(
            &dir,
            &dataset,
            Arc::clone(&faulty) as Arc<dyn Storage>,
            &mut lines,
        );
        assert!(died.is_err(), "{case} must abort the incarnation");
        assert!(faulty.crashed(), "{case} must be the injected crash");

        let report = run_incarnation(&dir, &dataset, Arc::new(RealStorage), &mut lines)
            .unwrap_or_else(|e| panic!("restart after {case} failed: {e}"));
        assert_eq!(
            (report.windows_emitted + report.windows_skipped) as usize,
            ref_lines.len(),
            "{case}: restart must account for every window"
        );
        assert_eq!(
            lines, ref_lines,
            "{case}: concatenated WINDOW lines across incarnations diverged"
        );
        assert_eq!(
            read_window_log(&dir).expect("readable window log"),
            ref_lines,
            "{case}: the window log diverged"
        );
        assert_eq!(
            window_dir_snapshot(&dir),
            ref_windows,
            "{case}: window files diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn soak_cascading_kills_then_clean_restart_converges() {
    let dataset = random_dataset(0xCA5C, 2, 260, 0);
    let (ref_lines, ref_windows, total_ops, _) = reference(&dataset, "cascade");

    let dir = fresh_dir("soak-cascade");
    let mut lines = Vec::new();

    // First incarnation dies a third of the way in.
    let first = Arc::new(FaultyStorage::new(FaultPlan::crash_at(total_ops / 3)));
    let died = run_incarnation(
        &dir,
        &dataset,
        Arc::clone(&first) as Arc<dyn Storage>,
        &mut lines,
    );
    assert!(died.is_err() && first.crashed());

    // Second incarnation dies again mid-recovery-and-refeed (its op
    // sequence differs from the first run's, so this lands elsewhere). If
    // the kill point exceeds the ops the shorter resumed run needs, the
    // incarnation simply completes — also a valid cascade step.
    let second = Arc::new(FaultyStorage::new(FaultPlan::crash_at(total_ops / 2)));
    let second_run = run_incarnation(
        &dir,
        &dataset,
        Arc::clone(&second) as Arc<dyn Storage>,
        &mut lines,
    );
    assert_eq!(second_run.is_err(), second.crashed());

    // Final clean incarnation converges to the reference exactly.
    let report = run_incarnation(&dir, &dataset, Arc::new(RealStorage), &mut lines)
        .expect("clean restart after cascading kills");
    assert_eq!(
        (report.windows_emitted + report.windows_skipped) as usize,
        ref_lines.len()
    );
    assert_eq!(lines, ref_lines, "cascade: WINDOW lines diverged");
    assert_eq!(
        read_window_log(&dir).expect("readable window log"),
        ref_lines,
        "cascade: the window log diverged"
    );
    assert_eq!(
        window_dir_snapshot(&dir),
        ref_windows,
        "cascade: window files diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}
