//! The continuous monitoring service as a process: generates a
//! deterministic monitor trace, then runs
//! [`MonitorService`] over a dataset
//! directory — crash recovery, resumed collection, incremental tailing,
//! and windowed analysis in one loop. Each sealed window prints as a
//! `WINDOW {...}` JSON line (made durable in `<dir>/windows.log` first, and
//! written to `<dir>/windows/` as a file of its own).
//!
//! The binary is restart-proof end to end: run it with `--kill-at <op>`
//! to crash the storage layer at the N-th operation (the process exits
//! cleanly with a `KILLED` line), then run it again on the same `--dir`
//! without the flag — it recovers, re-feeds only what was lost, skips
//! the windows already emitted, and the concatenation of all `WINDOW`
//! lines across runs equals a fault-free run's output. CI smoke-tests
//! exactly that cycle.
//!
//! Flags: `--dir <path>` (dataset directory; required), `--kill-at <op>`
//! (crash storage at operation N), `--window-mins <m>` (tumbling window
//! size, default 30), plus the common `--obs`/`--obs-interval` heartbeat
//! flags.

use ipfs_mon_bench::{
    args_or_exit, duration_value, flag_value, parse_flags, print_header, print_row, run_experiment,
    scaled, ObsFlags,
};
use ipfs_mon_core::{read_window_log, MonitorService, ServiceConfig, TraceSource};
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_tracestore::{
    DatasetConfig, FaultPlan, FaultyStorage, LatePolicy, RealStorage, SegmentError, Storage,
    WindowSpec,
};
use ipfs_mon_workload::ScenarioConfig;
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct ServiceFlags {
    dir: PathBuf,
    kill_at: Option<u64>,
    window_mins: u64,
    obs: ObsFlags,
}

impl ServiceFlags {
    const USAGE: &'static str = "--dir <path> [--kill-at <op>] [--window-mins <m>] \
                                 [--obs <path>|-] [--obs-interval <ms>]";

    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut dir, mut kill_at, mut window_mins) = (None, None, 30);
        let mut obs = ObsFlags::default();
        parse_flags(args, |arg, rest| {
            match arg {
                "--dir" => dir = Some(flag_value(arg, rest)?),
                "--kill-at" => kill_at = Some(flag_value(arg, rest)?),
                "--window-mins" => {
                    window_mins = duration_value(arg, rest, SimDuration::from_mins(1))?;
                }
                _ => return obs.take(arg, rest),
            }
            Ok(true)
        })?;
        if window_mins == 0 {
            return Err("--window-mins must be at least 1".into());
        }
        Ok(Self {
            dir: dir.ok_or("--dir <path> is required")?,
            kill_at,
            window_mins,
            obs,
        })
    }
}

fn main() {
    let flags = args_or_exit(ServiceFlags::USAGE, ServiceFlags::parse);
    let reporter = flags.obs.start();

    // The feed is a deterministic simulation: every incarnation of the
    // service regenerates the same trace, so a restart knows exactly
    // which entries the crashed run had not yet made durable.
    let mut scenario = ScenarioConfig::analysis_week(77, scaled(120));
    scenario.horizon = SimDuration::from_days(1);
    let run = run_experiment(&scenario);
    let dataset = run.dataset;
    let labels = dataset.monitor_labels.clone();
    let total_entries = dataset.total_entries();

    let config = ServiceConfig {
        dataset: DatasetConfig {
            rotate_after_entries: (total_entries as u64 / 8).max(1),
            checkpoint_after_entries: (total_entries as u64 / 32).max(1),
            ..DatasetConfig::default()
        },
        window: WindowSpec::tumbling(SimDuration::from_mins(flags.window_mins)),
        lateness: SimDuration::ZERO,
        policy: LatePolicy::Strict,
        top_k: 8,
    };

    let faulty = flags
        .kill_at
        .map(|op| Arc::new(FaultyStorage::new(FaultPlan::crash_at(op))));
    let storage: Arc<dyn Storage> = match &faulty {
        Some(faulty) => Arc::clone(faulty) as Arc<dyn Storage>,
        None => Arc::new(RealStorage),
    };

    print_header("monitor_service — continuous monitoring loop");
    match run_service(&flags, &dataset, labels, config, storage) {
        Ok(report) => {
            print_row("entries in feed", total_entries);
            print_row("entries ingested this run", report.entries_ingested);
            print_row(
                "entries analyzed (per monitor)",
                format!("{:?}", report.entries_analyzed),
            );
            print_row("windows emitted this run", report.windows_emitted);
            print_row("windows skipped (already durable)", report.windows_skipped);
            print_row("max open windows (memory bound)", report.max_open_windows);
            if let Some(reporter) = reporter {
                reporter.stop();
            }
            println!("OK: service run complete");
        }
        Err(error) => {
            let crashed = faulty.as_ref().is_some_and(|f| f.crashed());
            if let Some(reporter) = reporter {
                reporter.stop();
            }
            if crashed {
                let ops = faulty.expect("faulty storage present").ops();
                println!("KILLED: injected storage crash after {ops} operations ({error})");
                println!("  rerun with the same --dir (no --kill-at) to recover and resume");
            } else {
                eprintln!("service failed: {error}");
                std::process::exit(1);
            }
        }
    }
}

fn run_service(
    flags: &ServiceFlags,
    dataset: &ipfs_mon_tracestore::MonitoringDataset,
    labels: Vec<String>,
    config: ServiceConfig,
    storage: Arc<dyn Storage>,
) -> Result<ipfs_mon_core::ServiceReport, SegmentError> {
    let (mut service, recovery) = MonitorService::open_with(&flags.dir, labels, config, storage)?;
    let durable: Vec<u64> = if recovery.resume.is_empty() {
        vec![0; dataset.monitor_labels.len()]
    } else {
        recovery.resume.iter().map(|c| c.entries_durable).collect()
    };
    print_row(
        "recovery",
        format!(
            "clean={} durable per monitor {:?}, {} windows already emitted",
            recovery.clean,
            durable,
            service.windows_durable_at_open()
        ),
    );

    // Feed everything the previous incarnation (if any) had not made
    // durable, in merged time order, polling as we go. Count every line
    // surfaced so far across all incarnations: windows durable at open
    // were printed by the runs that committed them (each run drains its
    // own tail on death — see below).
    let poll_every = (dataset.total_entries() / 64).max(1);
    let mut fed_per_monitor = vec![0u64; dataset.monitor_labels.len()];
    let mut since_poll = 0usize;
    let mut printed = service.windows_durable_at_open();
    let mut failure = None;
    for entry in dataset.merged_entries() {
        let fed = &mut fed_per_monitor[entry.monitor];
        *fed += 1;
        if *fed <= durable[entry.monitor] {
            continue; // already on disk from the previous incarnation
        }
        if let Err(error) = service.ingest(&entry) {
            failure = Some(error);
            break;
        }
        since_poll += 1;
        if since_poll >= poll_every {
            since_poll = 0;
            match service.checkpoint().and_then(|()| service.poll()) {
                Ok(lines) => {
                    for line in lines {
                        println!("WINDOW {line}");
                        printed += 1;
                    }
                }
                Err(error) => {
                    failure = Some(error);
                    break;
                }
            }
        }
    }
    match failure.map_or_else(|| service.finish(), Err) {
        Ok(report) => {
            for line in &report.lines {
                println!("WINDOW {line}");
            }
            Ok(report)
        }
        Err(error) => {
            // A window can become durable in the log right before the
            // crash, in which case its line never reached stdout (and the
            // next incarnation will skip the window as already emitted).
            // The log is the source of truth — surface whatever it holds
            // beyond what was printed, so the concatenation of WINDOW lines
            // across incarnations stays exactly-once.
            print_unreported_windows(&flags.dir, printed)?;
            Err(error)
        }
    }
}

/// Prints `WINDOW` lines for the logged windows that the dying
/// incarnation made durable but never surfaced. A log frame holds exactly
/// the bytes `poll` would have returned, so this is a faithful replay.
fn print_unreported_windows(dir: &Path, already_printed: u64) -> Result<(), SegmentError> {
    let logged = read_window_log(dir)?;
    for line in logged.iter().skip(already_printed as usize) {
        println!("WINDOW {line}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<ServiceFlags, String> {
        ServiceFlags::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn service_flags_refuse_a_window_the_service_cannot_use() {
        let flags = parse("--dir d --window-mins 5 --kill-at 60").unwrap();
        assert_eq!(
            (flags.dir, flags.kill_at, flags.window_mins),
            (PathBuf::from("d"), Some(60), 5)
        );
        assert_eq!(parse("--dir d").unwrap().window_mins, 30);
        // `WindowSpec::tumbling` panics on a zero window, after the
        // simulation has run: refuse it while parsing.
        assert!(parse("--dir d --window-mins 0").is_err());
        // Minutes whose milliseconds overflow `u64` would wrap the window.
        let max_mins = u64::MAX / 60_000;
        assert!(parse(&format!("--dir d --window-mins {max_mins}")).is_ok());
        assert!(parse(&format!("--dir d --window-mins {}", max_mins + 1)).is_err());
        assert!(parse("--window-mins 5").is_err());
    }
}
