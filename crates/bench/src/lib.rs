//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper has a dedicated binary under
//! `src/bin/`; they all follow the same recipe — build a scenario, run the
//! network simulation with a [`MonitorCollector`] attached, preprocess the
//! traces, compute the analysis, print the rows the paper reports — and share
//! the helpers in this crate.
//!
//! Experiment scale can be adjusted with the `IPFS_MON_SCALE` environment
//! variable (a finite positive float multiplying node counts; default 1.0),
//! so the same binaries serve quick smoke runs and larger reproductions.
//! Each binary parses its arguments once, through [`args_or_exit`]: an
//! argument it does not act on, or an `IPFS_MON_SCALE` it cannot use, stops
//! it with its usage line before anything is simulated.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ipfs_mon_core::{
    unify_and_flag, MonitorCollector, MonitoringDataset, PreprocessConfig, PreprocessStats,
    UnifiedTrace,
};
use ipfs_mon_node::{Network, RunReport};
use ipfs_mon_types::PeerId;
use ipfs_mon_workload::{build_scenario, build_scenario_lazy, ScenarioConfig};
use std::collections::HashSet;

/// Everything an experiment typically needs after a simulation run.
pub struct ExperimentRun {
    /// The executed network (for ground truth and attack APIs).
    pub network: Network,
    /// Raw per-monitor dataset.
    pub dataset: MonitoringDataset,
    /// Unified, flagged trace.
    pub trace: UnifiedTrace,
    /// Preprocessing statistics.
    pub preprocess: PreprocessStats,
    /// Simulation report.
    pub report: RunReport,
}

/// Builds and runs a scenario end to end with the standard monitoring
/// pipeline attached.
pub fn run_experiment(config: &ScenarioConfig) -> ExperimentRun {
    let scenario = build_scenario(config);
    let labels: Vec<String> = scenario.monitors.iter().map(|m| m.label.clone()).collect();
    let network = Network::new(scenario);
    run_network_with_labels(network, labels)
}

/// Like [`run_experiment`], but the request workload is generated lazily
/// while the simulation runs (`build_scenario_lazy` +
/// [`Network::with_sources`]): no request vector is ever materialized, so
/// memory stays bounded by the population even for order-of-magnitude larger
/// horizons. The monitor trace is byte-identical to [`run_experiment`].
pub fn run_experiment_lazy(config: &ScenarioConfig) -> ExperimentRun {
    let (scenario, sources) = build_scenario_lazy(config);
    let labels: Vec<String> = scenario.monitors.iter().map(|m| m.label.clone()).collect();
    let network = Network::with_sources(scenario, sources);
    run_network_with_labels(network, labels)
}

/// Runs an already-built network (used by experiments that modify the network
/// before execution, e.g. gateway probing).
pub fn run_network(network: Network) -> ExperimentRun {
    let labels: Vec<String> = network
        .scenario()
        .monitors
        .iter()
        .map(|m| m.label.clone())
        .collect();
    run_network_with_labels(network, labels)
}

fn run_network_with_labels(mut network: Network, labels: Vec<String>) -> ExperimentRun {
    let mut collector = MonitorCollector::new(labels);
    let report = network.run(&mut collector);
    let dataset = collector.into_dataset();
    let (trace, preprocess) = unify_and_flag(&dataset, PreprocessConfig::default());
    ExperimentRun {
        network,
        dataset,
        trace,
        preprocess,
        report,
    }
}

/// The peer IDs of all gateway nodes of the executed scenario, plus the peers
/// of the operator with the largest traffic share (the "Cloudflare-like" one).
pub fn gateway_peer_sets(network: &Network) -> (HashSet<PeerId>, HashSet<PeerId>) {
    let scenario = network.scenario();
    let mut all = HashSet::new();
    let mut dominant = HashSet::new();
    let dominant_op = scenario
        .operators
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.traffic_share
                .partial_cmp(&b.1.traffic_share)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(i, _)| i);
    for (i, op) in scenario.operators.iter().enumerate() {
        for &node in &op.node_indices {
            let peer = network.peer_id(node);
            all.insert(peer);
            if Some(i) == dominant_op {
                dominant.insert(peer);
            }
        }
    }
    (all, dominant)
}

/// Spills a dataset into a fresh multi-segment manifest directory (per-monitor
/// segment chains rotated every `rotate_after_entries` entries) and returns
/// the summary. Experiments use this to re-run their analyses from a
/// [`ipfs_mon_tracestore::ManifestReader`]-backed
/// [`ipfs_mon_tracestore::TraceSource`] and assert streaming/in-memory
/// equivalence; the caller owns (and should remove) the directory.
pub fn spill_to_manifest(
    dataset: &MonitoringDataset,
    dir: &std::path::Path,
    rotate_after_entries: u64,
) -> ipfs_mon_tracestore::DatasetSummary {
    use ipfs_mon_tracestore::{DatasetConfig, DatasetWriter};
    let config = DatasetConfig {
        rotate_after_entries,
        ..DatasetConfig::default()
    };
    let mut writer = DatasetWriter::create(dir, dataset.monitor_labels.clone(), config)
        .expect("create dataset dir");
    for per_monitor in &dataset.entries {
        for entry in per_monitor {
            writer.append(entry).expect("append entry");
        }
    }
    for connection in &dataset.connections {
        writer
            .record_connection(connection.clone())
            .expect("record connection");
    }
    writer.finish().expect("finish manifest")
}

/// Checks `IPFS_MON_SCALE`, then parses the process arguments (the program
/// name excluded) with `parse`. On an error, prints it and the usage line —
/// the program name followed by `usage`, the flags the binary takes — to
/// stderr and exits with status 2.
pub fn args_or_exit<T>(usage: &str, parse: impl FnOnce(std::env::Args) -> Result<T, String>) -> T {
    let mut args = std::env::args();
    let path = std::path::PathBuf::from(args.next().unwrap_or_default());
    let program = path.file_name().unwrap_or_default().to_string_lossy();
    scale_from_env()
        .and_then(|_| parse(args))
        .unwrap_or_else(|error| {
            exit_with(format!("{program}: {error}\nusage: {program} {usage}").trim_end())
        })
}

/// [`args_or_exit`] for a binary that takes no arguments.
pub fn no_args() {
    args_or_exit("", |args| parse_flags(args, |_, _| Ok(false)));
}

/// Walks `args`, offering each to `take` along with the rest of the list,
/// from which `take` reads the argument's value. `take` returns whether it
/// acted on the argument; one it did not act on ends the walk with an error.
pub fn parse_flags(
    args: impl IntoIterator<Item = String>,
    mut take: impl FnMut(&str, &mut dyn Iterator<Item = String>) -> Result<bool, String>,
) -> Result<(), String> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !take(&arg, &mut args)? {
            return Err(format!("unexpected argument {arg:?}"));
        }
    }
    Ok(())
}

/// The value after `flag`, taken from `rest` and parsed.
pub fn flag_value<T: std::str::FromStr>(
    flag: &str,
    rest: &mut dyn Iterator<Item = String>,
) -> Result<T, String> {
    let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot use {value:?}"))
}

fn exit_with(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Scenario-scale choices of the simulation-heavy binaries, parsed from
/// `--population <n>` and `--horizon-days <d>` (on top of the
/// `IPFS_MON_SCALE` environment variable, which scales the population
/// default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleFlags {
    /// Number of ordinary nodes in the scenario.
    pub population: usize,
    /// Simulated horizon in days.
    pub horizon_days: u64,
}

impl ScaleFlags {
    /// The flags [`ScaleFlags::parse`] takes, for [`args_or_exit`].
    pub const USAGE: &'static str = "[--population <n>] [--horizon-days <d>]";

    /// Parses `args` against the given defaults (the population default is
    /// already `IPFS_MON_SCALE`-scaled by the caller).
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        default_population: usize,
        default_horizon_days: u64,
    ) -> Result<Self, String> {
        let mut flags = Self {
            population: default_population,
            horizon_days: default_horizon_days,
        };
        parse_flags(args, |arg, rest| {
            match arg {
                "--population" => flags.population = flag_value(arg, rest)?,
                "--horizon-days" => flags.horizon_days = flag_value(arg, rest)?,
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(flags)
    }
}

/// Heartbeat telemetry flags:
///
/// * `--obs <path>` — stream JSONL heartbeat lines to `path` (`-` for
///   stdout) while the run is in flight;
/// * `--obs-interval <ms>` — heartbeat period in milliseconds (default
///   1000).
///
/// See `docs/OBSERVABILITY.md` for the heartbeat schema. With no `--obs`
/// flag, [`ObsFlags::start`] starts nothing and the run is unchanged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsFlags {
    /// Heartbeat destination (`-` = stdout); `None` disables the reporter.
    pub path: Option<String>,
    /// Heartbeat period in milliseconds.
    pub interval_ms: Option<u64>,
}

impl ObsFlags {
    /// The flags [`ObsFlags::parse`] takes, for [`args_or_exit`].
    pub const USAGE: &'static str = "[--obs <path>|-] [--obs-interval <ms>]";

    /// Acts on `arg` if it is `--obs` or `--obs-interval`, taking its value
    /// from `rest`, and returns whether it did — so a binary with flags of
    /// its own parses these in the same walk ([`parse_flags`]).
    pub fn take(
        &mut self,
        arg: &str,
        rest: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--obs" => self.path = Some(flag_value(arg, rest)?),
            "--obs-interval" => self.interval_ms = Some(flag_value(arg, rest)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Parses the arguments of a binary whose only flags are these.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut flags = Self::default();
        parse_flags(args, |arg, rest| flags.take(arg, rest))?;
        Ok(flags)
    }

    /// Starts the heartbeat reporter if `--obs` was given. Hold the returned
    /// handle for the duration of the run and call
    /// [`ipfs_mon_obs::Reporter::stop`] before printing final summaries (the
    /// stop emits the last `"done":true` line).
    pub fn start(&self) -> Option<ipfs_mon_obs::Reporter> {
        let path = self.path.as_deref()?;
        let config = ipfs_mon_obs::ReporterConfig::with_interval(std::time::Duration::from_millis(
            self.interval_ms.unwrap_or(1000),
        ));
        Some(if path == "-" {
            ipfs_mon_obs::Reporter::stdout(config)
        } else {
            ipfs_mon_obs::Reporter::to_file(std::path::Path::new(path), config)
                .expect("create --obs output file")
        })
    }
}

/// Scale factor from the `IPFS_MON_SCALE` environment variable (default
/// 1.0). A value that is set but is not a finite positive number stops the
/// binary with status 2 ([`args_or_exit`] checks it first, with the usage
/// line).
pub fn scale_factor() -> f64 {
    scale_from_env().unwrap_or_else(|error| exit_with(&error))
}

fn scale_from_env() -> Result<f64, String> {
    std::env::var_os("IPFS_MON_SCALE")
        .map_or(Ok(1.0), |value| parse_scale(&value.to_string_lossy()))
}

fn parse_scale(value: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|scale| scale.is_finite() && *scale > 0.0)
        .ok_or_else(|| format!("IPFS_MON_SCALE={value:?} is not a finite positive number"))
}

/// Applies the scale factor to a node count.
pub fn scaled(nodes: usize) -> usize {
    ((nodes as f64) * scale_factor()).round().max(10.0) as usize
}

/// Prints a section header for experiment output.
pub fn print_header(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints a `label: value` row with aligned labels.
pub fn print_row(label: &str, value: impl std::fmt::Display) {
    println!("  {label:<42} {value}");
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", fraction * 100.0)
}

/// Re-export of the dataset type for binaries that persist results.
pub use ipfs_mon_core::MonitoringDataset as Dataset;

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn small_experiment_runs_end_to_end() {
        let config = ScenarioConfig::small_test(3);
        let run = run_experiment(&config);
        assert!(run.dataset.total_entries() > 0, "monitors saw traffic");
        assert_eq!(run.trace.len(), run.dataset.total_entries());
        assert!(run.report.events_processed > 0);
        assert!(run.preprocess.total > 0);
    }

    #[test]
    fn gateway_peer_sets_cover_operators() {
        let config = ScenarioConfig::small_test(4);
        let run = run_experiment(&config);
        let (all, dominant) = gateway_peer_sets(&run.network);
        assert!(!all.is_empty());
        assert!(!dominant.is_empty());
        assert!(dominant.is_subset(&all));
    }

    #[test]
    fn scale_helpers() {
        assert!(scaled(100) >= 10);
        assert_eq!(pct(0.5432), "54.32%");
    }

    #[test]
    fn scale_flags_take_their_own_flags_and_nothing_else() {
        let parse = |line| ScaleFlags::parse(args(line), 1_500, 3);
        let defaults = ScaleFlags {
            population: 1_500,
            horizon_days: 3,
        };
        assert_eq!(parse(""), Ok(defaults));
        assert_eq!(
            parse("--population 40 --horizon-days 1"),
            Ok(ScaleFlags {
                population: 40,
                horizon_days: 1
            })
        );
        // A flag of another family is not skipped: the binary would not act
        // on it.
        assert!(parse("--population 40 --obs -").is_err());
        assert!(parse("--codec col").is_err());
        assert!(parse("--population").is_err());
        assert!(parse("--horizon-days one").is_err());
    }

    #[test]
    fn obs_flags_take_their_own_flags_and_nothing_else() {
        assert_eq!(ObsFlags::parse(args("")), Ok(ObsFlags::default()));
        assert_eq!(
            ObsFlags::parse(args("--obs - --obs-interval 200")),
            Ok(ObsFlags {
                path: Some("-".into()),
                interval_ms: Some(200)
            })
        );
        assert!(ObsFlags::parse(args("--population 5000 --codec col")).is_err());
        assert!(ObsFlags::parse(args("--obs")).is_err());
        assert!(ObsFlags::parse(args("--obs-interval soon")).is_err());
    }

    #[test]
    fn a_binary_without_flags_refuses_every_argument() {
        let none = |line| parse_flags(args(line), |_, _| Ok(false));
        assert_eq!(none(""), Ok(()));
        assert_eq!(none("--obs -"), Err("unexpected argument \"--obs\"".into()));
        assert!(none("positional").is_err());
    }

    #[test]
    fn scale_must_be_a_finite_positive_number() {
        assert_eq!(parse_scale("0.05"), Ok(0.05));
        assert_eq!(parse_scale("8"), Ok(8.0));
        for refused in ["0,05", "", "0", "-1", "inf", "NaN", "1e400"] {
            assert!(parse_scale(refused).is_err(), "{refused:?} accepted");
        }
    }
}
