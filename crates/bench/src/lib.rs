//! Shared harness code for the experiment binaries and benchmarks.
//!
//! Every table and figure of the paper has a dedicated binary under
//! `src/bin/`; they all follow the same recipe — build a scenario, run the
//! network simulation with a [`MonitorCollector`] attached, preprocess the
//! traces, compute the analysis, print the rows the paper reports — and share
//! the helpers in this crate.
//!
//! Experiment scale can be adjusted with the `IPFS_MON_SCALE` environment
//! variable (a positive float multiplying node counts; default 1.0), so the
//! same binaries serve quick smoke runs and larger reproductions.

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
    spill_to_manifest_with(
        dataset,
        dir,
        ipfs_mon_tracestore::DatasetConfig {
            rotate_after_entries,
            ..ipfs_mon_tracestore::DatasetConfig::default()
        },
    )
}

/// Like [`spill_to_manifest`], with full control over the dataset
/// configuration.
pub fn spill_to_manifest_with(
    dataset: &MonitoringDataset,
    dir: &std::path::Path,
    config: ipfs_mon_tracestore::DatasetConfig,
) -> ipfs_mon_tracestore::DatasetSummary {
    use ipfs_mon_tracestore::DatasetWriter;
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

/// A [`MonitorSink`](ipfs_mon_node::MonitorSink) that folds everything it is
/// fed into one order-sensitive digest instead of storing it. Lets benchmarks
/// assert that two execution paths produced byte-identical monitor traces
/// without holding millions of observations in memory (which would distort
/// the measurement being taken).
#[derive(Debug)]
pub struct HashingSink {
    hasher: std::collections::hash_map::DefaultHasher,
    observations: u64,
    connection_events: u64,
}

impl Default for HashingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl HashingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self {
            hasher: std::collections::hash_map::DefaultHasher::new(),
            observations: 0,
            connection_events: 0,
        }
    }

    /// Order-sensitive digest over everything recorded so far.
    pub fn digest(&self) -> u64 {
        use std::hash::Hasher;
        self.hasher.finish()
    }

    /// Number of wantlist observations recorded.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Number of connect/disconnect events recorded.
    pub fn connection_events(&self) -> u64 {
        self.connection_events
    }
}

impl ipfs_mon_node::MonitorSink for HashingSink {
    fn record(&mut self, monitor: usize, observation: ipfs_mon_node::BitswapObservation) {
        use std::hash::Hash;
        (monitor, observation).hash(&mut self.hasher);
        self.observations += 1;
    }

    fn peer_connected(
        &mut self,
        monitor: usize,
        peer: ipfs_mon_types::PeerId,
        address: ipfs_mon_types::Multiaddr,
        at: ipfs_mon_simnet::time::SimTime,
    ) {
        use std::hash::Hash;
        (0u8, monitor, peer, address, at).hash(&mut self.hasher);
        self.connection_events += 1;
    }

    fn peer_disconnected(
        &mut self,
        monitor: usize,
        peer: ipfs_mon_types::PeerId,
        at: ipfs_mon_simnet::time::SimTime,
    ) {
        use std::hash::Hash;
        (1u8, monitor, peer, at).hash(&mut self.hasher);
        self.connection_events += 1;
    }
}

/// Scenario-scale choices shared by the simulation-heavy binaries, parsed
/// from the common command-line flags `--population <n>` and
/// `--horizon-days <d>` (on top of the `IPFS_MON_SCALE` environment
/// variable, which scales the population default).
#[derive(Debug, Clone, Copy)]
pub struct ScaleFlags {
    /// Number of ordinary nodes in the scenario.
    pub population: usize,
    /// Simulated horizon in days.
    pub horizon_days: u64,
}

impl ScaleFlags {
    /// Parses the process arguments against the given defaults (the
    /// population default is already `IPFS_MON_SCALE`-scaled by the caller);
    /// panics with usage on unknown flags.
    pub fn from_args(default_population: usize, default_horizon_days: u64) -> Self {
        let mut flags = Self {
            population: default_population,
            horizon_days: default_horizon_days,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--population" => {
                    flags.population = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--population needs a positive integer");
                }
                "--horizon-days" => {
                    flags.horizon_days = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--horizon-days needs a positive integer");
                }
                // Observability flags belong to [`ObsFlags`]; skip them (and
                // their values) so binaries can take both flag families.
                "--obs" | "--obs-interval" => {
                    args.next();
                }
                other => {
                    panic!(
                        "unknown flag {other:?} (expected --population <n>, --horizon-days <d>, \
                         --obs <path>, --obs-interval <ms>)"
                    )
                }
            }
        }
        flags
    }
}

/// Heartbeat telemetry flags shared by every bench/example binary:
///
/// * `--obs <path>` — stream JSONL heartbeat lines to `path` (`-` for
///   stdout) while the run is in flight;
/// * `--obs-interval <ms>` — heartbeat period in milliseconds (default
///   1000).
///
/// See `docs/OBSERVABILITY.md` for the heartbeat schema. With no `--obs`
/// flag, [`ObsFlags::start`] starts nothing and the run is unchanged.
#[derive(Debug, Clone, Default)]
pub struct ObsFlags {
    /// Heartbeat destination (`-` = stdout); `None` disables the reporter.
    pub path: Option<String>,
    /// Heartbeat period in milliseconds.
    pub interval_ms: Option<u64>,
}

impl ObsFlags {
    /// Parses the process arguments, ignoring flags it does not own (the
    /// scale parser does its own strict pass over the full argv, so
    /// unknown-flag rejection happens once in the binaries that take both).
    pub fn from_args() -> Self {
        let mut flags = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--obs" => {
                    flags.path = Some(args.next().expect("--obs needs a path (or - for stdout)"));
                }
                "--obs-interval" => {
                    flags.interval_ms = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .expect("--obs-interval needs milliseconds"),
                    );
                }
                _ => {}
            }
        }
        flags
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

/// Scale factor from the `IPFS_MON_SCALE` environment variable (default 1.0).
pub fn scale_factor() -> f64 {
    std::env::var("IPFS_MON_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
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
}
