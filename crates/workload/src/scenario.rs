//! End-to-end scenario building.
//!
//! [`ScenarioConfig`] bundles the population, catalog, workload and monitoring
//! parameters; [`build_scenario`] turns it into an executable
//! [`Scenario`]. Every experiment binary in `ipfs-mon-bench` starts from one
//! of the presets here and tweaks the knobs relevant to its table or figure.

use crate::catalog::{generate_catalog, CatalogConfig};
use crate::population::{generate_population, PopulationConfig};
use crate::requests::{drain_workload_sources, lazy_workload_sources, RequestWorkloadConfig};
use ipfs_mon_node::{DynWorkloadSource, MonitorSpec, Scenario, ScenarioParams};
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_types::Country;

/// Configuration of one monitor deployment.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Label used in reports ("us", "de").
    pub label: String,
    /// Deployment country.
    pub country: Country,
    /// Probability that an online node is connected to this monitor.
    pub attach_probability: f64,
}

/// Full configuration of a generated scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed.
    pub seed: u64,
    /// Simulated period.
    pub horizon: SimDuration,
    /// Node population.
    pub population: PopulationConfig,
    /// Content catalog.
    pub catalog: CatalogConfig,
    /// Request workload.
    pub workload: RequestWorkloadConfig,
    /// Monitoring deployment. The paper's setup: one monitor in the US and
    /// one in Germany.
    pub monitors: Vec<MonitorConfig>,
    /// Global simulation parameters.
    pub params: ScenarioParams,
}

impl ScenarioConfig {
    /// The paper-like two-monitor deployment (us + de).
    pub fn paper_monitors() -> Vec<MonitorConfig> {
        vec![
            MonitorConfig {
                label: "us".into(),
                country: Country::Us,
                attach_probability: 0.72,
            },
            MonitorConfig {
                label: "de".into(),
                country: Country::De,
                attach_probability: 0.66,
            },
        ]
    }

    /// A small scenario suitable for unit/integration tests: a few hundred
    /// nodes, a couple of simulated hours.
    pub fn small_test(seed: u64) -> Self {
        Self {
            seed,
            horizon: SimDuration::from_hours(6),
            population: PopulationConfig::small(300),
            catalog: CatalogConfig {
                items: 400,
                ..CatalogConfig::default()
            },
            workload: RequestWorkloadConfig {
                gateway_requests_per_hour: 60.0,
                ..RequestWorkloadConfig::default()
            },
            monitors: Self::paper_monitors(),
            params: ScenarioParams::default(),
        }
    }

    /// The "analysis week" preset used by most experiments: a multi-thousand
    /// node network observed for seven days by two monitors, mirroring the
    /// April 30 – May 6 2021 window the paper focuses on.
    pub fn analysis_week(seed: u64, nodes: usize) -> Self {
        Self {
            seed,
            horizon: SimDuration::from_days(7),
            population: PopulationConfig::small(nodes),
            catalog: CatalogConfig {
                items: (nodes * 4).max(1_000),
                ..CatalogConfig::default()
            },
            workload: RequestWorkloadConfig::default(),
            monitors: Self::paper_monitors(),
            params: ScenarioParams::default(),
        }
    }
}

/// Builds an executable scenario from a configuration, its request vectors
/// drained from the sources [`build_scenario_lazy`] returns.
pub fn build_scenario(config: &ScenarioConfig) -> Scenario {
    let (mut scenario, sources) = build_scenario_lazy(config);
    (scenario.requests, scenario.gateway_requests) = drain_workload_sources(sources);
    scenario
}

/// Builds a scenario whose request workload is generated *lazily*: the
/// returned scenario carries empty request vectors, and the accompanying
/// sources draw the requests one event at a time. Feeding them to
/// [`ipfs_mon_node::Network::with_sources`] yields a monitor trace
/// byte-identical to running the eagerly built scenario, with memory bounded
/// by the population instead of `population × horizon`.
///
/// ```
/// use ipfs_mon_node::{Network, RecordingSink};
/// use ipfs_mon_simnet::time::SimDuration;
/// use ipfs_mon_workload::{build_scenario, build_scenario_lazy, ScenarioConfig};
///
/// let mut config = ScenarioConfig::small_test(7);
/// config.population.nodes = 20;
/// config.catalog.items = 40;
/// config.horizon = SimDuration::from_hours(1);
///
/// // Eager: the whole request vector is materialized up front…
/// let eager = build_scenario(&config);
/// assert!(!eager.requests.is_empty());
/// let mut eager_sink = RecordingSink::new(eager.monitors.len());
/// Network::new(eager).run(&mut eager_sink);
///
/// // …lazy: no vectors at all, the same events drawn while running.
/// let (scenario, sources) = build_scenario_lazy(&config);
/// assert!(scenario.requests.is_empty() && scenario.gateway_requests.is_empty());
/// let mut lazy_sink = RecordingSink::new(scenario.monitors.len());
/// Network::with_sources(scenario, sources).run(&mut lazy_sink);
///
/// assert_eq!(eager_sink.observations, lazy_sink.observations);
/// ```
pub fn build_scenario_lazy(config: &ScenarioConfig) -> (Scenario, Vec<DynWorkloadSource>) {
    let rng = SimRng::new(config.seed);

    let mut population_rng = rng.derive("population");
    let population = generate_population(&config.population, config.horizon, &mut population_rng);

    let mut catalog_rng = rng.derive("catalog");
    let catalog = generate_catalog(&config.catalog, population.nodes.len(), &mut catalog_rng);

    let operator_shares: Vec<f64> = population
        .operators
        .iter()
        .map(|op| op.traffic_share.max(0.0))
        .collect();

    let mut scenario = Scenario::new(config.seed, config.horizon);
    scenario.nodes = population.nodes;
    scenario.operators = population.operators;
    scenario.content = catalog;
    scenario.params = config.params;
    scenario.monitors = config
        .monitors
        .iter()
        .map(|m| MonitorSpec::new(m.label.clone(), m.country, m.attach_probability))
        .collect();

    let sources = lazy_workload_sources(
        &config.workload,
        &scenario.nodes,
        &operator_shares,
        scenario.content.len(),
        config.horizon,
        &rng.derive("requests"),
        &rng.derive("gateway-requests"),
    );
    (scenario, sources)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_test_scenario_is_consistent() {
        let scenario = build_scenario(&ScenarioConfig::small_test(7));
        assert!(scenario.validate().is_empty(), "{:?}", scenario.validate());
        assert_eq!(scenario.monitors.len(), 2);
        assert!(!scenario.requests.is_empty());
        assert!(!scenario.gateway_requests.is_empty());
        assert!(scenario.nodes.len() > 300, "gateway nodes appended");
    }

    #[test]
    fn scenario_generation_is_deterministic() {
        let a = build_scenario(&ScenarioConfig::small_test(11));
        let b = build_scenario(&ScenarioConfig::small_test(11));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.gateway_requests, b.gateway_requests);
        assert_eq!(a.content.len(), b.content.len());
        assert_eq!(
            a.content.first().map(|c| c.dag.root.clone()),
            b.content.first().map(|c| c.dag.root.clone())
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = build_scenario(&ScenarioConfig::small_test(1));
        let b = build_scenario(&ScenarioConfig::small_test(2));
        assert_ne!(
            a.content.first().map(|c| c.dag.root.clone()),
            b.content.first().map(|c| c.dag.root.clone())
        );
    }

    #[test]
    fn lazy_scenario_runs_byte_identical_to_eager() {
        use ipfs_mon_node::{Network, RecordingSink};

        let config = ScenarioConfig::small_test(23);
        let eager = build_scenario(&config);
        let monitor_count = eager.monitors.len();
        let mut eager_sink = RecordingSink::new(monitor_count);
        let eager_report = Network::new(eager).run(&mut eager_sink);

        let (lazy, sources) = build_scenario_lazy(&config);
        assert!(lazy.requests.is_empty() && lazy.gateway_requests.is_empty());
        let mut lazy_sink = RecordingSink::new(monitor_count);
        let lazy_report = Network::with_sources(lazy, sources).run(&mut lazy_sink);

        assert_eq!(eager_sink.observations, lazy_sink.observations);
        assert_eq!(eager_sink.connections, lazy_sink.connections);
        assert_eq!(eager_report.events_processed, lazy_report.events_processed);
    }

    #[test]
    fn analysis_week_spans_seven_days() {
        let config = ScenarioConfig::analysis_week(3, 500);
        assert_eq!(config.horizon, SimDuration::from_days(7));
        let scenario = build_scenario(&config);
        assert!(scenario.validate().is_empty());
        // Requests spread across the whole week.
        let last = scenario.requests.last().unwrap().at;
        assert!(last > ipfs_mon_simnet::time::SimTime::ZERO + SimDuration::from_days(6));
    }
}
