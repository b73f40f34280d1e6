//! End-to-end scenario building.
//!
//! [`ScenarioConfig`] bundles the population, catalog, workload and monitoring
//! parameters; [`build_scenario_lazy`] turns it into an executable
//! [`Scenario`] and the event sources that draw its requests. Every
//! experiment binary in `ipfs-mon-bench` starts from one of the presets here
//! and tweaks the knobs relevant to its table or figure.

use crate::catalog::{generate_catalog, CatalogConfig};
use crate::population::{generate_population, PopulationConfig};
use crate::requests::{lazy_workload_sources, RequestWorkloadConfig};
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

/// Builds an executable scenario from a configuration, together with the
/// event sources that draw its request workload one event at a time while
/// [`ipfs_mon_node::Network::with_sources`] runs it: memory stays bounded by
/// the population instead of `population × horizon`. The sources of a second
/// call, drained with [`crate::drain_workload_sources`], are the run's
/// request log, in the order the run delivers it.
///
/// ```
/// use ipfs_mon_node::{Network, RecordingSink};
/// use ipfs_mon_simnet::time::SimDuration;
/// use ipfs_mon_workload::{build_scenario_lazy, drain_workload_sources, ScenarioConfig};
///
/// let mut config = ScenarioConfig::small_test(7);
/// config.population.nodes = 20;
/// config.catalog.items = 40;
/// config.horizon = SimDuration::from_hours(1);
///
/// let (scenario, sources) = build_scenario_lazy(&config);
/// let mut sink = RecordingSink::new(scenario.monitors.len());
/// let report = Network::with_sources(scenario, sources).run(&mut sink);
/// assert!(sink.total_observations() > 0);
///
/// // The same draws as a log: every gateway HTTP request the run handled.
/// let (_, gateway) = drain_workload_sources(build_scenario_lazy(&config).1);
/// assert_eq!(report.counters.get("gateway_http_requests"), gateway.len() as u64);
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
    use crate::drain_workload_sources;
    use ipfs_mon_node::{GatewayRequestEvent, Network, RecordingSink, RequestEvent, WorkloadEvent};
    use ipfs_mon_simnet::source::EventSource;
    use ipfs_mon_simnet::time::SimTime;
    use std::sync::{Arc, Mutex};

    /// A workload source that logs every event a run pulls from it.
    struct Logged {
        inner: DynWorkloadSource,
        log: Arc<Mutex<Vec<(SimTime, WorkloadEvent)>>>,
    }

    impl EventSource for Logged {
        type Event = WorkloadEvent;

        fn peek_time(&self) -> Option<SimTime> {
            self.inner.peek_time()
        }

        fn next_event(&mut self) -> Option<(SimTime, WorkloadEvent)> {
            let event = self.inner.next_event()?;
            self.log.lock().expect("log lock").push(event);
            Some(event)
        }
    }

    /// The attack experiments take their ground truth from
    /// `drain_workload_sources(build_scenario_lazy(&config).1)`: it must be
    /// exactly the requests a run of the same config pulls, in pull order.
    #[test]
    fn drained_sources_are_the_requests_a_run_pulls() {
        let config = ScenarioConfig::small_test(23);
        let (scenario, sources) = build_scenario_lazy(&config);
        let log = Arc::new(Mutex::new(Vec::new()));
        let logged = sources
            .into_iter()
            .map(|inner| {
                let log = Arc::clone(&log);
                Box::new(Logged { inner, log }) as DynWorkloadSource
            })
            .collect();
        let mut sink = RecordingSink::new(scenario.monitors.len());
        Network::with_sources(scenario, logged).run(&mut sink);

        let (mut requests, mut gateway) = (Vec::new(), Vec::new());
        for &(at, event) in log.lock().expect("log lock").iter() {
            match event {
                WorkloadEvent::Request { node, content } => {
                    requests.push(RequestEvent { at, node, content })
                }
                WorkloadEvent::Gateway { operator, content } => gateway.push(GatewayRequestEvent {
                    at,
                    operator,
                    content,
                }),
            }
        }
        assert!(!requests.is_empty() && !gateway.is_empty());
        assert_eq!(
            (requests, gateway),
            drain_workload_sources(build_scenario_lazy(&config).1)
        );
    }

    #[test]
    fn small_test_scenario_is_consistent() {
        let (scenario, sources) = build_scenario_lazy(&ScenarioConfig::small_test(7));
        assert!(scenario.validate().is_empty(), "{:?}", scenario.validate());
        assert_eq!(scenario.monitors.len(), 2);
        let (requests, gateway_requests) = drain_workload_sources(sources);
        assert!(!requests.is_empty());
        assert!(!gateway_requests.is_empty());
        assert!(scenario.nodes.len() > 300, "gateway nodes appended");
    }

    #[test]
    fn scenario_generation_is_deterministic() {
        let (a, a_sources) = build_scenario_lazy(&ScenarioConfig::small_test(11));
        let (b, b_sources) = build_scenario_lazy(&ScenarioConfig::small_test(11));
        assert_eq!(
            drain_workload_sources(a_sources),
            drain_workload_sources(b_sources)
        );
        assert_eq!(a.content.len(), b.content.len());
        assert_eq!(
            a.content.first().map(|c| c.dag.root.clone()),
            b.content.first().map(|c| c.dag.root.clone())
        );
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = build_scenario_lazy(&ScenarioConfig::small_test(1));
        let (b, _) = build_scenario_lazy(&ScenarioConfig::small_test(2));
        assert_ne!(
            a.content.first().map(|c| c.dag.root.clone()),
            b.content.first().map(|c| c.dag.root.clone())
        );
    }

    #[test]
    fn analysis_week_spans_seven_days() {
        let config = ScenarioConfig::analysis_week(3, 500);
        assert_eq!(config.horizon, SimDuration::from_days(7));
        let (scenario, sources) = build_scenario_lazy(&config);
        assert!(scenario.validate().is_empty());
        // Requests spread across the whole week.
        let last = drain_workload_sources(sources).0.last().unwrap().at;
        assert!(last > ipfs_mon_simnet::time::SimTime::ZERO + SimDuration::from_days(6));
    }
}
