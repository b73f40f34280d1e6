//! Scenario specifications: the declarative input to a network simulation.
//!
//! A [`Scenario`] bundles the world a run happens in — the node population
//! (with churn schedules, countries, protocol-upgrade times), the content
//! catalog, the gateway operators, and the monitoring setup. The request
//! workload (node-initiated and gateway/HTTP-initiated) is not part of it:
//! it reaches a run as event sources yielding [`WorkloadEvent`]s (see
//! [`crate::network::Network::with_sources`]). The `ipfs-mon-workload` crate
//! generates both; [`crate::network::Network`] executes them.

use crate::config::NodeConfig;
use crate::gateway::GatewayOperator;
use crate::version::UpgradeSchedule;
use ipfs_mon_blockstore::BuiltDag;
use ipfs_mon_simnet::churn::NodeSchedule;
use ipfs_mon_simnet::region::LatencyModel;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_types::Country;

/// Specification of one simulated (non-monitor) node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Static node configuration (role, DHT mode, caching, …).
    pub config: NodeConfig,
    /// Country the node's address geolocates to.
    pub country: Country,
    /// Online/offline schedule over the simulated horizon.
    pub schedule: NodeSchedule,
    /// When (if ever) the node upgrades to WANT_HAVE-capable Bitswap.
    pub upgrade: UpgradeSchedule,
    /// Number of overlay connections the node maintains while online. Used
    /// for the neighbour-availability model and reported statistics.
    pub connections: u32,
}

/// Specification of one passive monitoring node.
#[derive(Debug, Clone)]
pub struct MonitorSpec {
    /// Short label ("us", "de") used in reports.
    pub label: String,
    /// Country the monitor is deployed in.
    pub country: Country,
    /// Probability that an online node ends up connected to this monitor.
    /// The paper's two monitors reached roughly half of the network each.
    pub attach_probability: f64,
}

impl MonitorSpec {
    /// Creates a monitor specification.
    pub fn new(label: impl Into<String>, country: Country, attach_probability: f64) -> Self {
        Self {
            label: label.into(),
            country,
            attach_probability,
        }
    }
}

/// One content item in the catalog.
#[derive(Debug, Clone)]
pub struct ContentSpec {
    /// The built DAG (root CID plus blocks).
    pub dag: BuiltDag,
    /// Indices of nodes that provide the content from the start of the run.
    /// An empty list models the paper's observation that many requested CIDs
    /// are not resolvable at all.
    pub initial_providers: Vec<usize>,
}

impl ContentSpec {
    /// Returns true if the item has no providers and can never be resolved
    /// (until someone else publishes it, which the simulation does not do).
    pub fn is_unresolvable(&self) -> bool {
        self.initial_providers.is_empty()
    }
}

/// A node-initiated ("homegrown") user request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestEvent {
    /// When the user asks their node for the content.
    pub at: SimTime,
    /// Index of the requesting node.
    pub node: usize,
    /// Index of the requested item in the content catalog.
    pub content: usize,
}

/// An HTTP request arriving at a public gateway operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayRequestEvent {
    /// When the HTTP request arrives.
    pub at: SimTime,
    /// Index of the gateway operator (into [`Scenario::operators`]).
    pub operator: usize,
    /// Index of the requested item in the content catalog.
    pub content: usize,
}

/// A workload event produced by an external lazy event source (see
/// [`crate::network::Network::with_sources`]): the payload of a pull-based
/// request process, with the timestamp supplied by the source itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadEvent {
    /// A node-initiated ("homegrown") user request.
    Request {
        /// Index of the requesting node.
        node: usize,
        /// Index of the requested item in the content catalog.
        content: usize,
    },
    /// An HTTP request arriving at a public gateway operator.
    Gateway {
        /// Index of the gateway operator.
        operator: usize,
        /// Index of the requested item in the content catalog.
        content: usize,
    },
}

/// Tunable global parameters of a scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    /// Re-broadcast interval for unresolved wants (30 s in IPFS).
    pub rebroadcast_interval: SimDuration,
    /// Mean latency model between countries.
    pub latency: LatencyModel,
    /// Delay distribution bounds for a retrieval served by a direct overlay
    /// neighbour, in milliseconds `(min, max)`.
    pub neighbour_fetch_ms: (u64, u64),
    /// Delay bounds for a retrieval that needed a DHT provider lookup first.
    pub dht_fetch_ms: (u64, u64),
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self {
            rebroadcast_interval: SimDuration::from_secs(30),
            latency: LatencyModel::default(),
            neighbour_fetch_ms: (200, 1_500),
            dht_fetch_ms: (1_000, 5_000),
        }
    }
}

/// A complete simulation scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Seed every random decision of the run derives from.
    pub seed: u64,
    /// Length of the simulated period.
    pub horizon: SimDuration,
    /// The node population (gateways included, monitors excluded).
    pub nodes: Vec<NodeSpec>,
    /// The passive monitoring deployment.
    pub monitors: Vec<MonitorSpec>,
    /// Gateway operators and which nodes they run.
    pub operators: Vec<GatewayOperator>,
    /// The content catalog.
    pub content: Vec<ContentSpec>,
    /// Global tunables.
    pub params: ScenarioParams,
}

impl Scenario {
    /// Creates an empty scenario shell with the given seed and horizon.
    pub fn new(seed: u64, horizon: SimDuration) -> Self {
        Self {
            seed,
            horizon,
            nodes: Vec::new(),
            monitors: Vec::new(),
            operators: Vec::new(),
            content: Vec::new(),
            params: ScenarioParams::default(),
        }
    }

    /// Number of nodes whose role is gateway.
    pub fn gateway_node_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.config.role.is_gateway())
            .count()
    }

    /// Basic sanity checks: indices in operators and content providers must be
    /// in range, attach probabilities in `[0, 1]` and node sessions in time
    /// order. Returns a list of problems (empty if the scenario is
    /// consistent).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, op) in self.operators.iter().enumerate() {
            for &idx in &op.node_indices {
                if idx >= self.nodes.len() {
                    problems.push(format!("operator {i} references node {idx} out of range"));
                } else if !self.nodes[idx].config.role.is_gateway() {
                    problems.push(format!(
                        "operator {i} references node {idx} which is not a gateway"
                    ));
                }
            }
        }
        for (i, c) in self.content.iter().enumerate() {
            for &p in &c.initial_providers {
                if p >= self.nodes.len() {
                    problems.push(format!("content {i} provider {p} out of range"));
                }
            }
        }
        for (i, m) in self.monitors.iter().enumerate() {
            if !(0.0..=1.0).contains(&m.attach_probability) {
                problems.push(format!("monitor {i} attach probability out of [0,1]"));
            }
        }
        // The lazy churn cursors read sessions in vector order, so the
        // documented NodeSchedule invariant (increasing, non-overlapping)
        // must actually hold.
        for (i, n) in self.nodes.iter().enumerate() {
            if n.schedule.sessions.iter().any(|s| s.end < s.start) {
                problems.push(format!("node {i} has a session ending before it starts"));
            }
            if n.schedule
                .sessions
                .windows(2)
                .any(|pair| pair[1].start < pair[0].end)
            {
                problems.push(format!(
                    "node {i} sessions overlap or are out of time order"
                ));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_mon_blockstore::build_file;
    use ipfs_mon_simnet::churn::{NodeSchedule, OnlineSession};

    fn always_online(horizon: SimDuration) -> NodeSchedule {
        NodeSchedule {
            stable: true,
            sessions: vec![OnlineSession {
                start: SimTime::ZERO,
                end: SimTime::ZERO + horizon,
            }],
        }
    }

    fn tiny_scenario() -> Scenario {
        let horizon = SimDuration::from_hours(1);
        let mut scenario = Scenario::new(1, horizon);
        scenario.nodes.push(NodeSpec {
            config: NodeConfig::regular(),
            country: Country::De,
            schedule: always_online(horizon),
            upgrade: UpgradeSchedule::always_modern(),
            connections: 700,
        });
        scenario
            .monitors
            .push(MonitorSpec::new("us", Country::Us, 0.8));
        scenario.content.push(ContentSpec {
            dag: build_file(1, 1000, 256 * 1024, 174),
            initial_providers: vec![0],
        });
        scenario
    }

    #[test]
    fn valid_scenario_has_no_problems() {
        assert!(tiny_scenario().validate().is_empty());
    }

    #[test]
    fn out_of_range_indices_are_reported() {
        let mut s = tiny_scenario();
        s.content[0].initial_providers.push(99);
        s.operators.push(GatewayOperator::new("gw", vec![42], 1.0));
        let problems = s.validate();
        assert!(problems.iter().any(|p| p.contains("provider 99")));
        assert!(problems
            .iter()
            .any(|p| p.contains("operator 0 references node 42")));
    }

    #[test]
    fn operator_must_reference_gateway_nodes() {
        let mut s = tiny_scenario();
        s.operators.push(GatewayOperator::new("gw", vec![0], 1.0));
        let problems = s.validate();
        assert!(problems.iter().any(|p| p.contains("not a gateway")));
    }

    #[test]
    fn unresolvable_content_detection() {
        let spec = ContentSpec {
            dag: build_file(9, 10, 1024, 4),
            initial_providers: vec![],
        };
        assert!(spec.is_unresolvable());
    }

    #[test]
    fn out_of_order_sessions_are_reported() {
        let mut s = tiny_scenario();
        s.nodes[0].schedule.sessions = vec![
            OnlineSession {
                start: SimTime::from_secs(100),
                end: SimTime::from_secs(200),
            },
            OnlineSession {
                start: SimTime::from_secs(10),
                end: SimTime::from_secs(20),
            },
        ];
        assert!(s
            .validate()
            .iter()
            .any(|p| p.contains("overlap or are out of time order")));
    }

    #[test]
    fn monitor_probability_validation() {
        let mut s = tiny_scenario();
        s.monitors.push(MonitorSpec::new("bad", Country::De, 1.5));
        assert!(s
            .validate()
            .iter()
            .any(|p| p.contains("attach probability")));
    }
}
