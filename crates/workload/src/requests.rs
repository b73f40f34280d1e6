//! Request-workload generation.
//!
//! Generates the two request streams of a scenario:
//!
//! * **node-initiated ("homegrown") requests** — each node runs a Poisson
//!   request process while it is online, with a per-node rate drawn from a
//!   heavy-tailed distribution (most nodes request rarely, a few are extremely
//!   active — the paper explicitly observes such outliers);
//! * **gateway HTTP requests** — a Poisson stream per gateway operator,
//!   weighted by the operator's traffic share, with its own (typically more
//!   head-heavy) popularity profile.
//!
//! Each stream is generated once, by a pull-based source
//! ([`lazy_workload_sources`]) that draws one event at a time, so a
//! simulation can run arbitrarily long horizons without ever holding the
//! full request list in memory. Where the whole list is wanted — the ground
//! truth the attack experiments check against — [`drain_workload_sources`]
//! drains a second copy of the same sources.

use crate::popularity::{PopularityModel, PopularitySampler};
use ipfs_mon_node::{
    DynWorkloadSource, GatewayRequestEvent, NodeSpec, RequestEvent, WorkloadEvent,
};
use ipfs_mon_simnet::churn::OnlineSession;
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_simnet::source::EventSource;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use std::sync::Arc;

/// Configuration of the request workload.
#[derive(Debug, Clone)]
pub struct RequestWorkloadConfig {
    /// Mean request rate per node, in requests per hour of online time.
    pub mean_node_requests_per_hour: f64,
    /// Pareto shape of the per-node rate distribution (lower = heavier tail;
    /// must be > 1 so the mean exists).
    pub rate_shape: f64,
    /// Popularity model for node-initiated requests.
    pub node_popularity: PopularityModel,
    /// Total gateway HTTP request rate (requests per hour across all
    /// operators).
    pub gateway_requests_per_hour: f64,
    /// Popularity model for gateway requests.
    pub gateway_popularity: PopularityModel,
}

impl Default for RequestWorkloadConfig {
    fn default() -> Self {
        Self {
            mean_node_requests_per_hour: 2.0,
            rate_shape: 1.6,
            node_popularity: PopularityModel::paper_default(),
            gateway_requests_per_hour: 400.0,
            gateway_popularity: PopularityModel::Zipf { exponent: 1.1 },
        }
    }
}

/// The Poisson request process of one node, pulled one event at a time:
/// the per-node rate is drawn first, then a gap and a content pick per
/// arrival while the node is online.
struct NodeRequestSource {
    node: usize,
    sessions: Arc<[OnlineSession]>,
    sampler: Arc<PopularitySampler>,
    rng: SimRng,
    mean_gap_secs: f64,
    session_idx: usize,
    t: SimTime,
    head: Option<(SimTime, usize)>,
}

impl NodeRequestSource {
    fn new(
        node: usize,
        sessions: Arc<[OnlineSession]>,
        sampler: Arc<PopularitySampler>,
        mut rng: SimRng,
        rate_mean_per_hour: f64,
        rate_shape: f64,
    ) -> Self {
        // Per-node rate: Pareto around the configured mean (the first draw
        // from this node's stream).
        let x_min = rate_mean_per_hour * (rate_shape - 1.0) / rate_shape;
        let rate_per_hour = rng.sample_pareto(x_min.max(1e-3), rate_shape);
        let t = sessions.first().map(|s| s.start).unwrap_or(SimTime::ZERO);
        let mut source = Self {
            node,
            sessions,
            sampler,
            rng,
            mean_gap_secs: 3600.0 / rate_per_hour,
            session_idx: 0,
            t,
            head: None,
        };
        source.advance_head();
        source
    }

    /// Advances the Poisson walk to the next in-session arrival.
    fn advance_head(&mut self) {
        loop {
            let Some(session) = self.sessions.get(self.session_idx) else {
                self.head = None;
                return;
            };
            let gap = self.rng.sample_exponential(self.mean_gap_secs);
            self.t += SimDuration::from_secs_f64(gap);
            if self.t >= session.end {
                self.session_idx += 1;
                if let Some(next) = self.sessions.get(self.session_idx) {
                    self.t = next.start;
                }
                continue;
            }
            let content = self.sampler.sample(&mut self.rng);
            self.head = Some((self.t, content));
            return;
        }
    }
}

impl EventSource for NodeRequestSource {
    type Event = WorkloadEvent;

    fn peek_time(&self) -> Option<SimTime> {
        self.head.map(|(t, _)| t)
    }

    fn next_event(&mut self) -> Option<(SimTime, WorkloadEvent)> {
        let (t, content) = self.head?;
        self.advance_head();
        Some((
            t,
            WorkloadEvent::Request {
                node: self.node,
                content,
            },
        ))
    }
}

/// The global gateway HTTP arrival stream, pulled one event at a time.
struct GatewayRequestSource {
    shares: Vec<f64>,
    sampler: Arc<PopularitySampler>,
    rng: SimRng,
    mean_gap_secs: f64,
    horizon_end: SimTime,
    t: SimTime,
    head: Option<(SimTime, usize, usize)>,
}

impl GatewayRequestSource {
    fn new(
        shares: Vec<f64>,
        sampler: Arc<PopularitySampler>,
        rng: SimRng,
        mean_gap_secs: f64,
        horizon_end: SimTime,
    ) -> Self {
        let mut source = Self {
            shares,
            sampler,
            rng,
            mean_gap_secs,
            horizon_end,
            t: SimTime::ZERO,
            head: None,
        };
        source.advance_head();
        source
    }

    fn advance_head(&mut self) {
        let gap = self.rng.sample_exponential(self.mean_gap_secs);
        self.t += SimDuration::from_secs_f64(gap);
        if self.t >= self.horizon_end {
            self.head = None;
            return;
        }
        let operator = self.rng.sample_weighted_index(&self.shares);
        let content = self.sampler.sample(&mut self.rng);
        self.head = Some((self.t, operator, content));
    }
}

impl EventSource for GatewayRequestSource {
    type Event = WorkloadEvent;

    fn peek_time(&self) -> Option<SimTime> {
        self.head.map(|(t, _, _)| t)
    }

    fn next_event(&mut self) -> Option<(SimTime, WorkloadEvent)> {
        let (t, operator, content) = self.head?;
        self.advance_head();
        Some((t, WorkloadEvent::Gateway { operator, content }))
    }
}

/// Builds the full set of lazy workload sources for a scenario: one
/// node-request source per non-gateway node in index order, followed by
/// the gateway stream — the rank order
/// [`ipfs_mon_node::Network::with_sources`] breaks timestamp ties by.
///
/// `node_rng` draws the node requests and `gateway_rng` the gateway ones;
/// a scenario passes its seed's `"requests"`- and
/// `"gateway-requests"`-derived streams.
pub fn lazy_workload_sources(
    config: &RequestWorkloadConfig,
    nodes: &[NodeSpec],
    operator_shares: &[f64],
    catalog_size: usize,
    horizon: SimDuration,
    node_rng: &SimRng,
    gateway_rng: &SimRng,
) -> Vec<DynWorkloadSource> {
    assert!(catalog_size > 0, "catalog must not be empty");
    let mut sources: Vec<DynWorkloadSource> = Vec::new();

    let mut sampler_rng = node_rng.derive("node-popularity");
    let node_sampler = Arc::new(PopularitySampler::new(
        config.node_popularity,
        catalog_size,
        &mut sampler_rng,
    ));
    let shape = config.rate_shape.max(1.05);
    for (index, node) in nodes.iter().enumerate() {
        // Gateway nodes are driven by the HTTP workload, not by local users.
        if node.config.role.is_gateway() {
            continue;
        }
        let rng = node_rng.derive_indexed("requests", index as u64);
        sources.push(Box::new(NodeRequestSource::new(
            index,
            node.schedule.sessions.clone().into(),
            Arc::clone(&node_sampler),
            rng,
            config.mean_node_requests_per_hour,
            shape,
        )));
    }

    if !operator_shares.is_empty() && config.gateway_requests_per_hour > 0.0 {
        let mut sampler_rng = gateway_rng.derive("gateway-popularity");
        let gateway_sampler = Arc::new(PopularitySampler::new(
            config.gateway_popularity,
            catalog_size,
            &mut sampler_rng,
        ));
        let stream_rng = gateway_rng.derive("gateway-arrivals");
        sources.push(Box::new(GatewayRequestSource::new(
            operator_shares.to_vec(),
            gateway_sampler,
            stream_rng,
            3600.0 / config.gateway_requests_per_hour,
            SimTime::ZERO + horizon,
        )));
    }
    sources
}

/// Drains `sources` into the request log of a run: node requests in
/// `(time, rank)` order with each source's arrival order kept on ties, the
/// order [`ipfs_mon_node::Network::with_sources`] delivers them in, and
/// gateway requests as their one source yields them. Over the sources of
/// [`crate::build_scenario_lazy`] it is the ground truth of what the run's
/// users asked for; the attack experiments check their findings against it.
pub fn drain_workload_sources(
    sources: Vec<DynWorkloadSource>,
) -> (Vec<RequestEvent>, Vec<GatewayRequestEvent>) {
    let mut requests = Vec::new();
    let mut gateway_requests = Vec::new();
    for mut source in sources {
        while let Some((at, event)) = source.next_event() {
            match event {
                WorkloadEvent::Request { node, content } => {
                    requests.push(RequestEvent { at, node, content })
                }
                WorkloadEvent::Gateway { operator, content } => {
                    gateway_requests.push(GatewayRequestEvent {
                        at,
                        operator,
                        content,
                    })
                }
            }
        }
    }
    // Sources come in rank order and each yields in time order, so a stable
    // sort by time is the `(time, rank)` merge.
    requests.sort_by_key(|request| request.at);
    (requests, gateway_requests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_mon_node::{NodeConfig, UpgradeSchedule};
    use ipfs_mon_simnet::churn::{NodeSchedule, OnlineSession};
    use ipfs_mon_types::Country;

    fn node(online_hours: u64) -> NodeSpec {
        NodeSpec {
            config: NodeConfig::regular(),
            country: Country::De,
            schedule: NodeSchedule {
                stable: true,
                sessions: vec![OnlineSession {
                    start: SimTime::ZERO,
                    end: SimTime::ZERO + SimDuration::from_hours(online_hours),
                }],
            },
            upgrade: UpgradeSchedule::always_modern(),
            connections: 700,
        }
    }

    fn gateway_node() -> NodeSpec {
        NodeSpec {
            config: NodeConfig::gateway(),
            ..node(24)
        }
    }

    /// The node requests of `nodes`, drained from their sources.
    fn node_requests(
        config: &RequestWorkloadConfig,
        nodes: &[NodeSpec],
        catalog_size: usize,
        seed: u64,
    ) -> Vec<RequestEvent> {
        let rng = SimRng::new(seed);
        let sources = lazy_workload_sources(
            config,
            nodes,
            &[],
            catalog_size,
            SimDuration::ZERO,
            &rng,
            &rng,
        );
        drain_workload_sources(sources).0
    }

    /// The gateway requests of `operator_shares` over `horizon`, drained
    /// from their source.
    fn gateway_requests(
        config: &RequestWorkloadConfig,
        operator_shares: &[f64],
        catalog_size: usize,
        horizon: SimDuration,
        seed: u64,
    ) -> Vec<GatewayRequestEvent> {
        let rng = SimRng::new(seed);
        let sources = lazy_workload_sources(
            config,
            &[],
            operator_shares,
            catalog_size,
            horizon,
            &rng,
            &rng,
        );
        drain_workload_sources(sources).1
    }

    #[test]
    fn request_count_scales_with_rate_and_duration() {
        let config = RequestWorkloadConfig {
            mean_node_requests_per_hour: 4.0,
            rate_shape: 8.0, // nearly deterministic rates for this test
            ..Default::default()
        };
        let nodes: Vec<NodeSpec> = (0..200).map(|_| node(24)).collect();
        let requests = node_requests(&config, &nodes, 100, 1);
        // ≈ 200 nodes * 24 h * ~3.5..4 req/h (Pareto mean ≈ configured mean).
        let expected = 200.0 * 24.0 * 4.0;
        let actual = requests.len() as f64;
        assert!(
            actual > expected * 0.6 && actual < expected * 1.6,
            "expected ≈{expected}, got {actual}"
        );
    }

    #[test]
    fn requests_fall_within_online_sessions() {
        let config = RequestWorkloadConfig::default();
        let nodes = vec![node(5)];
        let requests = node_requests(&config, &nodes, 50, 2);
        for r in &requests {
            assert!(r.at < SimTime::ZERO + SimDuration::from_hours(5));
            assert_eq!(r.node, 0);
            assert!(r.content < 50);
        }
    }

    #[test]
    fn gateway_nodes_generate_no_local_requests() {
        let config = RequestWorkloadConfig::default();
        let nodes = vec![gateway_node(), node(24)];
        let requests = node_requests(&config, &nodes, 10, 3);
        assert!(requests.iter().all(|r| r.node == 1));
    }

    #[test]
    fn requests_are_time_sorted() {
        let config = RequestWorkloadConfig::default();
        let nodes: Vec<NodeSpec> = (0..50).map(|_| node(12)).collect();
        let requests = node_requests(&config, &nodes, 100, 4);
        for pair in requests.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn gateway_requests_follow_traffic_shares() {
        let config = RequestWorkloadConfig {
            gateway_requests_per_hour: 2_000.0,
            ..Default::default()
        };
        let requests = gateway_requests(&config, &[0.8, 0.2], 100, SimDuration::from_hours(24), 5);
        assert!(!requests.is_empty());
        let op0 = requests.iter().filter(|r| r.operator == 0).count() as f64;
        let share = op0 / requests.len() as f64;
        assert!((share - 0.8).abs() < 0.05, "share {share}");
    }

    #[test]
    fn zero_gateway_rate_produces_no_requests() {
        let config = RequestWorkloadConfig {
            gateway_requests_per_hour: 0.0,
            ..Default::default()
        };
        assert!(gateway_requests(&config, &[1.0], 10, SimDuration::from_hours(1), 6).is_empty());
    }

    #[test]
    fn zero_gateway_rate_produces_no_gateway_source() {
        let config = RequestWorkloadConfig {
            gateway_requests_per_hour: 0.0,
            ..Default::default()
        };
        let nodes = vec![node(2)];
        let rng = SimRng::new(1);
        let sources = lazy_workload_sources(
            &config,
            &nodes,
            &[1.0],
            10,
            SimDuration::from_hours(1),
            &rng.derive("requests"),
            &rng.derive("gateway-requests"),
        );
        assert_eq!(sources.len(), 1, "only the node source remains");
    }

    #[test]
    fn per_node_rates_are_heterogeneous() {
        let config = RequestWorkloadConfig {
            mean_node_requests_per_hour: 2.0,
            rate_shape: 1.3,
            ..Default::default()
        };
        let nodes: Vec<NodeSpec> = (0..300).map(|_| node(24)).collect();
        let requests = node_requests(&config, &nodes, 200, 7);
        let mut per_node = vec![0usize; 300];
        for r in &requests {
            per_node[r.node] += 1;
        }
        let max = *per_node.iter().max().unwrap();
        let median = {
            let mut sorted = per_node.clone();
            sorted.sort_unstable();
            sorted[150]
        };
        assert!(
            max as f64 > 4.0 * median.max(1) as f64,
            "heavy tail expected: max {max}, median {median}"
        );
    }
}
