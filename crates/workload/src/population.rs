//! Node-population generation.
//!
//! Builds the [`NodeSpec`] list of a scenario: DHT servers and clients in a
//! configurable ratio, country assignment following a [`CountryMix`], churn
//! schedules, per-node connection counts in the paper's 600–900 range,
//! protocol-upgrade times drawn from an [`AdoptionCurve`], and public gateway
//! operators (including one dominant "Cloudflare-like" operator running many
//! nodes behind a single name).

use ipfs_mon_node::{AdoptionCurve, GatewayOperator, NodeConfig, NodeSpec};
use ipfs_mon_simnet::churn::ChurnModel;
use ipfs_mon_simnet::region::CountryMix;
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_types::Country;

/// Configuration of one gateway operator to generate.
#[derive(Debug, Clone)]
pub struct OperatorConfig {
    /// DNS-style name.
    pub name: String,
    /// Number of IPFS nodes the operator runs.
    pub nodes: usize,
    /// Share of total gateway HTTP traffic this operator receives.
    pub traffic_share: f64,
    /// Whether the HTTP side works (the paper found broken gateways whose
    /// IPFS side still answered).
    pub http_functional: bool,
    /// Country the operator's nodes are deployed in.
    pub country: Country,
}

/// Configuration of the node population.
#[derive(Debug, Clone)]
pub struct PopulationConfig {
    /// Number of ordinary (non-gateway) nodes.
    pub nodes: usize,
    /// Fraction of ordinary nodes operating as DHT clients (NAT-ed), invisible
    /// to crawls.
    pub client_fraction: f64,
    /// Country mix for node placement.
    pub countries: CountryMix,
    /// Churn model for ordinary nodes.
    pub churn: ChurnModel,
    /// Protocol-upgrade adoption curve.
    pub adoption: AdoptionCurve,
    /// Connection-count range for ordinary nodes (the paper reports 600–900).
    pub connection_range: (u32, u32),
    /// Gateway operators to generate (their nodes are appended after the
    /// ordinary nodes and are always online).
    pub operators: Vec<OperatorConfig>,
}

impl PopulationConfig {
    /// A small default population, useful for tests and examples.
    pub fn small(nodes: usize) -> Self {
        Self {
            nodes,
            client_fraction: 0.55,
            countries: CountryMix::paper_table2(),
            churn: ChurnModel::default(),
            adoption: AdoptionCurve::fully_adopted(),
            connection_range: (600, 900),
            operators: vec![
                OperatorConfig {
                    name: "cloudgate.example".into(),
                    nodes: 13,
                    traffic_share: 0.75,
                    http_functional: true,
                    country: Country::Us,
                },
                OperatorConfig {
                    name: "gateway.example".into(),
                    nodes: 2,
                    traffic_share: 0.2,
                    http_functional: true,
                    country: Country::De,
                },
                OperatorConfig {
                    name: "broken.example".into(),
                    nodes: 1,
                    traffic_share: 0.05,
                    http_functional: false,
                    country: Country::Fr,
                },
            ],
        }
    }
}

/// The generated population: node specs plus operator descriptors whose
/// `node_indices` point into the node list.
#[derive(Debug, Clone)]
pub struct Population {
    /// All node specifications (ordinary nodes first, gateway nodes last).
    pub nodes: Vec<NodeSpec>,
    /// Gateway operators.
    pub operators: Vec<GatewayOperator>,
}

impl Population {
    /// Indices of all gateway nodes.
    pub fn gateway_indices(&self) -> Vec<usize> {
        self.operators
            .iter()
            .flat_map(|op| op.node_indices.iter().copied())
            .collect()
    }
}

/// Generates the population for a scenario of length `horizon`.
pub fn generate_population(
    config: &PopulationConfig,
    horizon: SimDuration,
    rng: &mut SimRng,
) -> Population {
    use rand::Rng;
    let mut nodes = Vec::with_capacity(config.nodes);
    for i in 0..config.nodes {
        let mut node_rng = rng.derive_indexed("node", i as u64);
        let is_client = node_rng.gen_bool(config.client_fraction.clamp(0.0, 1.0));
        let config_base = if is_client {
            NodeConfig::client()
        } else {
            NodeConfig::regular()
        };
        let (lo, hi) = config.connection_range;
        let connections = if hi > lo {
            node_rng.gen_range(lo..=hi)
        } else {
            lo
        };
        nodes.push(NodeSpec {
            config: NodeConfig {
                connection_target: connections,
                ..config_base
            },
            country: config.countries.sample(&mut node_rng),
            schedule: config.churn.schedule(&mut node_rng, horizon),
            upgrade: config.adoption.sample(&mut node_rng),
            connections,
        });
    }

    // Gateway nodes: stable, always online, high connection counts.
    let mut operators = Vec::with_capacity(config.operators.len());
    for (op_idx, op) in config.operators.iter().enumerate() {
        let mut indices = Vec::with_capacity(op.nodes);
        for g in 0..op.nodes {
            let mut node_rng = rng.derive_indexed("gateway", (op_idx * 1000 + g) as u64);
            let index = nodes.len();
            nodes.push(NodeSpec {
                config: NodeConfig::gateway(),
                country: op.country,
                schedule: ChurnModel::always_online().schedule(&mut node_rng, horizon),
                upgrade: config.adoption.sample(&mut node_rng),
                connections: 900,
            });
            indices.push(index);
        }
        operators.push(GatewayOperator {
            name: op.name.clone(),
            node_indices: indices,
            http_functional: op.http_functional,
            traffic_share: op.traffic_share,
        });
    }

    Population { nodes, operators }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_mon_node::NodeRole;

    fn population(nodes: usize, seed: u64) -> Population {
        let config = PopulationConfig::small(nodes);
        let mut rng = SimRng::new(seed);
        generate_population(&config, SimDuration::from_days(7), &mut rng)
    }

    #[test]
    fn generates_nodes_plus_gateways() {
        let p = population(500, 1);
        // 13 + 2 + 1 gateway nodes appended after the 500 ordinary ones.
        assert_eq!(p.nodes.len(), 516);
        assert_eq!(p.operators.len(), 3);
        assert_eq!(p.gateway_indices().len(), 16);
        for &i in &p.gateway_indices() {
            assert_eq!(p.nodes[i].config.role, NodeRole::Gateway);
            assert!(p.nodes[i].schedule.stable, "gateways are always online");
        }
    }

    #[test]
    fn client_fraction_is_respected() {
        let p = population(2_000, 2);
        let clients = p.nodes[..2_000]
            .iter()
            .filter(|n| n.config.dht_mode.is_client())
            .count() as f64;
        let frac = clients / 2_000.0;
        assert!((frac - 0.55).abs() < 0.05, "client fraction {frac}");
    }

    #[test]
    fn connection_counts_in_configured_range() {
        let p = population(300, 3);
        for node in &p.nodes[..300] {
            assert!((600..=900).contains(&node.connections));
        }
    }

    #[test]
    fn country_mix_is_dominated_by_us() {
        let p = population(3_000, 4);
        let us = p.nodes[..3_000]
            .iter()
            .filter(|n| n.country == Country::Us)
            .count() as f64;
        let frac = us / 3_000.0;
        assert!((frac - 0.4565).abs() < 0.05, "US fraction {frac}");
    }

    #[test]
    fn operator_metadata_is_preserved() {
        let p = population(100, 5);
        assert_eq!(p.operators[0].node_count(), 13);
        assert!((p.operators[0].traffic_share - 0.75).abs() < 1e-12);
        assert!(!p.operators[2].http_functional);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = population(200, 9);
        let b = population(200, 9);
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.country, y.country);
            assert_eq!(x.connections, y.connections);
            assert_eq!(x.schedule.sessions.len(), y.schedule.sessions.len());
        }
    }
}
