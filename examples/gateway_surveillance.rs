//! Gateway probing and surveillance (Sec. VI-B): discover the IPFS node IDs
//! behind public HTTP gateways, then track the requests those nodes send.
//!
//! Run with `cargo run --release --example gateway_surveillance`.

use ipfs_monitoring::core::{
    gateway_nodes_by_operator, origin_group_rates, unify_and_flag, GatewayProber, MonitorCollector,
    PreprocessConfig,
};
use ipfs_monitoring::node::Network;
use ipfs_monitoring::simnet::rng::SimRng;
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::workload::{build_scenario_lazy, ScenarioConfig};
use std::collections::HashSet;

fn main() {
    let mut config = ScenarioConfig::analysis_week(13, 500);
    config.horizon = SimDuration::from_days(1);
    config.workload.gateway_requests_per_hour = 800.0;
    let (scenario, sources) = build_scenario_lazy(&config);
    let mut network = Network::with_sources(scenario, sources);

    // Step 1 (probing): unique random block per operator, monitor registered
    // as the only DHT provider, HTTP request through the gateway.
    let mut prober = GatewayProber::new();
    let mut rng = SimRng::new(99);
    prober.probe_all_operators(
        &mut network,
        0,
        SimTime::ZERO + SimDuration::from_hours(3),
        60,
        &mut rng,
    );

    let ground_truth = network.gateway_ground_truth();
    let mut collector = MonitorCollector::us_de();
    network.run(&mut collector);
    let (trace, _) = unify_and_flag(&collector.into_dataset(), PreprocessConfig::default());

    let results = prober.evaluate(&trace);
    let discovered = gateway_nodes_by_operator(&results);
    println!("gateway probing results:");
    for (operator, peers) in &discovered {
        let truth = ground_truth.get(operator).map(Vec::len).unwrap_or(0);
        println!(
            "  {operator}: discovered {} node ID(s), operator actually runs {truth}",
            peers.len()
        );
    }

    // Step 2 (TNW on gateways): compare gateway vs non-gateway request rates.
    let gateway_peers: HashSet<_> = discovered.values().flatten().copied().collect();
    let rates = origin_group_rates(
        &trace,
        &gateway_peers,
        &gateway_peers,
        SimDuration::from_hours(1),
    );
    println!(
        "\nrequests attributed to discovered gateway nodes: {}",
        rates.totals.0
    );
    println!("requests from everyone else: {}", rates.totals.2);
}
