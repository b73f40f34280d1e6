//! Experiment E9 (Sec. VI-B): gateway probing — de-anonymizing the IPFS nodes
//! behind public HTTP gateways.
//!
//! For every operator on the (simulated) public gateway list, the attacker
//! generates a unique random block, registers the monitor as its only DHT
//! provider, requests it through the gateway's HTTP side and watches which
//! node ID asks for it via Bitswap. The paper discovered node IDs for all
//! functional public gateways (93 gateway node IDs in total, 13 behind one
//! operator).

use ipfs_mon_bench::{no_args, print_header, print_row, run_network, scaled};
use ipfs_mon_core::{gateway_nodes_by_operator, GatewayProber};
use ipfs_mon_node::Network;
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_workload::{build_scenario_lazy, ScenarioConfig};

fn main() {
    no_args();
    let mut config = ScenarioConfig::analysis_week(109, scaled(500));
    config.horizon = SimDuration::from_days(1);
    config.workload.gateway_requests_per_hour = 500.0;
    let (scenario, sources) = build_scenario_lazy(&config);
    let mut network = Network::with_sources(scenario, sources);

    // Repeat the probe a few times per operator (the paper probes regularly).
    let mut prober = GatewayProber::new();
    let mut rng = SimRng::new(0xBEEF);
    for round in 0..3u64 {
        prober.probe_all_operators(
            &mut network,
            0,
            SimTime::ZERO + SimDuration::from_hours(2 + round * 6),
            120,
            &mut rng,
        );
    }

    let truth = network.gateway_ground_truth();
    let run = run_network(network);

    let results = prober.evaluate(&run.trace);
    let by_operator = gateway_nodes_by_operator(&results);

    print_header("Sec. VI-B — gateway probing results");
    println!(
        "  {:<22} {:>12} {:>12} {:>12} {:>10}",
        "operator", "http works", "truth nodes", "discovered", "correct"
    );
    let mut total_discovered = 0usize;
    for (name, discovered) in &by_operator {
        let truth_nodes = truth.get(name).cloned().unwrap_or_default();
        let truth_set: std::collections::HashSet<_> = truth_nodes.iter().copied().collect();
        let correct = discovered.iter().filter(|p| truth_set.contains(p)).count();
        let functional = run
            .network
            .scenario()
            .operators
            .iter()
            .find(|op| op.name == *name)
            .map(|op| op.http_functional)
            .unwrap_or(false);
        total_discovered += discovered.len();
        println!(
            "  {:<22} {:>12} {:>12} {:>12} {:>10}",
            name,
            functional,
            truth_nodes.len(),
            discovered.len(),
            correct
        );
    }
    print_row("total gateway node IDs discovered", total_discovered);
    print_row(
        "paper",
        "node IDs discovered for all functional gateways; 93 gateway node IDs total",
    );
    print_row(
        "false positives",
        results
            .iter()
            .flat_map(|r| r.discovered_peers.iter())
            .filter(|p| !truth.values().flatten().any(|t| t == *p))
            .count(),
    );
}
