//! Experiment E9 (Sec. VI-B): gateway probing — de-anonymizing the IPFS nodes
//! behind public HTTP gateways.
//!
//! For every operator on the (simulated) public gateway list, the attacker
//! generates a unique random block, registers the monitor as its only DHT
//! provider, requests it through the gateway's HTTP side and watches which
//! node ID asks for it via Bitswap. The paper discovered node IDs for all
//! functional public gateways (93 gateway node IDs in total, 13 behind one
//! operator).

use ipfs_mon_bench::{no_args, print_header, print_row, run_network, scaled, spill_to_manifest};
use ipfs_mon_core::{
    gateway_nodes_by_operator, unify_and_flag_source, GatewayProber, PreprocessConfig,
};
use ipfs_mon_node::Network;
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_tracestore::ManifestReader;
use ipfs_mon_workload::{build_scenario, ScenarioConfig};

fn main() {
    no_args();
    let mut config = ScenarioConfig::analysis_week(109, scaled(500));
    config.horizon = SimDuration::from_days(1);
    config.workload.gateway_requests_per_hour = 500.0;
    let scenario = build_scenario(&config);
    let mut network = Network::new(scenario);

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

    // The probe watch-list is evaluated against the unified trace streamed
    // back from a spilled manifest, cross-checked against the in-memory
    // preprocessing.
    let dir = std::env::temp_dir().join(format!("sec6b-manifest-{}", std::process::id()));
    let summary = spill_to_manifest(
        &run.dataset,
        &dir,
        (run.dataset.total_entries() as u64 / 4).max(1),
    );
    let reader = ManifestReader::open(&summary.manifest_path).expect("open manifest");
    let (streamed, _) =
        unify_and_flag_source(&reader, PreprocessConfig::default()).expect("stream manifest");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        streamed.entries, run.trace.entries,
        "streamed unified trace must equal the in-memory path"
    );

    let results = prober.evaluate(&streamed);
    let by_operator = gateway_nodes_by_operator(&results);

    print_header("Sec. VI-B — gateway probing results");
    print_row(
        "manifest",
        format!(
            "{} segments, {} entries",
            summary.segment_count, summary.total_entries
        ),
    );
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
