//! Integration tests for the privacy attacks of Sec. VI, evaluated against
//! simulation ground truth.

use ipfs_monitoring::core::{
    gateway_nodes_by_operator, identify_data_wanters, test_past_interest, track_node_wants,
    unify_and_flag, GatewayProber, MonitorCollector, PreprocessConfig, TpiOutcome,
};
use ipfs_monitoring::node::{Network, RequestEvent};
use ipfs_monitoring::simnet::rng::SimRng;
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::workload::{build_scenario_lazy, drain_workload_sources, ScenarioConfig};
use std::collections::{HashMap, HashSet};

/// The network, and the user requests its run draws: the ground truth the
/// attacks are checked against.
fn build_network(seed: u64, nodes: usize) -> (Network, Vec<RequestEvent>) {
    let mut config = ScenarioConfig::analysis_week(seed, nodes);
    config.horizon = SimDuration::from_days(1);
    config.workload.mean_node_requests_per_hour = 1.5;
    config.workload.gateway_requests_per_hour = 300.0;
    let (scenario, sources) = build_scenario_lazy(&config);
    let (requests, _) = drain_workload_sources(build_scenario_lazy(&config).1);
    (Network::with_sources(scenario, sources), requests)
}

#[test]
fn gateway_probing_discovers_only_true_gateway_nodes() {
    let (mut network, _) = build_network(700, 400);
    let mut prober = GatewayProber::new();
    let mut rng = SimRng::new(1);
    // Two probing rounds over all operators.
    prober.probe_all_operators(
        &mut network,
        0,
        SimTime::ZERO + SimDuration::from_hours(4),
        60,
        &mut rng,
    );
    prober.probe_all_operators(
        &mut network,
        0,
        SimTime::ZERO + SimDuration::from_hours(12),
        60,
        &mut rng,
    );

    let truth = network.gateway_ground_truth();
    let mut collector = MonitorCollector::us_de();
    network.run(&mut collector);
    let (trace, _) = unify_and_flag(&collector.into_dataset(), PreprocessConfig::default());

    let results = prober.evaluate(&trace);
    let discovered = gateway_nodes_by_operator(&results);

    let all_truth: HashSet<_> = truth.values().flatten().copied().collect();
    let mut discovered_total = 0;
    for (operator, peers) in &discovered {
        for peer in peers {
            assert!(
                all_truth.contains(peer),
                "no false positives: {peer} attributed to {operator}"
            );
        }
        discovered_total += peers.len();
    }
    // Functional operators must be identified by at least one probe.
    let functional: Vec<_> = network
        .scenario()
        .operators
        .iter()
        .filter(|op| op.http_functional)
        .map(|op| op.name.clone())
        .collect();
    for name in functional {
        assert!(
            discovered
                .get(&name)
                .map(|s| !s.is_empty())
                .unwrap_or(false),
            "functional gateway {name} was not identified"
        );
    }
    assert!(discovered_total >= 2);
}

#[test]
fn idw_and_tnw_match_ground_truth_requests() {
    let (mut network, requests) = build_network(701, 300);
    let mut collector = MonitorCollector::us_de();
    network.run(&mut collector);
    let (trace, _) = unify_and_flag(&collector.into_dataset(), PreprocessConfig::default());

    // Ground truth request sets.
    let mut truth_by_content: HashMap<usize, HashSet<_>> = HashMap::new();
    for request in &requests {
        truth_by_content
            .entry(request.content)
            .or_default()
            .insert(network.peer_id(request.node));
    }

    // Gateway nodes also issue Bitswap requests (driven by the HTTP
    // workload, not by user requests), so they are legitimate wanters the
    // node-level ground truth does not cover.
    let gateway_peers: HashSet<_> = network
        .gateway_ground_truth()
        .values()
        .flatten()
        .copied()
        .collect();

    // IDW precision: every identified wanter of the busiest CID is either a
    // ground-truth requester or a gateway node relaying HTTP requests.
    let (&content, truth_peers) = truth_by_content
        .iter()
        .max_by_key(|(_, peers)| peers.len())
        .unwrap();
    let cid = network.content_root(content).clone();
    let wanters = identify_data_wanters(&trace, &cid);
    assert!(!wanters.is_empty(), "busiest CID should be observed");
    for wanter in &wanters {
        assert!(
            truth_peers.contains(&wanter.peer) || gateway_peers.contains(&wanter.peer),
            "IDW must not accuse peers that never requested the CID"
        );
    }

    // TNW: every CID in the profile of an observed (non-gateway) peer was
    // indeed requested by that node per ground truth.
    let target = wanters
        .iter()
        .map(|w| w.peer)
        .find(|p| !gateway_peers.contains(p))
        .expect("at least one homegrown requester");
    let node = network.node_of_peer(&target).unwrap();
    let requested_contents: HashSet<_> = requests
        .iter()
        .filter(|r| r.node == node)
        .map(|r| network.content_root(r.content).clone())
        .collect();
    let profile = track_node_wants(&trace, &target);
    assert!(profile.distinct_cids() > 0);
    for cid in profile.wants.keys() {
        assert!(
            requested_contents.contains(cid),
            "TNW must only contain CIDs the node actually requested"
        );
    }
}

#[test]
fn tpi_probe_agrees_with_cache_state() {
    let (mut network, requests) = build_network(702, 200);
    let mut collector = MonitorCollector::us_de();
    network.run(&mut collector);

    let mut probes = 0;
    let mut positives = 0;
    for request in requests.iter().take(300) {
        let cid = network.content_root(request.content);
        let outcome = test_past_interest(&network, request.node, cid);
        let cached = network.node_has_block(request.node, cid);
        assert_eq!(outcome == TpiOutcome::CachedRecently, cached);
        probes += 1;
        if cached {
            positives += 1;
        }
    }
    assert!(probes > 0);
    assert!(positives > 0, "some requested content must end up cached");

    // Content that nobody requested from an idle node is not cached.
    let unrequested = network.content_root(0);
    let idle_node = requests.iter().map(|r| r.node).max().unwrap_or(0);
    let _ = test_past_interest(&network, idle_node, unrequested);
}
