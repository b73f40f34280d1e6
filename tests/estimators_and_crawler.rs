//! Integration tests of the network-size estimators and the crawler
//! comparison under controlled conditions.

use ipfs_monitoring::analysis::qq_uniform_deviation;
use ipfs_monitoring::core::{coverage, estimate_network_size, peer_id_positions, MonitorCollector};
use ipfs_monitoring::kad::Crawler;
use ipfs_monitoring::node::Network;
use ipfs_monitoring::simnet::churn::ChurnModel;
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::workload::{build_scenario_lazy, ScenarioConfig};

fn stable_network(seed: u64, nodes: usize, attach: f64) -> (Network, MonitorCollector) {
    let mut config = ScenarioConfig::analysis_week(seed, nodes);
    config.horizon = SimDuration::from_hours(12);
    config.population.churn = ChurnModel::always_online();
    config.workload.mean_node_requests_per_hour = 0.2;
    for monitor in &mut config.monitors {
        monitor.attach_probability = attach;
    }
    let (scenario, sources) = build_scenario_lazy(&config);
    let mut network = Network::with_sources(scenario, sources);
    let mut collector = MonitorCollector::us_de();
    network.run(&mut collector);
    (network, collector)
}

#[test]
fn estimators_recover_population_without_churn() {
    let n = 2_000;
    let (network, collector) = stable_network(800, n, 0.6);
    let dataset = collector.into_dataset();
    let report = estimate_network_size(
        &dataset,
        SimTime::ZERO + SimDuration::from_hours(6),
        SimTime::ZERO + SimDuration::from_hours(6),
        SimDuration::from_hours(1),
    );
    let truth = network.node_count() as f64;
    let capture = report.capture_recapture.unwrap().mean;
    let committee = report.committee.unwrap().mean;
    assert!(
        (capture - truth).abs() / truth < 0.10,
        "capture {capture} vs {truth}"
    );
    assert!(
        (committee - truth).abs() / truth < 0.10,
        "committee {committee} vs {truth}"
    );

    let cov = coverage(&report, truth);
    assert!((cov.per_monitor[0] - 0.6).abs() < 0.06);
    assert!((cov.joint - (1.0 - 0.4 * 0.4)).abs() < 0.06);
}

#[test]
fn connected_peer_ids_are_uniform_in_the_key_space() {
    let (_network, collector) = stable_network(801, 3_000, 0.7);
    let dataset = collector.into_dataset();
    let positions = peer_id_positions(&dataset, 0, SimTime::ZERO + SimDuration::from_hours(6));
    assert!(positions.len() > 1_000);
    let deviation = qq_uniform_deviation(&positions, 101);
    assert!(deviation < 0.05, "Fig. 3 uniformity: deviation {deviation}");
}

#[test]
fn crawler_sees_servers_but_not_clients_while_monitors_see_both() {
    let mut config = ScenarioConfig::analysis_week(802, 1_000);
    config.horizon = SimDuration::from_hours(12);
    config.population.churn = ChurnModel::always_online();
    config.population.client_fraction = 0.5;
    config.workload.mean_node_requests_per_hour = 0.5;
    let (scenario, sources) = build_scenario_lazy(&config);
    let mut network = Network::with_sources(scenario, sources);
    let mut collector = MonitorCollector::us_de();
    network.run(&mut collector);
    let dataset = collector.into_dataset();

    let at = SimTime::ZERO + SimDuration::from_hours(6);
    let crawl = Crawler::new().crawl(
        &network.dht_view_at(at),
        &network.online_server_peers(at, 5),
    );
    let monitor_uniques: std::collections::HashSet<_> = (0..2)
        .flat_map(|m| dataset.peers_connected_to(m).into_iter())
        .collect();

    let servers = network
        .scenario()
        .nodes
        .iter()
        .filter(|n| n.config.dht_mode.is_server())
        .count();
    assert!(
        crawl.discovered_count() <= servers,
        "crawler cannot see clients"
    );
    assert!(
        monitor_uniques.len() > crawl.discovered_count(),
        "monitors ({}) should see more peers than the crawler ({})",
        monitor_uniques.len(),
        crawl.discovered_count()
    );
}
