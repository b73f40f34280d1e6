//! Network-size estimation (Sec. IV-C / V-C): compare the two estimators and
//! the DHT crawler baseline against simulation ground truth.
//!
//! Run with `cargo run --release --example network_size_estimation`.

use ipfs_monitoring::core::{
    coverage, estimate_network_size, unify_and_flag, MonitorCollector, PreprocessConfig,
};
use ipfs_monitoring::kad::Crawler;
use ipfs_monitoring::node::Network;
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::workload::{build_scenario_lazy, ScenarioConfig};

fn main() {
    let mut config = ScenarioConfig::analysis_week(7, 1_500);
    config.horizon = SimDuration::from_days(2);
    config.workload.mean_node_requests_per_hour = 0.3;
    let (scenario, sources) = build_scenario_lazy(&config);
    let mut network = Network::with_sources(scenario, sources);
    let mut collector = MonitorCollector::us_de();
    network.run(&mut collector);
    let dataset = collector.into_dataset();
    let _ = unify_and_flag(&dataset, PreprocessConfig::default());

    let report = estimate_network_size(
        &dataset,
        SimTime::ZERO + SimDuration::from_hours(12),
        SimTime::ZERO + SimDuration::from_hours(44),
        SimDuration::from_hours(4),
    );
    println!(
        "unique peers connected to us / de over the window: {} / {}",
        report.weekly_unique_per_monitor[0], report.weekly_unique_per_monitor[1]
    );
    if let Some(s) = report.capture_recapture {
        println!(
            "eq. (1) capture-recapture estimate: {:.0} ± {:.0}",
            s.mean, s.std_dev
        );
    }
    if let Some(s) = report.committee {
        println!(
            "eq. (3) committee-occupancy estimate: {:.0} ± {:.0}",
            s.mean, s.std_dev
        );
    }

    let crawl_at = SimTime::ZERO + SimDuration::from_days(1);
    let crawl = Crawler::new().crawl(
        &network.dht_view_at(crawl_at),
        &network.online_server_peers(crawl_at, 5),
    );
    println!(
        "DHT crawl discovered {} peers ({} responsive)",
        crawl.discovered_count(),
        crawl.responsive_count()
    );

    let online_truth = network
        .scenario()
        .nodes
        .iter()
        .filter(|n| n.schedule.online_at(crawl_at))
        .count();
    println!(
        "ground truth: {} nodes total, {} online at the crawl instant",
        network.node_count(),
        online_truth
    );

    let cov = coverage(&report, crawl.discovered_count().max(1) as f64);
    println!(
        "monitoring coverage: us {:.1}%, de {:.1}%, joint {:.1}%",
        cov.per_monitor[0] * 100.0,
        cov.per_monitor[1] * 100.0,
        cov.joint * 100.0
    );
}
