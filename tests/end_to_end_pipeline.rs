//! End-to-end integration: scenario generation → network simulation → passive
//! monitoring → preprocessing → the paper's analyses.

use ipfs_monitoring::core::{
    country_shares, estimate_network_size, multicodec_shares, popularity_scores,
    request_type_series, unify_and_flag, MonitorCollector, PreprocessConfig,
};
use ipfs_monitoring::node::Network;
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::types::{Country, Multicodec};
use ipfs_monitoring::workload::{build_scenario_lazy, ScenarioConfig};

struct Pipeline {
    network: Network,
    dataset: ipfs_monitoring::core::MonitoringDataset,
    trace: ipfs_monitoring::core::UnifiedTrace,
    stats: ipfs_monitoring::core::PreprocessStats,
}

fn run_pipeline(seed: u64, nodes: usize, days: u64) -> Pipeline {
    let mut config = ScenarioConfig::analysis_week(seed, nodes);
    config.horizon = SimDuration::from_days(days);
    config.workload.mean_node_requests_per_hour = 1.0;
    let (scenario, sources) = build_scenario_lazy(&config);
    assert!(scenario.validate().is_empty());
    let mut network = Network::with_sources(scenario, sources);
    let mut collector = MonitorCollector::us_de();
    network.run(&mut collector);
    let dataset = collector.into_dataset();
    let (trace, stats) = unify_and_flag(&dataset, PreprocessConfig::default());
    Pipeline {
        network,
        dataset,
        trace,
        stats,
    }
}

#[test]
fn monitors_observe_traffic_and_preprocessing_flags_repeats() {
    let p = run_pipeline(900, 400, 1);
    assert!(
        p.dataset.total_entries() > 500,
        "monitors saw substantial traffic"
    );
    assert_eq!(p.trace.len(), p.dataset.total_entries());
    assert_eq!(
        p.stats.total,
        p.stats.primary + (p.trace.len() - p.trace.primary_entries().count())
    );
    // Two monitors with high attach probability → plenty of inter-monitor
    // duplicates; unresolvable content → re-broadcasts.
    assert!(p.stats.inter_monitor_duplicates > 0);
    assert!(p.stats.rebroadcasts > 0);
    assert!(p.stats.primary > 0);
}

#[test]
fn network_size_estimates_track_online_population() {
    let p = run_pipeline(901, 800, 2);
    let probe = SimTime::ZERO + SimDuration::from_hours(30);
    let report = estimate_network_size(
        &p.dataset,
        probe,
        probe + SimDuration::from_hours(8),
        SimDuration::from_hours(4),
    );
    let online_truth = p
        .network
        .scenario()
        .nodes
        .iter()
        .filter(|n| n.schedule.online_at(probe))
        .count() as f64;
    let estimate = report
        .capture_recapture
        .expect("two monitors produce an estimate")
        .mean;
    // The estimator targets the currently-online population; allow generous
    // tolerance because the peer sets are modest samples.
    assert!(
        (estimate - online_truth).abs() / online_truth < 0.35,
        "estimate {estimate} vs online ground truth {online_truth}"
    );
    // Weekly unique counts exceed any instantaneous peer-set size (churn).
    assert!(report.weekly_unique_union as f64 > estimate * 0.9);
}

#[test]
fn activity_analyses_reproduce_expected_structure() {
    let p = run_pipeline(902, 500, 1);

    // Table I shape: DagProtobuf and Raw dominate, DagProtobuf first.
    let codecs = multicodec_shares(&p.dataset);
    assert!(!codecs.is_empty());
    assert_eq!(codecs[0].0, Multicodec::DagProtobuf);
    let file_share: f64 = codecs
        .iter()
        .filter(|(c, _, _)| matches!(c, Multicodec::DagProtobuf | Multicodec::Raw))
        .map(|(_, _, s)| s)
        .sum();
    assert!(file_share > 0.9, "file codecs dominate: {file_share}");

    // Table II shape: US is the top origin country.
    let countries = country_shares(
        &p.trace,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_days(1),
    );
    assert!(!countries.is_empty());
    assert_eq!(countries[0].0, Country::Us);
    assert!(countries[0].2 > 0.25 && countries[0].2 < 0.75);

    // Fig. 4 shape with a fully-adopted population: WANT_HAVE only.
    let series = request_type_series(&p.dataset, 0, SimDuration::from_hours(6));
    let total_have: u64 = series.rows.iter().map(|r| r.1).sum();
    let total_block: u64 = series.rows.iter().map(|r| r.2).sum();
    assert!(total_have > 0);
    assert_eq!(
        total_block, 0,
        "fully adopted population sends no WANT_BLOCK"
    );
}

#[test]
fn popularity_is_heavily_skewed() {
    let p = run_pipeline(903, 500, 1);
    let scores = popularity_scores(&p.trace);
    assert!(scores.cid_count() > 50);
    assert!(
        scores.single_requester_fraction() > 0.4,
        "most CIDs have a single requester: {}",
        scores.single_requester_fraction()
    );
    // RRP >= URP for every CID.
    for (cid, rrp) in &scores.rrp {
        assert!(*rrp >= scores.urp[cid]);
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = run_pipeline(904, 200, 1);
    let b = run_pipeline(904, 200, 1);
    assert_eq!(a.dataset.total_entries(), b.dataset.total_entries());
    assert_eq!(a.trace.entries, b.trace.entries);
    let c = run_pipeline(905, 200, 1);
    assert_ne!(a.dataset.total_entries(), c.dataset.total_entries());
}
