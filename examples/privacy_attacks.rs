//! The IDW / TNW / TPI privacy attacks of Sec. VI-A, demonstrated against
//! simulation ground truth.
//!
//! Run with `cargo run --release --example privacy_attacks`.

use ipfs_monitoring::core::{
    identify_data_wanters, per_peer_request_counts, test_past_interest, track_node_wants,
    unify_and_flag, MonitorCollector, PreprocessConfig, TpiOutcome,
};
use ipfs_monitoring::node::Network;
use ipfs_monitoring::simnet::time::SimDuration;
use ipfs_monitoring::workload::{build_scenario_lazy, ScenarioConfig};

fn main() {
    let mut config = ScenarioConfig::analysis_week(17, 400);
    config.horizon = SimDuration::from_days(1);
    config.workload.mean_node_requests_per_hour = 2.0;
    let (scenario, sources) = build_scenario_lazy(&config);
    let mut network = Network::with_sources(scenario, sources);
    let mut collector = MonitorCollector::us_de();
    network.run(&mut collector);
    let (trace, _) = unify_and_flag(&collector.into_dataset(), PreprocessConfig::default());

    // IDW: who asked for the most-requested CID?
    let counts = per_peer_request_counts(&trace);
    println!("observed {} Bitswap-active peers", counts.len());
    let some_cid = trace
        .primary_requests()
        .next()
        .map(|e| e.cid.clone())
        .expect("trace contains requests");
    let wanters = identify_data_wanters(&trace, &some_cid);
    println!("IDW: {} peer(s) requested {}", wanters.len(), some_cid);

    // TNW: profile the most active node.
    let (target, _) = counts.first().expect("at least one active peer");
    let profile = track_node_wants(&trace, target);
    println!(
        "TNW: node {} requested {} distinct CIDs ({} observed requests)",
        target,
        profile.distinct_cids(),
        profile.total_requests()
    );

    // TPI: test whether that node cached what it requested.
    if let Some(node_index) = network.node_of_peer(target) {
        let mut cached = 0;
        for cid in profile.wants.keys().take(20) {
            if test_past_interest(&network, node_index, cid) == TpiOutcome::CachedRecently {
                cached += 1;
            }
        }
        println!(
            "TPI: {cached} of the first {} tracked CIDs are confirmed to sit in the node's cache",
            profile.wants.keys().take(20).count()
        );
    }
    println!("\ncountermeasures discussion: see Sec. VI-C of the paper and README.md");
}
