//! Experiment E10 (Sec. VI-A): the three privacy attacks — IDW, TNW, TPI —
//! evaluated against simulation ground truth.

use ipfs_mon_bench::{
    args_or_exit, pct, print_header, print_row, run_experiment, scaled, spill_to_manifest, ObsFlags,
};
use ipfs_mon_core::{
    identify_data_wanters, per_peer_request_counts, run_attacks_source, track_node_wants,
    AttackTargets, PreprocessConfig, TpiOutcome,
};
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_tracestore::ManifestReader;
use ipfs_mon_workload::ScenarioConfig;
use std::collections::{BTreeMap, BTreeSet, HashSet};

fn main() {
    // Heartbeats cover the whole experiment; the drop at the end of main
    // emits the final `"done":true` line (a no-op without --obs).
    let _reporter = args_or_exit(ObsFlags::USAGE, ObsFlags::parse).start();
    let mut config = ScenarioConfig::analysis_week(108, scaled(600));
    config.horizon = SimDuration::from_days(2);
    config.workload.mean_node_requests_per_hour = 1.5;
    let run = run_experiment(&config);
    let scenario = run.network.scenario().clone();

    // All trace-driven attacks run from a multi-segment manifest in one
    // constant-memory pass; the in-memory results below only cross-check it.
    let dir = std::env::temp_dir().join(format!("sec6a-manifest-{}", std::process::id()));
    let summary = spill_to_manifest(
        &run.dataset,
        &dir,
        (run.dataset.total_entries() as u64 / 5).max(1),
    );
    let reader = ManifestReader::open(&summary.manifest_path).expect("open manifest");

    // Ground truth: which nodes issued a user request for which content.
    // Ordered maps: the targets below are picked by iterating these, and the
    // printed rows must not depend on hash order.
    let mut truth_by_content: BTreeMap<usize, HashSet<_>> = BTreeMap::new();
    let mut truth_by_node: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for request in &scenario.requests {
        truth_by_content
            .entry(request.content)
            .or_default()
            .insert(run.network.peer_id(request.node));
        truth_by_node
            .entry(request.node)
            .or_default()
            .insert(request.content);
    }

    // --- Attack targets: the content item with the most ground-truth
    // requesters (IDW), the most active observed node (TNW), and up to 200
    // (node, content) pairs (TPI).
    let (&target_content, truth_wanters) = truth_by_content
        .iter()
        .max_by_key(|(_, peers)| peers.len())
        .expect("workload has requests");
    let cid = run.network.content_root(target_content).clone();
    let per_peer = per_peer_request_counts(&run.trace);
    let (target_peer, observed_count) = per_peer.first().expect("trace has requests");
    let mut tpi_probes = Vec::new();
    for (node, contents) in truth_by_node.iter().take(100) {
        for &content in contents.iter().take(2) {
            tpi_probes.push((*node, run.network.content_root(content).clone()));
        }
    }

    // One streaming pass over the manifest evaluates IDW and TNW together;
    // TPI probes query the live network.
    let suite = run_attacks_source(
        &reader,
        PreprocessConfig::default(),
        &AttackTargets {
            idw_cids: vec![cid.clone()],
            tnw_peers: vec![*target_peer],
            tpi_probes: tpi_probes.clone(),
        },
        Some(&run.network),
    )
    .expect("streaming attack suite");
    std::fs::remove_dir_all(&dir).ok();

    let wanters = &suite.idw[&cid];
    assert_eq!(
        wanters,
        &identify_data_wanters(&run.trace, &cid),
        "streaming IDW must equal the in-memory path"
    );
    let identified: HashSet<_> = wanters.iter().map(|w| w.peer).collect();
    let true_positives = identified.intersection(truth_wanters).count();

    print_header("IDW — Identifying Data Wanters (streamed from manifest)");
    print_row(
        "manifest",
        format!(
            "{} segments, {} entries",
            summary.segment_count, summary.total_entries
        ),
    );
    print_row("target CID", &cid);
    print_row("ground-truth requesters", truth_wanters.len());
    print_row("identified by the attack", identified.len());
    print_row(
        "precision",
        pct(true_positives as f64 / identified.len().max(1) as f64),
    );
    print_row(
        "recall",
        pct(true_positives as f64 / truth_wanters.len().max(1) as f64),
    );
    print_row(
        "note",
        "recall < 100% is expected: cache hits and offline periods hide requests",
    );

    // --- TNW: track the most active observed node.
    let profile = &suite.tnw[target_peer];
    assert_eq!(
        profile,
        &track_node_wants(&run.trace, target_peer),
        "streaming TNW must equal the in-memory path"
    );
    let target_node = run.network.node_of_peer(target_peer);
    let truth_cids = target_node
        .and_then(|n| truth_by_node.get(&n))
        .map(|s| s.len())
        .unwrap_or(0);

    print_header("TNW — Tracking Node Wants (most active observed node)");
    print_row("target peer", target_peer);
    print_row("observed primary requests", observed_count);
    print_row("distinct CIDs tracked", profile.distinct_cids());
    print_row("ground-truth distinct contents requested", truth_cids);

    // --- TPI: probe 200 (node, content) pairs and compare with ground truth.
    print_header("TPI — Testing for Past Interests");
    let mut correct = 0usize;
    let mut probes = 0usize;
    let mut cached_found = 0usize;
    for ((node, cid), outcome) in &suite.tpi {
        let truly_cached = run.network.node_has_block(*node, cid);
        probes += 1;
        if (*outcome == TpiOutcome::CachedRecently) == truly_cached {
            correct += 1;
        }
        if *outcome == TpiOutcome::CachedRecently {
            cached_found += 1;
        }
    }
    print_row("probes issued", probes);
    print_row("probes answered 'cached'", cached_found);
    print_row(
        "probe accuracy vs ground truth",
        pct(correct as f64 / probes.max(1) as f64),
    );
    print_row(
        "paper",
        "any node's cache can be probed by sending it a request for the CID",
    );
}
