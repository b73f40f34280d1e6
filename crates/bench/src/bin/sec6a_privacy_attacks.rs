//! Experiment E10 (Sec. VI-A): the three privacy attacks — IDW, TNW, TPI —
//! evaluated against simulation ground truth.

use ipfs_mon_bench::{
    args_or_exit, pct, print_header, print_row, run_experiment, scaled, ObsFlags,
};
use ipfs_mon_core::{
    per_peer_request_counts, run_attacks_source, AttackTargets, PreprocessConfig, TpiOutcome,
};
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_workload::{build_scenario_lazy, drain_workload_sources, ScenarioConfig};
use std::collections::{BTreeMap, BTreeSet, HashSet};

fn main() {
    // Heartbeats cover the whole experiment; the drop at the end of main
    // emits the final `"done":true` line (a no-op without --obs).
    let _reporter = args_or_exit(ObsFlags::USAGE, ObsFlags::parse).start();
    let mut config = ScenarioConfig::analysis_week(108, scaled(600));
    config.horizon = SimDuration::from_days(2);
    config.workload.mean_node_requests_per_hour = 1.5;
    let run = run_experiment(&config);
    let scenario = run.network.scenario();

    // Ground truth: which nodes issued a user request for which content — the
    // requests the run drew, drained from a second copy of its sources.
    // Ordered maps: the targets below are picked by iterating these, and the
    // printed rows must not depend on hash order.
    let (requests, _) = drain_workload_sources(build_scenario_lazy(&config).1);
    let mut truth_by_content: BTreeMap<usize, HashSet<_>> = BTreeMap::new();
    let mut truth_by_node: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for request in &requests {
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
    // requesters (IDW), the most active observed non-gateway node (TNW), and
    // up to 200 (node, content) pairs (TPI). A gateway requests on behalf of
    // its HTTP users, so the scenario holds no node-level ground truth to
    // check its TNW profile against.
    let (&target_content, truth_wanters) = truth_by_content
        .iter()
        .max_by_key(|(_, peers)| peers.len())
        .expect("workload has requests");
    let cid = run.network.content_root(target_content).clone();
    let per_peer = per_peer_request_counts(&run.trace);
    let (target_peer, observed_count, target_node) = per_peer
        .iter()
        .find_map(|(peer, count)| {
            let node = run.network.node_of_peer(peer)?;
            (!scenario.nodes[node].config.role.is_gateway()).then_some((peer, count, node))
        })
        .expect("trace has requests from a non-gateway node");
    let mut tpi_probes = Vec::new();
    for (node, contents) in truth_by_node.iter().take(100) {
        for &content in contents.iter().take(2) {
            tpi_probes.push((*node, run.network.content_root(content).clone()));
        }
    }

    // One pass over the dataset evaluates IDW and TNW together; TPI probes
    // query the live network.
    let suite = run_attacks_source(
        &run.dataset,
        PreprocessConfig::default(),
        &AttackTargets {
            idw_cids: vec![cid.clone()],
            tnw_peers: vec![*target_peer],
            tpi_probes: tpi_probes.clone(),
        },
        Some(&run.network),
    )
    .expect("attack suite");

    let wanters = &suite.idw[&cid];
    let identified: HashSet<_> = wanters.iter().map(|w| w.peer).collect();
    let true_positives = identified.intersection(truth_wanters).count();

    print_header("IDW — Identifying Data Wanters");
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

    // --- TNW: track the most active observed non-gateway node.
    let profile = &suite.tnw[target_peer];
    let truth_contents = truth_by_node.get(&target_node);
    let truth_roots: HashSet<_> = truth_contents
        .into_iter()
        .flatten()
        .map(|&content| run.network.content_root(content))
        .collect();
    let tracked_outside_truth = profile
        .wants
        .keys()
        .filter(|cid| !truth_roots.contains(cid))
        .count();

    print_header("TNW — Tracking Node Wants (most active observed non-gateway node)");
    print_row("target peer", target_peer);
    print_row("observed primary requests", observed_count);
    print_row("distinct CIDs tracked", profile.distinct_cids());
    print_row(
        "ground-truth distinct contents requested",
        truth_contents.map_or(0, BTreeSet::len),
    );
    print_row(
        "tracked CIDs outside the ground truth",
        tracked_outside_truth,
    );

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
