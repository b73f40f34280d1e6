//! Extension experiment (Sec. VI-C): quantify the countermeasure design space
//! the paper discusses — node-ID rotation, cover traffic, salted CID hashing
//! and gateway usage — by replaying the adversary's analyses on mitigated
//! traces.

use ipfs_mon_bench::{
    no_args, pct, print_header, print_row, run_experiment, scaled, spill_to_manifest,
};
use ipfs_mon_core::{
    apply_countermeasure, evaluate_countermeasure, unify_and_flag_source, Countermeasure,
    PreprocessConfig,
};
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_tracestore::ManifestReader;
use ipfs_mon_workload::ScenarioConfig;

fn main() {
    no_args();
    let mut config = ScenarioConfig::analysis_week(112, scaled(600));
    config.horizon = SimDuration::from_days(1);
    config.workload.mean_node_requests_per_hour = 1.5;
    let run = run_experiment(&config);

    // The adversary's view is replayed from a spilled manifest and
    // cross-checked against the in-memory preprocessing before the
    // countermeasures are applied.
    let dir = std::env::temp_dir().join(format!("sec6c-manifest-{}", std::process::id()));
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

    let cases: Vec<(&str, Countermeasure)> = vec![
        (
            "node-ID rotation (6h)",
            Countermeasure::NodeIdRotation {
                interval: SimDuration::from_hours(6),
            },
        ),
        (
            "node-ID rotation (1h)",
            Countermeasure::NodeIdRotation {
                interval: SimDuration::from_hours(1),
            },
        ),
        (
            "cover traffic (1x)",
            Countermeasure::CoverTraffic { fake_per_real: 1.0 },
        ),
        (
            "cover traffic (4x)",
            Countermeasure::CoverTraffic { fake_per_real: 4.0 },
        ),
        (
            "salted CID hashing (10% known)",
            Countermeasure::SaltedCidHashing {
                adversary_knowledge: 0.1,
            },
        ),
        (
            "salted CID hashing (50% known)",
            Countermeasure::SaltedCidHashing {
                adversary_knowledge: 0.5,
            },
        ),
        (
            "gateway usage (30% adoption)",
            Countermeasure::GatewayUsage { adoption: 0.3 },
        ),
        (
            "gateway usage (80% adoption)",
            Countermeasure::GatewayUsage { adoption: 0.8 },
        ),
    ];

    print_header("Sec. VI-C — countermeasure design space (lower = better privacy)");
    print_row(
        "manifest",
        format!(
            "{} segments, {} entries",
            summary.segment_count, summary.total_entries
        ),
    );
    println!(
        "  {:<34} {:>12} {:>12} {:>12} {:>10}",
        "countermeasure", "TNW link.", "IDW prec.", "CID visib.", "overhead"
    );
    // Baseline.
    let baseline = ipfs_mon_core::MitigatedTrace {
        trace: streamed.clone(),
        traffic_overhead: 0.0,
        forced_reconnections: 0,
    };
    let eval = evaluate_countermeasure(&streamed, &baseline);
    println!(
        "  {:<34} {:>12} {:>12} {:>12} {:>10}",
        "none (baseline)",
        pct(eval.tnw_linkability),
        pct(eval.idw_precision),
        pct(eval.cid_visibility),
        pct(eval.traffic_overhead)
    );
    for (name, countermeasure) in cases {
        let mut rng = SimRng::new(0xC0FFEE);
        let mitigated = apply_countermeasure(&streamed, countermeasure, &mut rng);
        let eval = evaluate_countermeasure(&streamed, &mitigated);
        println!(
            "  {:<34} {:>12} {:>12} {:>12} {:>10}",
            name,
            pct(eval.tnw_linkability),
            pct(eval.idw_precision),
            pct(eval.cid_visibility),
            pct(eval.traffic_overhead)
        );
    }
    println!("\n  paper: every countermeasure trades privacy against performance,");
    println!("  censorship resistance or decentralization (Sec. VI-C)");
}
