//! Experiment E3 (Table I): share of observed data requests by multicodec.
//!
//! Paper (March 2020 – June 2021, raw traces): DagProtobuf 86.21 %,
//! Raw 13.42 %, DagCBOR 0.37 %, GitRaw < 0.01 %, EthereumTx < 0.01 %,
//! others < 0.01 %.

use ipfs_mon_bench::{
    no_args, pct, print_header, print_row, run_experiment, scaled, spill_to_manifest,
};
use ipfs_mon_core::{activity_counts_source, multicodec_shares};
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_tracestore::ManifestReader;
use ipfs_mon_workload::ScenarioConfig;

fn main() {
    no_args();
    let mut config = ScenarioConfig::analysis_week(103, scaled(800));
    config.horizon = SimDuration::from_days(3);
    let run = run_experiment(&config);

    // The table is computed by streaming the spilled manifest, cross-checked
    // against the in-memory computation.
    let dir = std::env::temp_dir().join(format!("table1-manifest-{}", std::process::id()));
    let summary = spill_to_manifest(
        &run.dataset,
        &dir,
        (run.dataset.total_entries() as u64 / 4).max(1),
    );
    let reader = ManifestReader::open(&summary.manifest_path).expect("open manifest");
    let counts = activity_counts_source(&reader).expect("stream activity counts");
    std::fs::remove_dir_all(&dir).ok();

    let rows = counts.multicodec.clone();
    assert_eq!(
        rows,
        multicodec_shares(&run.dataset),
        "streamed multicodec shares must equal the in-memory path"
    );
    let paper: &[(&str, f64)] = &[
        ("DagProtobuf", 86.21),
        ("Raw", 13.42),
        ("DagCBOR", 0.37),
        ("GitRaw", 0.01),
        ("EthereumTx", 0.01),
    ];

    print_header("Table I — share of data requests by multicodec");
    print_row(
        "manifest",
        format!(
            "{} segments, {} entries",
            summary.segment_count, summary.total_entries
        ),
    );
    println!(
        "  {:<14} {:>12} {:>10} {:>12}",
        "codec", "requests", "share", "paper"
    );
    for (codec, count, share) in &rows {
        let paper_share = paper
            .iter()
            .find(|(name, _)| *name == codec.paper_label())
            .map(|(_, s)| format!("{s:.2}%"))
            .unwrap_or_else(|| "<0.01%".into());
        println!(
            "  {:<14} {:>12} {:>10} {:>12}",
            codec.paper_label(),
            count,
            pct(*share),
            paper_share
        );
    }
}
