//! Experiment E3 (Table I): share of observed data requests by multicodec.
//!
//! Paper (March 2020 – June 2021, raw traces): DagProtobuf 86.21 %,
//! Raw 13.42 %, DagCBOR 0.37 %, GitRaw < 0.01 %, EthereumTx < 0.01 %,
//! others < 0.01 %.

use ipfs_mon_bench::{no_args, pct, print_header, run_experiment, scaled};
use ipfs_mon_core::multicodec_shares;
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_workload::ScenarioConfig;

fn main() {
    no_args();
    let mut config = ScenarioConfig::analysis_week(103, scaled(800));
    config.horizon = SimDuration::from_days(3);
    let run = run_experiment(&config);
    let rows = multicodec_shares(&run.dataset);
    let paper: &[(&str, f64)] = &[
        ("DagProtobuf", 86.21),
        ("Raw", 13.42),
        ("DagCBOR", 0.37),
        ("GitRaw", 0.01),
        ("EthereumTx", 0.01),
    ];

    print_header("Table I — share of data requests by multicodec");
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
