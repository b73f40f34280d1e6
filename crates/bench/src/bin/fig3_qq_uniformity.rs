//! Experiment E1 (Fig. 3): quantile–quantile plot of the node IDs of peers
//! connected to the `us` monitor against the uniform distribution.
//!
//! The paper finds the peer-ID distribution "surprisingly close to
//! uniformity", which justifies the uniform-draw assumption behind the
//! network-size estimators.

use ipfs_mon_analysis::{qq_against_uniform, qq_uniform_deviation};
use ipfs_mon_bench::{no_args, print_header, print_row, run_experiment, scaled};
use ipfs_mon_core::peer_id_positions;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_workload::ScenarioConfig;

fn main() {
    no_args();
    let mut config = ScenarioConfig::analysis_week(101, scaled(2_000));
    config.horizon = SimDuration::from_days(2);
    config.workload.mean_node_requests_per_hour = 0.5;
    let run = run_experiment(&config);

    // Snapshot the us monitor's peer set in the middle of the run (the paper
    // uses May 4th of its analysis week).
    let snapshot_at = SimTime::ZERO + SimDuration::from_days(1);
    let positions = peer_id_positions(&run.dataset, 0, snapshot_at);

    print_header("Fig. 3 — QQ plot of connected peers' node IDs vs. uniform");
    print_row("connected peers in snapshot", positions.len());
    println!("  {:>10} {:>10}", "theoretical", "sample");
    for (theoretical, sample) in qq_against_uniform(&positions, 21) {
        println!("  {theoretical:>10.3} {sample:>10.3}");
    }
    let deviation = qq_uniform_deviation(&positions, 101);
    print_row("max deviation from the diagonal", format!("{deviation:.4}"));
    print_row(
        "paper's qualitative finding",
        "node IDs are approximately uniform (points on the diagonal)",
    );
}
