//! Experiment E2 (Fig. 4): number of observed data requests over time,
//! classified into the legacy `WANT_BLOCK` type and the `WANT_HAVE` type
//! introduced with IPFS v0.5.
//!
//! The simulated population upgrades gradually after the release (adoption
//! curve), so the WANT_BLOCK curve decays while WANT_HAVE grows — the
//! crossover shape of the paper's Fig. 4.

use ipfs_mon_bench::{no_args, print_header, print_row, run_experiment, scaled};
use ipfs_mon_core::request_type_series;
use ipfs_mon_node::AdoptionCurve;
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_workload::ScenarioConfig;

fn main() {
    no_args();
    let mut config = ScenarioConfig::analysis_week(102, scaled(150));
    config.horizon = SimDuration::from_days(150);
    config.population.adoption = AdoptionCurve::fig4_default();
    config.workload.mean_node_requests_per_hour = 0.5;
    config.workload.gateway_requests_per_hour = 20.0;
    let run = run_experiment(&config);
    let series = request_type_series(&run.dataset, 0, SimDuration::from_days(7));

    print_header("Fig. 4 — requests per week by entry type (monitor `us`)");
    println!("  {:>6} {:>14} {:>14}", "week", "WANT_HAVE", "WANT_BLOCK");
    for (i, (_, have, block)) in series.rows.iter().enumerate() {
        println!("  {i:>6} {have:>14} {block:>14}");
    }
    let first_quarter: u64 = series
        .rows
        .iter()
        .take(series.rows.len() / 4)
        .map(|r| r.1)
        .sum();
    let last_quarter: u64 = series
        .rows
        .iter()
        .skip(3 * series.rows.len() / 4)
        .map(|r| r.1)
        .sum();
    let first_quarter_block: u64 = series
        .rows
        .iter()
        .take(series.rows.len() / 4)
        .map(|r| r.2)
        .sum();
    let last_quarter_block: u64 = series
        .rows
        .iter()
        .skip(3 * series.rows.len() / 4)
        .map(|r| r.2)
        .sum();
    print_header("Shape check (paper: WANT_BLOCK dominates early, WANT_HAVE later)");
    print_row(
        "WANT_HAVE first quarter vs last quarter",
        format!("{first_quarter} → {last_quarter}"),
    );
    print_row(
        "WANT_BLOCK first quarter vs last quarter",
        format!("{first_quarter_block} → {last_quarter_block}"),
    );
}
