//! Experiment E4 (Table II): share of observed data requests by origin
//! country, computed on the unified, deduplicated trace of one analysis week.
//!
//! Paper (April 30 – May 6 2021): US 45.65 %, NL 13.85 %, DE 12.72 %,
//! CA 7.61 %, FR 6.64 %, others < 13.60 %.

use ipfs_mon_bench::{no_args, pct, print_header, run_experiment, scaled};
use ipfs_mon_core::country_shares;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_workload::ScenarioConfig;

fn main() {
    no_args();
    let mut config = ScenarioConfig::analysis_week(104, scaled(1_500));
    config.horizon = SimDuration::from_days(3);
    let run = run_experiment(&config);

    let rows = country_shares(&run.trace, SimTime::ZERO, SimTime::ZERO + config.horizon);
    let paper: &[(&str, f64)] = &[
        ("US", 45.65),
        ("NL", 13.85),
        ("DE", 12.72),
        ("CA", 7.61),
        ("FR", 6.64),
    ];

    print_header("Table II — share of data requests by country");
    println!(
        "  {:<8} {:>12} {:>10} {:>12}",
        "country", "requests", "share", "paper"
    );
    for (country, count, share) in &rows {
        let paper_share = paper
            .iter()
            .find(|(name, _)| *name == country.code())
            .map(|(_, s)| format!("{s:.2}%"))
            .unwrap_or_else(|| "(others)".into());
        println!(
            "  {:<8} {:>12} {:>10} {:>12}",
            country.code(),
            count,
            pct(*share),
            paper_share
        );
    }
}
