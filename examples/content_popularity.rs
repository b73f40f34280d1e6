//! Content-popularity analysis (Sec. IV-D / V-E): compute RRP and URP, print
//! ECDF quantiles and run the power-law goodness-of-fit test.
//!
//! Run with `cargo run --release --example content_popularity`.

use ipfs_monitoring::core::{
    popularity_report, unify_and_flag, MonitorCollector, PreprocessConfig,
};
use ipfs_monitoring::node::Network;
use ipfs_monitoring::simnet::time::SimDuration;
use ipfs_monitoring::workload::{build_scenario_lazy, ScenarioConfig};

fn main() {
    let mut config = ScenarioConfig::analysis_week(11, 800);
    config.horizon = SimDuration::from_days(2);
    config.catalog.items = 4_000;
    let (scenario, sources) = build_scenario_lazy(&config);
    let mut network = Network::with_sources(scenario, sources);
    let mut collector = MonitorCollector::us_de();
    network.run(&mut collector);
    let (trace, _) = unify_and_flag(&collector.into_dataset(), PreprocessConfig::default());

    let report = popularity_report(&trace, 50, 11);
    println!("distinct CIDs observed: {}", report.cid_count);
    println!(
        "share of CIDs requested by exactly one peer: {:.1}%",
        report.single_requester_fraction * 100.0
    );

    println!("\nURP ECDF quantile points (unique requesters → cum. prob.):");
    for (score, prob) in report.urp_curve.iter().take(10) {
        println!("  {score:>6.0} → {prob:.3}");
    }

    for (label, fit) in [
        ("RRP", &report.rrp_power_law),
        ("URP", &report.urp_power_law),
    ] {
        match fit {
            Some(f) => println!(
                "{label}: power-law fit alpha={:.2}, xmin={:.0}, KS={:.3}, p={:.3} → {}",
                f.fit.alpha,
                f.fit.xmin,
                f.fit.ks_distance,
                f.p_value,
                if f.rejected {
                    "REJECTED (as in the paper)"
                } else {
                    "not rejected"
                }
            ),
            None => println!("{label}: not enough samples for a fit"),
        }
    }
}
