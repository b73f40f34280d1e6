//! Ablation A2 (Sec. IV-C / VI-A1): effect of the number of monitoring nodes
//! on coverage and on the committee-occupancy network-size estimate.

use ipfs_mon_bench::{no_args, pct, print_header, run_experiment, scaled};
use ipfs_mon_core::estimate_network_size;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_types::Country;
use ipfs_mon_workload::{MonitorConfig, ScenarioConfig};

fn main() {
    no_args();
    print_header("Ablation — number of monitors r (coverage and estimation error)");
    println!(
        "  {:>4} {:>16} {:>18} {:>18}",
        "r", "joint coverage", "committee estimate", "relative error"
    );
    for r in 1..=5usize {
        let mut config = ScenarioConfig::analysis_week(120 + r as u64, scaled(1_500));
        config.horizon = SimDuration::from_days(2);
        config.workload.mean_node_requests_per_hour = 0.3;
        config.monitors = (0..r)
            .map(|i| MonitorConfig {
                label: format!("m{i}"),
                country: if i % 2 == 0 { Country::Us } else { Country::De },
                attach_probability: 0.5,
            })
            .collect();
        let run = run_experiment(&config);
        let report = estimate_network_size(
            &run.dataset,
            SimTime::ZERO + SimDuration::from_hours(24),
            SimTime::ZERO + SimDuration::from_hours(44),
            SimDuration::from_hours(4),
        );
        // The estimators target the *currently online* population, so use the
        // number of nodes online at the middle of the estimation window as
        // ground truth (the scenario also contains offline nodes due to churn).
        let midpoint = SimTime::ZERO + SimDuration::from_hours(34);
        let truth = run
            .network
            .scenario()
            .nodes
            .iter()
            .filter(|n| n.schedule.online_at(midpoint))
            .count() as f64;
        let joint = report.union_sizes.map(|s| s.mean / truth).unwrap_or(0.0);
        let (estimate, error) = report
            .committee
            .map(|s| (s.mean, (s.mean - truth).abs() / truth))
            .unwrap_or((f64::NAN, f64::NAN));
        println!(
            "  {r:>4} {:>16} {estimate:>18.0} {:>18}",
            pct(joint.min(1.0)),
            pct(error)
        );
    }
    println!("\n  shape: coverage grows with r; with r >= 2 the committee estimate stays");
    println!("  close to the online population (the paper deploys r = 2)");
}
