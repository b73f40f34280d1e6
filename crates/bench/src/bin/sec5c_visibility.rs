//! Experiment E8 (Sec. V-C discussion): what the passive monitors see vs what
//! a DHT crawl sees, as the DHT-client share of the population grows.
//!
//! The paper observes 99 147 unique peers at the monitors vs 52 463 at the
//! crawler over the same week and attributes the gap to DHT clients (invisible
//! to crawls) and churn. This experiment sweeps the client fraction and shows
//! the same qualitative gap.
//!
//! `--population <n>` and `--horizon-days <d>` override the default scale
//! (1 500 nodes × 3 days, times `IPFS_MON_SCALE`). The experiment runs on the
//! lazy event loop ([`run_experiment_lazy`]): requests are drawn while the
//! simulation executes and no request vector is ever materialized, so
//! order-of-magnitude larger scenarios — e.g. `--population 15000
//! --horizon-days 7`, ten times the default event volume — keep simulator
//! memory bounded by the population.

use ipfs_mon_bench::{args_or_exit, print_header, run_experiment_lazy, scaled, ScaleFlags};
use ipfs_mon_kad::Crawler;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_workload::ScenarioConfig;

fn main() {
    let scale = args_or_exit(ScaleFlags::USAGE, |args| {
        ScaleFlags::parse(args, scaled(1_500), 3)
    });

    print_header("Sec. V-C — monitor vs crawler visibility by DHT-client share");
    println!(
        "  population {}, horizon {} d",
        scale.population, scale.horizon_days
    );
    println!(
        "  {:>14} {:>16} {:>16} {:>16}",
        "client share", "monitor uniques", "crawl discovered", "ground truth"
    );
    for (i, client_fraction) in [0.30f64, 0.55, 0.70].iter().enumerate() {
        let mut config = ScenarioConfig::analysis_week(110 + i as u64, scale.population);
        config.horizon = SimDuration::from_days(scale.horizon_days);
        config.population.client_fraction = *client_fraction;
        config.workload.mean_node_requests_per_hour = 0.3;
        let run = run_experiment_lazy(&config);

        let monitor_uniques: std::collections::HashSet<_> = (0..run.dataset.monitor_count())
            .flat_map(|m| run.dataset.peers_connected_to(m).into_iter())
            .collect();
        let crawl_at = SimTime::ZERO + SimDuration::from_days(1);
        let bootstrap = run.network.online_server_peers(crawl_at, 5);
        let crawl = Crawler::new().crawl(&run.network.dht_view_at(crawl_at), &bootstrap);
        println!(
            "  {:>14.2} {:>16} {:>16} {:>16}",
            client_fraction,
            monitor_uniques.len(),
            crawl.discovered_count(),
            run.network.node_count()
        );
    }
    println!("\n  paper: 99147 unique peers at the monitors vs 52463 at the crawler (one week)");
    println!("  shape: monitors see more of the network than crawls as the client share grows");
}
