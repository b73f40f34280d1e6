//! Experiment E6 (Fig. 6 / Sec. VI-B3): deduplicated Bitswap request rate by
//! origin group — all gateways, the dominant operator ("Cloudflare" in the
//! paper), and non-gateway ("homegrown") nodes.
//!
//! Paper findings: gateway and non-gateway nodes contribute a similar number
//! of requests, and a single operator is responsible for most gateway
//! traffic.

use ipfs_mon_bench::{gateway_peer_sets, no_args, print_header, print_row, run_experiment, scaled};
use ipfs_mon_core::origin_group_rates;
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_workload::ScenarioConfig;

fn main() {
    no_args();
    let mut config = ScenarioConfig::analysis_week(106, scaled(1_000));
    config.horizon = SimDuration::from_days(3);
    // Gateways serve a lot of HTTP traffic; only cache misses/revalidations
    // become Bitswap requests.
    config.workload.gateway_requests_per_hour = 4_000.0;
    config.workload.mean_node_requests_per_hour = 1.2;
    let run = run_experiment(&config);

    let (gateways, dominant) = gateway_peer_sets(&run.network);
    let rates = origin_group_rates(&run.trace, &gateways, &dominant, SimDuration::from_hours(1));

    print_header("Fig. 6 — deduplicated request rate by origin group (requests/s)");
    println!(
        "  {:>6} {:>14} {:>14} {:>14}",
        "hour", "all gateways", "dominant op", "non-gateway"
    );
    for (i, (_, gw, dom, other)) in rates.rows.iter().enumerate().step_by(6) {
        println!("  {i:>6} {gw:>14.4} {dom:>14.4} {other:>14.4}");
    }
    print_header("Totals over the window");
    print_row("gateway requests", rates.totals.0);
    print_row("  of which dominant operator", rates.totals.1);
    print_row("non-gateway requests", rates.totals.2);
    let ratio = rates.totals.0 as f64 / rates.totals.2.max(1) as f64;
    print_row("gateway / non-gateway ratio", format!("{ratio:.2}"));
    print_row(
        "paper",
        "similar volume from gateways and non-gateways; one operator dominates",
    );
    let (h, r, m) = (
        run.report.counters.get("gateway_cache_hits"),
        run.report.counters.get("gateway_cache_revalidations"),
        run.report.counters.get("gateway_cache_misses"),
    );
    print_row(
        "gateway HTTP cache (hit/revalidate/miss)",
        format!(
            "{h}/{r}/{m} (hit ratio {:.1}%)",
            100.0 * h as f64 / (h + r + m).max(1) as f64
        ),
    );
}
