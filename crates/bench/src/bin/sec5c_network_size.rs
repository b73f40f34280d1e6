//! Experiment E7 (Sec. V-C): monitoring coverage and network-size estimation.
//!
//! Reproduces the Sec. V-C pipeline: peer-set snapshots at the two monitors,
//! the capture–recapture (eq. 1) and committee-occupancy (eq. 3) estimates,
//! the comparison against a DHT crawl, and the resulting coverage numbers
//! (paper: 54 % and 49 % per monitor, 67 % jointly, against the
//! crawler-derived size).

use ipfs_mon_bench::{
    args_or_exit, pct, print_header, print_row, run_experiment, scaled, spill_to_manifest, ObsFlags,
};
use ipfs_mon_core::{coverage, estimate_network_size, estimate_network_size_source};
use ipfs_mon_kad::Crawler;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_tracestore::ManifestReader;
use ipfs_mon_workload::ScenarioConfig;

fn main() {
    // Heartbeats cover the whole experiment; the drop at the end of main
    // emits the final `"done":true` line (a no-op without --obs).
    let _reporter = args_or_exit(ObsFlags::USAGE, ObsFlags::parse).start();
    let mut config = ScenarioConfig::analysis_week(107, scaled(3_000));
    config.horizon = SimDuration::from_days(7);
    config.workload.mean_node_requests_per_hour = 0.3;
    let run = run_experiment(&config);

    let window_start = SimTime::ZERO + SimDuration::from_hours(12);
    let window_end = SimTime::ZERO + config.horizon;
    let interval = SimDuration::from_hours(12);

    // The analysis runs from a multi-segment manifest without materializing
    // the dataset — the constant-memory path a ten-day deployment needs.
    // The result below is asserted equal to the in-memory reference.
    let dir = std::env::temp_dir().join(format!("sec5c-manifest-{}", std::process::id()));
    let summary = spill_to_manifest(
        &run.dataset,
        &dir,
        (run.dataset.total_entries() as u64 / 6).max(1),
    );
    let reader = ManifestReader::open(&summary.manifest_path).expect("open manifest");
    let report = estimate_network_size_source(&reader, window_start, window_end, interval)
        .expect("streaming estimation");

    // Cross-check: the streaming report must equal the in-memory one.
    let in_memory = estimate_network_size(&run.dataset, window_start, window_end, interval);
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&in_memory).unwrap(),
        "streaming netsize must equal the in-memory path"
    );
    std::fs::remove_dir_all(&dir).ok();

    print_header("Sec. V-C — streaming dataset layer");
    print_row(
        "manifest",
        format!(
            "{} segments, {} entries",
            summary.segment_count, summary.total_entries
        ),
    );
    print_row("streaming == in-memory", "verified (bit-identical report)");

    // DHT crawl at mid-week, as the comparison baseline.
    let crawl_at = SimTime::ZERO + SimDuration::from_days(3);
    let bootstrap = run.network.online_server_peers(crawl_at, 5);
    let view = run.network.dht_view_at(crawl_at);
    let crawl = Crawler::new().crawl(&view, &bootstrap);

    let ground_truth_total = run.network.node_count();
    let ground_truth_online = run
        .network
        .scenario()
        .nodes
        .iter()
        .filter(|n| n.schedule.online_at(crawl_at))
        .count();

    print_header("Sec. V-C — unique peers over the window");
    print_row(
        "monitor us: unique connected peers",
        report.weekly_unique_per_monitor[0],
    );
    print_row(
        "monitor de: unique connected peers",
        report.weekly_unique_per_monitor[1],
    );
    print_row(
        "union of unique connected peers",
        report.weekly_unique_union,
    );
    print_row(
        "bitswap-active peers (us / de / union)",
        format!(
            "{} / {} / {}",
            report.bitswap_active_per_monitor[0],
            report.bitswap_active_per_monitor[1],
            report.bitswap_active_union
        ),
    );

    print_header("Sec. V-C — network size estimates");
    if let Some(s) = report.capture_recapture {
        print_row(
            "eq. (1) capture-recapture (mean ± std)",
            format!("{:.0} ± {:.0}", s.mean, s.std_dev),
        );
    }
    if let Some(s) = report.committee {
        print_row(
            "eq. (3) committee occupancy (mean ± std)",
            format!("{:.0} ± {:.0}", s.mean, s.std_dev),
        );
    }
    print_row("DHT crawl: discovered peers", crawl.discovered_count());
    print_row("DHT crawl: responsive peers", crawl.responsive_count());
    print_row("ground truth: all nodes in scenario", ground_truth_total);
    print_row(
        "ground truth: nodes online at crawl time",
        ground_truth_online,
    );
    print_row(
        "paper values",
        "eq.(1) 10561±390, eq.(3) 10250±395, crawl avg 14411/52463 weekly",
    );

    print_header("Sec. V-C — monitoring coverage (reference: crawler count)");
    let cov = coverage(&report, crawl.discovered_count().max(1) as f64);
    print_row("coverage monitor us", pct(cov.per_monitor[0]));
    print_row("coverage monitor de", pct(cov.per_monitor[1]));
    print_row("joint coverage", pct(cov.joint));
    print_row("paper", "54% / 49% per monitor, 67% jointly");
}
