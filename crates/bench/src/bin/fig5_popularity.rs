//! Experiment E5 (Fig. 5 / Sec. V-E): ECDFs of the two content-popularity
//! scores (RRP, URP) and the Clauset–Shalizi–Newman power-law test.
//!
//! Paper findings: both distributions are highly skewed (over 80 % of CIDs
//! requested by a single peer), yet the power-law hypothesis is rejected
//! (p < 0.1 for both scores).

use ipfs_mon_bench::{
    no_args, pct, print_header, print_row, run_experiment, scaled, spill_to_manifest,
};
use ipfs_mon_core::{popularity_report, unify_and_flag_source, PreprocessConfig};
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_tracestore::ManifestReader;
use ipfs_mon_workload::ScenarioConfig;

fn main() {
    no_args();
    let mut config = ScenarioConfig::analysis_week(105, scaled(1_200));
    config.horizon = SimDuration::from_days(3);
    config.catalog.items = scaled(6_000);
    let run = run_experiment(&config);

    // The unified trace is re-derived by streaming the spilled manifest and
    // must match the in-memory preprocessing byte for byte.
    let dir = std::env::temp_dir().join(format!("fig5-manifest-{}", std::process::id()));
    let summary = spill_to_manifest(
        &run.dataset,
        &dir,
        (run.dataset.total_entries() as u64 / 4).max(1),
    );
    let reader = ManifestReader::open(&summary.manifest_path).expect("open manifest");
    let (streamed, _) =
        unify_and_flag_source(&reader, PreprocessConfig::default()).expect("stream manifest");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        streamed.entries, run.trace.entries,
        "streamed unified trace must equal the in-memory path"
    );

    let report = popularity_report(&streamed, 60, 105);

    print_header("Fig. 5 — content popularity (unified, deduplicated trace)");
    print_row(
        "manifest",
        format!(
            "{} segments, {} entries",
            summary.segment_count, summary.total_entries
        ),
    );
    print_row("distinct CIDs observed", report.cid_count);
    print_row(
        "CIDs requested by exactly one peer",
        pct(report.single_requester_fraction),
    );
    print_row("paper", "over 80% of CIDs requested by one peer");

    print_header("RRP ECDF (score → cumulative probability)");
    for q in [0.25, 0.5, 0.75, 0.9, 0.99] {
        if let Some((score, _)) = report.rrp_curve.iter().find(|(_, p)| *p >= q) {
            print_row(&format!("P{:.0} score", q * 100.0), format!("{score:.0}"));
        }
    }
    print_header("URP ECDF (score → cumulative probability)");
    for q in [0.25, 0.5, 0.75, 0.9, 0.99] {
        if let Some((score, _)) = report.urp_curve.iter().find(|(_, p)| *p >= q) {
            print_row(&format!("P{:.0} score", q * 100.0), format!("{score:.0}"));
        }
    }

    print_header("Power-law hypothesis (CSN test, reject if p < 0.1)");
    match &report.rrp_power_law {
        Some(fit) => {
            print_row(
                "RRP",
                format!(
                    "alpha={:.2} xmin={:.0} KS={:.3} p={:.3} rejected={}",
                    fit.fit.alpha, fit.fit.xmin, fit.fit.ks_distance, fit.p_value, fit.rejected
                ),
            );
        }
        None => print_row("RRP", "not enough samples"),
    }
    match &report.urp_power_law {
        Some(fit) => {
            print_row(
                "URP",
                format!(
                    "alpha={:.2} xmin={:.0} KS={:.3} p={:.3} rejected={}",
                    fit.fit.alpha, fit.fit.xmin, fit.fit.ks_distance, fit.p_value, fit.rejected
                ),
            );
        }
        None => print_row("URP", "not enough samples"),
    }
    print_row("paper", "power-law hypothesis rejected for RRP and URP");
}
