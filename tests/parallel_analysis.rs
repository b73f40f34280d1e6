//! Parallel analysis engine integration coverage.
//!
//! Property tests proving the two guarantees the engine rests on, for every
//! ported analysis (request-type series, popularity, activity counts,
//! descriptive stats):
//!
//! 1. **driver equivalence** — `ManifestReader::run_parallel(sink)` equals
//!    the serial wrapper (`run_sink` over the merged stream) on arbitrary
//!    datasets, rotation layouts and read options;
//! 2. **combine-order invariance** — folding each monitor's stream into its
//!    own sink clone and combining the partials in a *shuffled* order (any
//!    worker completion order a parallel run could exhibit) equals the
//!    serial output.
//!
//! Plus equivalence of the sink outputs with the in-memory reference
//! functions (`request_type_series`, `popularity_scores`,
//! `per_peer_request_counts`, `multicodec_shares`).

mod common;

use common::{random_dataset, run_flagged, write_manifest_rotated as write_manifest};
use ipfs_monitoring::core::{
    activity_counts_source, entry_stats_source, multicodec_shares, per_peer_request_counts,
    popularity_scores, popularity_scores_source, request_type_series, request_type_series_source,
    unify_and_flag, ActivityCountsSink, AnalysisSink, EntryStatsSink, PopularitySink,
    PreprocessConfig, RequestTypeSink,
};
use ipfs_monitoring::simnet::time::SimDuration;
use ipfs_monitoring::tracestore::{run_sink, ManifestReader};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn temp_dir(tag: &str, seed: u64) -> PathBuf {
    common::temp_dir(&format!("par-an-{tag}-{seed}"))
}

/// Folds one monitor's time-sorted stream into a fresh clone of `sink`.
fn fold_monitor<K: AnalysisSink + Clone>(reader: &ManifestReader, monitor: usize, sink: &K) -> K {
    let mut part = sink.clone();
    for entry in reader.stream_monitor_sorted(monitor) {
        part.consume(entry);
    }
    part
}

/// Combines per-monitor partials in the given (shuffled) order.
fn combine_in_order<K: AnalysisSink + Clone>(mut parts: Vec<K>, order: &[usize]) -> K {
    let mut acc: Option<K> = None;
    for &m in order {
        let part = parts[m].clone();
        match acc.as_mut() {
            None => acc = Some(part),
            Some(acc) => acc.combine(part),
        }
    }
    let _ = parts.drain(..);
    acc.expect("at least one monitor")
}

proptest! {
    /// Driver equivalence + combine-order invariance for all four ported
    /// analyses, over random datasets, rotation layouts and shuffled
    /// combine orders.
    #[test]
    fn parallel_engine_matches_serial_wrappers(
        seed in 0u64..1_000_000,
        monitors in 1usize..4,
        per_monitor in 1usize..90,
        jitter in 0u64..2_000,
        rotate in 5u64..60,
        chunk in 1usize..32,
        shuffle_seed in 0u64..u64::MAX,
    ) {
        let dataset = random_dataset(seed, monitors, per_monitor, jitter);
        let dir = temp_dir("prop", seed);
        write_manifest(&dataset, &dir, rotate, chunk);
        let reader = ManifestReader::open(&dir).unwrap();

        // A shuffled worker-completion order.
        let mut order: Vec<usize> = (0..monitors).collect();
        let mut shuffle_rng = StdRng::seed_from_u64(shuffle_seed);
        for i in (1..order.len()).rev() {
            order.swap(i, shuffle_rng.gen_range(0..=i));
        }

        macro_rules! check {
            ($make:expr, $label:literal) => {{
                let serial = run_sink(&reader, $make).unwrap();
                let parallel = reader.run_parallel($make).unwrap();
                prop_assert_eq!(&serial, &parallel, "run_parallel diverges: {}", $label);
                let parts: Vec<_> = (0..monitors)
                    .map(|m| fold_monitor(&reader, m, &$make))
                    .collect();
                let shuffled = combine_in_order(parts, &order).finish();
                prop_assert_eq!(&serial, &shuffled,
                    "shuffled combine order {:?} diverges: {}", &order, $label);
            }};
        }

        let bucket = SimDuration::from_secs(30);
        check!(RequestTypeSink::new(bucket), "request-type series");
        check!(PopularitySink::new(), "popularity");
        check!(ActivityCountsSink::new(), "activity counts");
        check!(EntryStatsSink::new(), "entry stats");

        // Composed sinks run through the same machinery.
        let serial = run_sink(&reader, (PopularitySink::new(), EntryStatsSink::new())).unwrap();
        let parallel = reader
            .run_parallel((PopularitySink::new(), EntryStatsSink::new()))
            .unwrap();
        prop_assert_eq!(serial, parallel);

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The sinks equal the in-memory reference functions, on a trace from the
/// standard in-memory path (the reference semantics).
#[test]
fn sink_outputs_match_wrapped_entry_points() {
    let dataset = random_dataset(4242, 3, 400, 1_500);
    let dir = temp_dir("wrapped", 4242);
    write_manifest(&dataset, &dir, 64, 24);
    let reader = ManifestReader::open(&dir).unwrap();

    // Request-type series: row m equals the in-memory per-monitor analysis.
    let bucket = SimDuration::from_hours(1);
    let series = request_type_series_source(&reader, bucket).unwrap();
    assert_eq!(series.len(), 3);
    for (m, row) in series.iter().enumerate() {
        assert_eq!(
            row,
            &request_type_series(&dataset, m, bucket),
            "monitor {m}"
        );
    }
    assert_eq!(
        series,
        reader.run_parallel(RequestTypeSink::new(bucket)).unwrap()
    );

    // Popularity and per-peer counts over the flagged stream equal the
    // in-memory functions over the in-memory flagged trace.
    let (trace, _) = unify_and_flag(&dataset, PreprocessConfig::default());
    let (flagged_scores, flagged_counts) =
        run_flagged(&reader, (PopularitySink::new(), ActivityCountsSink::new()));
    assert_eq!(flagged_scores, popularity_scores(&trace));
    assert_eq!(flagged_counts.per_peer, per_peer_request_counts(&trace));

    // Over the raw stream the serial and per-monitor drivers agree, and the
    // multicodec rows equal the in-memory Table I computation.
    let scores = popularity_scores_source(&reader).unwrap();
    assert_eq!(scores, reader.run_parallel(PopularitySink::new()).unwrap());
    let counts = activity_counts_source(&reader).unwrap();
    assert_eq!(counts.multicodec, multicodec_shares(&dataset));
    assert_eq!(
        counts,
        reader.run_parallel(ActivityCountsSink::new()).unwrap()
    );

    // Entry stats: per-monitor counts reconcile with the dataset.
    let stats = entry_stats_source(&reader).unwrap();
    assert_eq!(stats.len(), 3);
    for (m, s) in stats.iter().enumerate() {
        assert_eq!(s.entries as usize, dataset.entries[m].len(), "monitor {m}");
        assert_eq!(s.requests + s.cancels, s.entries);
        assert_eq!(s.inter_arrival_ms.unwrap().count as u64, s.entries - 1);
    }
    assert_eq!(stats, reader.run_parallel(EntryStatsSink::new()).unwrap());

    std::fs::remove_dir_all(&dir).ok();
}
