//! Parallel analysis engine integration coverage.
//!
//! Property tests over the differential suites' one generator
//! (`common::differential_case`: several monitors, rotated segments, small
//! chunks) proving, for every ported analysis
//! (request-type series, popularity, activity counts, descriptive stats):
//!
//! 1. **driver equivalence and combine-order invariance** — each sink under
//!    `ManifestReader::run_parallel` equals the serial wrapper (`run_sink`
//!    over the merged stream), and so does folding each monitor's stream
//!    into its own sink clone and combining the partials in a *shuffled*
//!    order (any worker completion order a parallel run could exhibit);
//! 2. **the in-memory reference** — the sink outputs equal the functions
//!    over the in-memory dataset (`request_type_series`,
//!    `popularity_scores`, `per_peer_request_counts`, `multicodec_shares`).
//!
//! Compositions of these sinks under both drivers are `column_paths.rs`'s.

mod common;

use common::{differential_case, run_flagged, DifferentialCase};
use ipfs_monitoring::core::{
    multicodec_shares, per_peer_request_counts, popularity_scores, request_type_series,
    unify_and_flag, ActivityCountsSink, AnalysisSink, EntryStatsSink, PopularitySink,
    PreprocessConfig, RequestTypeSink,
};
use ipfs_monitoring::simnet::time::SimDuration;
use ipfs_monitoring::tracestore::{run_sink, ManifestReader};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// The case of `seed`, spilled into a directory of its own under `tag`.
fn spilled_case(tag: &str, seed: u64) -> (DifferentialCase, PathBuf) {
    let case = differential_case(seed);
    let dir = common::temp_dir(&format!("par-an-{tag}-{seed}"));
    case.spill(&dir);
    (case, dir)
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
    /// analyses, each on its own, under a shuffled combine order.
    #[test]
    fn parallel_engine_matches_serial_wrappers(seed in 0u64..1_000_000) {
        let (_, dir) = spilled_case("prop", seed);
        let reader = ManifestReader::open(&dir).unwrap();
        let monitors = reader.monitor_count();

        // A shuffled worker-completion order.
        let mut order: Vec<usize> = (0..monitors).collect();
        let mut shuffle_rng = StdRng::seed_from_u64(seed);
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

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The sinks equal the in-memory reference functions (the reference
    /// semantics), over the unflagged and the flagged stream.
    #[test]
    fn sink_outputs_match_wrapped_entry_points(seed in 0u64..1_000_000) {
        let (case, dir) = spilled_case("wrapped", seed);
        let dataset = &case.dataset;
        let monitors = dataset.monitor_count();
        let reader = ManifestReader::open(&dir).unwrap();

        // Request-type series: row m equals the in-memory per-monitor analysis.
        let bucket = SimDuration::from_hours(1);
        let series = run_sink(&reader, RequestTypeSink::new(bucket)).unwrap();
        prop_assert_eq!(series.len(), monitors);
        for (m, row) in series.iter().enumerate() {
            prop_assert_eq!(row, &request_type_series(dataset, m, bucket), "monitor {}", m);
        }

        // Popularity and per-peer counts over the flagged stream equal the
        // in-memory functions over the in-memory flagged trace.
        let (trace, _) = unify_and_flag(dataset, PreprocessConfig::default());
        let (flagged_scores, flagged_counts) =
            run_flagged(&reader, (PopularitySink::new(), ActivityCountsSink::new()));
        prop_assert_eq!(flagged_scores, popularity_scores(&trace));
        prop_assert_eq!(flagged_counts.per_peer, per_peer_request_counts(&trace));

        // Over the unflagged stream the multicodec rows equal the in-memory
        // Table I computation.
        let counts = run_sink(&reader, ActivityCountsSink::new()).unwrap();
        prop_assert_eq!(&counts.multicodec, &multicodec_shares(dataset));

        // Entry stats: per-monitor counts reconcile with the dataset.
        let stats = run_sink(&reader, EntryStatsSink::new()).unwrap();
        prop_assert_eq!(stats.len(), monitors);
        for (m, s) in stats.iter().enumerate() {
            prop_assert_eq!(s.entries as usize, dataset.entries[m].len(), "monitor {}", m);
            prop_assert_eq!(s.requests + s.cancels, s.entries);
            prop_assert_eq!(s.inter_arrival_ms.unwrap().count as u64, s.entries - 1);
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}
