//! Property coverage for the continuous-monitoring building blocks:
//!
//! 1. **Windowed == offline batch** — slicing a stream through
//!    [`WindowedSink`](ipfs_monitoring::tracestore::WindowedSink) (serial
//!    or `run_parallel`) produces exactly the results of recomputing each
//!    window offline from the raw dataset, over random datasets, window
//!    shapes, rotation layouts, and out-of-order inter-monitor timestamps.
//! 2. **Sketch bounds** — [`SpaceSaving`] stays within its analytical error
//!    bounds against exact counts, streaming and after partitioned merges.
//! 3. **Combine-order invariance** — merging sketch partials in any order
//!    (any worker completion order `run_parallel` could exhibit) finishes
//!    to the same output.

mod common;

use common::{random_dataset, temp_dir, write_manifest_rotated};
use ipfs_monitoring::core::{windowed_popularity, windowed_request_types, RequestTypeSink};
use ipfs_monitoring::simnet::time::SimDuration;
use ipfs_monitoring::tracestore::{
    run_sink, AnalysisSink, LatePolicy, ManifestReader, SpaceSaving, SpaceSavingSink, TopK,
    WindowResult, WindowSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// A skewed key stream: quadratically biased towards small keys, so a few
/// heavy hitters rise above `total / capacity` while a long tail stays
/// below it.
fn skewed_stream(seed: u64, keys: u64, draws: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..draws)
        .map(|_| {
            let u: f64 = rng.gen();
            (((u * u) * keys as f64) as u64).min(keys - 1)
        })
        .collect()
}

/// A Fisher–Yates-shuffled permutation of `0..len`.
fn shuffled_order(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Asserts every documented Space-Saving guarantee of a finished report
/// against exact counts: overestimation, the error bracket, the error cap,
/// and heavy-hitter containment.
fn check_top_k<K: std::hash::Hash + Eq + Ord + std::fmt::Debug>(
    report: &TopK<K>,
    truth: &HashMap<K, u64>,
    total: u64,
    capacity: usize,
) {
    assert_eq!(report.total, total);
    let threshold = total / capacity as u64;
    for hh in &report.entries {
        let true_count = truth.get(&hh.key).copied().unwrap_or(0);
        assert!(
            hh.count >= true_count,
            "undercount: {:?} reported {} < true {true_count}",
            hh.key,
            hh.count
        );
        assert!(
            hh.count - hh.error <= true_count,
            "error bracket broken: {:?} count {} error {} true {true_count}",
            hh.key,
            hh.count,
            hh.error
        );
        assert!(
            hh.error <= threshold,
            "error {} above cap {threshold} for {:?}",
            hh.error,
            hh.key
        );
    }
    for (key, &count) in truth {
        if count > threshold {
            assert!(
                report.entries.iter().any(|hh| &hh.key == key),
                "heavy key {key:?} with count {count} (> {threshold}) missing"
            );
        }
    }
}

proptest! {
    /// Windowed analysis equals offline batch recomputation: for every
    /// sealed window, the output is exactly what a fresh accumulator
    /// produces over that window's slice of the raw dataset — under both
    /// the serial driver and `run_parallel`, across random datasets,
    /// tumbling and sliding specs, rotation boundaries, and out-of-order
    /// inter-monitor timestamps.
    #[test]
    fn windowed_results_equal_offline_batch_recomputation(
        seed in 0u64..1_000_000,
        monitors in 1usize..4,
        per_monitor in 1usize..80,
        jitter in 0u64..2_000,
        rotate in 5u64..60,
        chunk in 1usize..32,
        stride_s in 2u64..40,
        size_mult in 1u64..4,
    ) {
        let dataset = random_dataset(seed, monitors, per_monitor, jitter);
        let dir = temp_dir(&format!("win-prop-{seed}-{rotate}"));
        write_manifest_rotated(&dataset, &dir, rotate, chunk);
        let reader = ManifestReader::open(&dir).unwrap();

        let stride = SimDuration::from_secs(stride_s);
        let size = SimDuration::from_millis(stride.as_millis() * size_mult);
        let spec = WindowSpec::sliding(size, stride);
        let bucket = SimDuration::from_secs(5);
        let make = || {
            windowed_request_types(monitors, spec, SimDuration::ZERO, LatePolicy::Strict, bucket)
        };

        let serial = run_sink(&reader, make()).unwrap();
        let parallel = reader.run_parallel(make()).unwrap();
        prop_assert_eq!(&serial.results, &parallel.results);
        prop_assert_eq!(serial.late_dropped, 0);
        prop_assert_eq!(parallel.late_dropped, 0);

        // Offline reference: the raw entries in merged-stream order, a
        // fresh accumulator over each window's slice. Sliding windows see
        // an entry once per window containing it.
        let mut entries: Vec<_> = dataset.entries.iter().flatten().cloned().collect();
        entries.sort_by_key(|e| (e.timestamp, e.monitor));
        let last_window = entries
            .iter()
            .map(|e| *spec.windows_containing(e.timestamp).end())
            .max()
            .expect("dataset is non-empty");
        let mut expected = Vec::new();
        for index in 0..=last_window {
            let bounds = spec.bounds(index);
            let mut accum = RequestTypeSink::new(bucket);
            let mut count = 0u64;
            for entry in &entries {
                if entry.timestamp >= bounds.start && entry.timestamp < bounds.end {
                    accum.consume(entry.clone());
                    count += 1;
                }
            }
            expected.push(WindowResult { bounds, entries: count, output: accum.finish() });
        }
        prop_assert_eq!(serial.windows_sealed as usize, expected.len());
        prop_assert_eq!(&serial.results, &expected);

        // Rolling popularity rides the same machinery: both drivers agree.
        let make_pop =
            || windowed_popularity(monitors, spec, SimDuration::ZERO, LatePolicy::Strict);
        let serial_pop = run_sink(&reader, make_pop()).unwrap();
        let parallel_pop = reader.run_parallel(make_pop()).unwrap();
        prop_assert_eq!(&serial_pop.results, &parallel_pop.results);

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Space-Saving stays within its analytical bounds against exact
    /// counts — streaming and after partitioned merges — and merging the
    /// partitions in any order finishes identically, permutations and
    /// association trees alike.
    #[test]
    fn space_saving_bounds_hold_under_any_merge_order(
        seed in 0u64..1_000_000,
        capacity in 2usize..24,
        keys in 1u64..200,
        draws in 1usize..2_500,
        parts in 1usize..5,
        shuffle_seed: u64,
    ) {
        let stream = skewed_stream(seed, keys, draws);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for key in &stream {
            *truth.entry(*key).or_insert(0) += 1;
        }

        let mut single = SpaceSaving::new(capacity);
        for key in &stream {
            single.record(key);
        }
        check_top_k(&single.finish(), &truth, draws as u64, capacity);

        // Round-robin partitions: any interleaving a parallel run could
        // deal out, merged in a shuffled completion order.
        let mut partitions: Vec<SpaceSaving<u64>> =
            (0..parts).map(|_| SpaceSaving::new(capacity)).collect();
        for (i, key) in stream.iter().enumerate() {
            partitions[i % parts].record(key);
        }
        let fold = |order: &[usize]| {
            let mut acc = partitions[order[0]].clone();
            for &i in &order[1..] {
                acc.merge(partitions[i].clone());
            }
            acc.finish()
        };
        let forward: Vec<usize> = (0..parts).collect();
        let reference = fold(&forward);
        let order = shuffled_order(parts, shuffle_seed);
        prop_assert_eq!(&reference, &fold(&order), "shuffled order {:?} diverges", &order);
        if parts >= 3 {
            // Association: (0+1) + (2+..) built as two subtrees.
            let mut left = partitions[0].clone();
            left.merge(partitions[1].clone());
            let mut right = partitions[2].clone();
            for part in &partitions[3..] {
                right.merge(part.clone());
            }
            left.merge(right);
            prop_assert_eq!(&reference, &left.finish(), "association tree diverges");
        }
        check_top_k(&reference, &truth, draws as u64, capacity);
    }

    /// The sketch sink under `run_parallel` over real spilled traces: the
    /// parallel output equals a manual per-monitor fold combined in a
    /// shuffled completion order, and the Space-Saving reports bracket the
    /// dataset's exact per-CID/per-peer counts.
    #[test]
    fn sketch_sinks_are_order_invariant_under_run_parallel(
        seed in 0u64..1_000_000,
        monitors in 1usize..4,
        per_monitor in 1usize..120,
        jitter in 0u64..2_000,
        rotate in 5u64..60,
        chunk in 1usize..32,
        capacity in 2usize..16,
        shuffle_seed: u64,
    ) {
        let dataset = random_dataset(seed, monitors, per_monitor, jitter);
        let dir = temp_dir(&format!("sketch-drv-{seed}-{rotate}"));
        write_manifest_rotated(&dataset, &dir, rotate, chunk);
        let reader = ManifestReader::open(&dir).unwrap();
        let order = shuffled_order(monitors, shuffle_seed);

        // Space-Saving: parallel equals any combine order of the
        // per-monitor partials.
        let parallel = reader.run_parallel(SpaceSavingSink::new(capacity)).unwrap();
        let partials: Vec<SpaceSavingSink> = (0..monitors)
            .map(|m| {
                let mut sink = SpaceSavingSink::new(capacity);
                for entry in reader.stream_monitor_sorted(m) {
                    sink.consume(entry);
                }
                sink
            })
            .collect();
        let mut acc = partials[order[0]].clone();
        for &m in &order[1..] {
            acc.combine(partials[m].clone());
        }
        prop_assert_eq!(&parallel, &acc.finish(), "combine order {:?} diverges", &order);

        // ... and brackets the exact counts.
        let mut cid_truth = HashMap::new();
        let mut peer_truth = HashMap::new();
        let mut requests = 0u64;
        let mut total = 0u64;
        for entry in dataset.entries.iter().flatten() {
            if entry.is_request() {
                *cid_truth.entry(entry.cid.clone()).or_insert(0u64) += 1;
                requests += 1;
            }
            *peer_truth.entry(entry.peer).or_insert(0u64) += 1;
            total += 1;
        }
        check_top_k(&parallel.cids, &cid_truth, requests, capacity);
        check_top_k(&parallel.peers, &peer_truth, total, capacity);

        std::fs::remove_dir_all(&dir).ok();
    }
}
