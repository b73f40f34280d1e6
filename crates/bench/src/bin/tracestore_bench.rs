//! Storage benchmark: the tracestore columnar segment format vs. JSON.
//!
//! Generates a realistic two-monitor trace with the standard scenario
//! machinery, then measures encode/decode throughput and bytes-per-entry of
//! the spilled manifest dataset's segment files against the JSON debug
//! format, the streaming preprocessing path against the in-memory one, serial
//! vs per-monitor analysis, the per-codec read matrix, and checkpoint/recovery
//! cost. The acceptance bar of the tracestore subsystem is segment files
//! under 50 % of the equivalent JSON.

use ipfs_mon_bench::{
    print_header, run_experiment, scaled, spill_to_manifest, spill_to_manifest_with, ObsFlags,
};
use ipfs_mon_core::{
    flag_source, unify_and_flag, unify_and_flag_source, windowed_request_types, ActivityCountsSink,
    EntryStatsSink, PopularitySink, PreprocessConfig, RequestTypeSink,
};
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_tracestore::crc::crc32;
use ipfs_mon_tracestore::{
    migrate_manifest, recover_dataset, run_sink, ChunkScratch, ChunkSource, ChunkView,
    DatasetConfig, DatasetWriter, FileSource, LatePolicy, Manifest, ManifestReader,
    MonitoringDataset, TraceEntry, TraceReader, TraceSource, WindowSpec,
};
use ipfs_mon_workload::ScenarioConfig;
use std::hint::black_box;
use std::time::Instant;

fn mib_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0) / seconds.max(1e-9)
}

fn entries_per_s(entries: usize, seconds: f64) -> f64 {
    entries as f64 / seconds.max(1e-9)
}

fn main() {
    let reporter = ObsFlags::from_args().start();
    let mut config = ScenarioConfig::analysis_week(77, scaled(600));
    config.horizon = SimDuration::from_days(1);
    let run = run_experiment(&config);
    let dataset = &run.dataset;
    let total_entries = dataset.total_entries();

    print_header("tracestore — columnar segments vs JSON");
    println!(
        "  trace: {total_entries} entries, {} connections (instrumentation {})\n",
        dataset.connections.len(),
        if ipfs_mon_obs::is_enabled() {
            "on"
        } else {
            "off (obs-off build)"
        }
    );

    // Encode: the JSON debug format against the dataset as the pipeline
    // spills it — one segment chain per monitor behind a manifest.
    let start = Instant::now();
    let json = dataset.to_json().expect("JSON encode");
    let json_encode_s = start.elapsed().as_secs_f64();

    let dir_stream = std::env::temp_dir().join(format!("ts-bench-stream-{}", std::process::id()));
    let start = Instant::now();
    let summary = spill_to_manifest_with(dataset, &dir_stream, DatasetConfig::default());
    let segment_encode_s = start.elapsed().as_secs_f64();
    // The segment files' bytes, in manifest order (also what the checksum
    // row of the codec matrix runs over).
    let segment: Vec<u8> = summary
        .manifest
        .segments
        .iter()
        .flat_map(|meta| std::fs::read(dir_stream.join(&meta.file_name)).expect("read segment"))
        .collect();
    assert_eq!(segment.len() as u64, summary.bytes_written);

    // Decode.
    let start = Instant::now();
    let from_json = MonitoringDataset::from_json(&json).expect("JSON decode");
    let json_decode_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let reader = ManifestReader::open(&dir_stream).expect("open manifest");
    let mut stream = reader.stream_merged();
    let from_segments: Vec<TraceEntry> = stream.by_ref().collect();
    let segment_decode_s = start.elapsed().as_secs_f64();
    assert!(stream.take_error().is_none(), "manifest stream error");
    drop(stream);

    let reference: Vec<TraceEntry> = dataset.merged_entries().collect();
    assert!(
        from_segments == reference,
        "segment round-trip must be lossless"
    );
    drop(from_segments);
    assert_eq!(
        from_json.entries, dataset.entries,
        "JSON round-trip must be lossless"
    );

    println!(
        "  {:<10} {:>14} {:>12} {:>16} {:>16}",
        "format", "bytes", "bytes/entry", "encode", "decode"
    );
    for (name, bytes, enc_s, dec_s) in [
        ("json", json.len(), json_encode_s, json_decode_s),
        (
            "segments",
            segment.len(),
            segment_encode_s,
            segment_decode_s,
        ),
    ] {
        println!(
            "  {:<10} {:>14} {:>12.1} {:>9.1} MiB/s {:>9.1} MiB/s",
            name,
            bytes,
            bytes as f64 / total_entries.max(1) as f64,
            mib_per_s(bytes, enc_s),
            mib_per_s(bytes, dec_s),
        );
    }
    let ratio = segment.len() as f64 / json.len().max(1) as f64;
    println!(
        "\n  segment files = {:.1}% of JSON (target: < 50%)",
        ratio * 100.0
    );

    // Streaming preprocessing over the on-disk dataset vs the in-memory path.
    let start = Instant::now();
    let (trace, stats) = unify_and_flag(dataset, PreprocessConfig::default());
    let in_memory_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let (streamed, streamed_stats) =
        unify_and_flag_source(&reader, PreprocessConfig::default()).expect("stream manifest");
    let streaming_s = start.elapsed().as_secs_f64();
    assert_eq!(
        streamed.entries, trace.entries,
        "streaming flags must match"
    );
    assert_eq!(streamed_stats, stats);

    // Pure streaming consumption (no materialization), as analyses use it.
    let start = Instant::now();
    let mut stream = flag_source(&reader, PreprocessConfig::default());
    let primary = (&mut stream).filter(|e| e.flags.is_primary()).count();
    let tracked = stream.tracked_keys();
    let pure_streaming_s = start.elapsed().as_secs_f64();
    assert!(
        stream.take_source_error().is_none(),
        "manifest stream error"
    );
    std::fs::remove_dir_all(&dir_stream).ok();

    println!(
        "\n  preprocessing ({} entries, {} primary):",
        stats.total, stats.primary
    );
    println!(
        "  {:<22} {:>12.0} entries/s",
        "in-memory",
        entries_per_s(stats.total, in_memory_s)
    );
    println!(
        "  {:<22} {:>12.0} entries/s",
        "manifest -> unified",
        entries_per_s(stats.total, streaming_s)
    );
    println!(
        "  {:<22} {:>12.0} entries/s  ({} primary, {} window keys resident)",
        "manifest streaming",
        entries_per_s(stats.total, pure_streaming_s),
        primary,
        tracked
    );

    // A 4-monitor manifest for the parallel analysis engine: split each of
    // the two monitors round-robin into two halves (preserving per-monitor
    // arrival order) to model the >=4-monitor deployments where per-monitor
    // workers pay off.
    let fan_out = 4usize;
    let labels: Vec<String> = (0..fan_out).map(|m| format!("m{m}")).collect();
    let dataset_config = DatasetConfig {
        rotate_after_entries: (total_entries as u64 / (fan_out as u64 * 2)).max(1),
        ..DatasetConfig::default()
    };
    let dir_fan_out = std::env::temp_dir().join(format!("ts-bench-fanout-{}", std::process::id()));
    let mut writer = DatasetWriter::create(&dir_fan_out, labels, dataset_config).expect("create");
    for (monitor, entries) in dataset.entries.iter().enumerate() {
        for (i, entry) in entries.iter().enumerate() {
            let mut entry = entry.clone();
            entry.monitor = monitor * 2 + (i % 2);
            writer.append(&entry).expect("append");
        }
    }
    let summary = writer.finish().expect("finish");
    assert_eq!(summary.total_entries, total_entries as u64);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Parallel analysis engine: the ported sinks (request-type series,
    // popularity, activity counts, descriptive stats) in one composed pass
    // over the 4-monitor manifest — merged serial stream vs one worker per
    // monitor chain (`ManifestReader::run_parallel`, no k-way merge at all).
    // Outputs are asserted identical; the speedup is hardware-dependent
    // (needs >= 2 cores to win) and only reported.
    let analysis_sink = || {
        (
            (
                RequestTypeSink::new(SimDuration::from_hours(1)),
                PopularitySink::new(),
            ),
            (ActivityCountsSink::new(), EntryStatsSink::new()),
        )
    };
    let reader = ManifestReader::open(&dir_fan_out).expect("open manifest");
    assert_eq!(reader.total_entries(), total_entries as u64);
    let mut serial_best = f64::MAX;
    let mut parallel_best = f64::MAX;
    let mut outputs = None;
    for _ in 0..3 {
        let start = Instant::now();
        let serial = run_sink(&reader, analysis_sink()).expect("serial analysis");
        serial_best = serial_best.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let parallel = reader
            .run_parallel(analysis_sink())
            .expect("parallel analysis");
        parallel_best = parallel_best.min(start.elapsed().as_secs_f64());
        assert_eq!(
            serial, parallel,
            "parallel analysis must equal the serial merged pass"
        );
        outputs = Some(parallel);
    }
    let ((series, scores), (counts, stats)) = outputs.expect("three repetitions ran");
    assert_eq!(series.len(), fan_out);
    assert_eq!(stats.len(), fan_out);
    let analysis_speedup = serial_best / parallel_best.max(1e-9);
    println!(
        "\n  parallel analysis ({} entries, {} monitors, 4 sinks: series/popularity/activity/stats):",
        total_entries, fan_out
    );
    println!(
        "  {:<22} {:>12.0} entries/s",
        "serial merged pass",
        entries_per_s(total_entries, serial_best)
    );
    println!(
        "  {:<22} {:>12.0} entries/s  ({} CIDs, {} peers)",
        "per-monitor workers",
        entries_per_s(total_entries, parallel_best),
        scores.cid_count(),
        counts.per_peer.len(),
    );
    println!(
        "  parallel analysis speedup: {analysis_speedup:.2}x ({fan_out} monitors, {cores} cores available)"
    );
    println!(
        "BENCH_tracestore.json {{\"mode\":\"parallel-analysis\",\"entries\":{total_entries},\"monitors\":{fan_out},\"serial_s\":{serial_best:.4},\"parallel_s\":{parallel_best:.4},\"speedup\":{analysis_speedup:.2},\"cores\":{cores}}}"
    );
    // Instrumentation-overhead datum: compare this line between a normal
    // build and a `--features obs-off` build (acceptance bar: <= 5%).
    println!(
        "BENCH_tracestore.json {{\"mode\":\"obs-overhead\",\"obs\":\"{}\",\"entries\":{total_entries},\"serial_entries_per_sec\":{:.0},\"parallel_entries_per_sec\":{:.0}}}",
        if ipfs_mon_obs::is_enabled() {
            "instrumented"
        } else {
            "off"
        },
        entries_per_s(total_entries, serial_best),
        entries_per_s(total_entries, parallel_best),
    );
    drop(reader);
    std::fs::remove_dir_all(&dir_fan_out).ok();

    // Codec matrix: the same dataset as collection writes it (raw) and as
    // compaction leaves it (col, `migrate_manifest` over the raw spill), the
    // merged read verified bit-identical to the in-memory merged reference.
    //
    // "decode MB/s" is a *logical* throughput: the numerator is always the
    // raw-codec on-disk size so that rows are directly comparable — a codec
    // wins the column by decoding the same logical data in less wall time,
    // not by shipping fewer bytes. (Raw is measured first, so its size is
    // available for every later row.)
    let rotate = (total_entries as u64 / 4).max(1);
    println!("\n  codec matrix ({total_entries} entries):");
    println!(
        "  {:<6} {:>12} {:>13} {:>14}",
        "codec", "bytes/entry", "decode MB/s", "entries/s"
    );
    let dir = std::env::temp_dir().join(format!("ts-bench-codec-{}", std::process::id()));
    spill_to_manifest(dataset, &dir, rotate);
    let mut on_disk = [0u64; 2];
    // Best-of-5 pure chunk-decode wall time per codec: every chunk of every
    // segment read through `FileSource`, parsed and column-validated with
    // recycled scratch, no merge, no prefetch thread, and no per-entry
    // materialization (which costs the same for every codec) in the way.
    let mut pure_decode = [f64::INFINITY; 2];
    for (c, codec) in ["raw", "col"].into_iter().enumerate() {
        if codec == "col" {
            migrate_manifest(&dir).expect("compact the raw spill");
        }
        on_disk[c] = std::fs::read_dir(&dir)
            .expect("read manifest dir")
            .map(|e| e.expect("dir entry").metadata().expect("metadata").len())
            .sum();
        let reader = ManifestReader::open(&dir).expect("open manifest");
        let start = Instant::now();
        let mut stream = reader.merged_entries();
        let merged: Vec<TraceEntry> = (&mut stream).collect();
        let elapsed = start.elapsed().as_secs_f64();
        assert!(stream.take_error().is_none(), "stream error in matrix");
        assert_eq!(merged, reference, "matrix stream must match in-memory");
        println!(
            "  {:<6} {:>12.1} {:>13.1} {:>14.0}",
            codec,
            on_disk[c] as f64 / total_entries.max(1) as f64,
            mib_per_s(on_disk[0] as usize, elapsed),
            entries_per_s(total_entries, elapsed),
        );
        let manifest = Manifest::load(&dir).expect("load manifest");
        let readers: Vec<_> = manifest
            .segments
            .iter()
            .map(|meta| {
                let source = FileSource::open(dir.join(&meta.file_name)).expect("open segment");
                TraceReader::new(source).expect("segment reader")
            })
            .collect();
        for _ in 0..5 {
            let mut scratch = ChunkScratch::default();
            let start = Instant::now();
            let mut decoded = 0u64;
            for reader in &readers {
                for info in reader.chunks() {
                    let frame = reader
                        .source()
                        .read_at(info.offset, info.len as usize)
                        .expect("read chunk frame");
                    let view = ChunkView::parse_with(frame, scratch).expect("decode chunk");
                    decoded += info.entries;
                    scratch = view.into_scratch();
                }
            }
            assert_eq!(decoded, total_entries as u64, "pure decode covers dataset");
            pure_decode[c] = pure_decode[c].min(start.elapsed().as_secs_f64());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    let [raw_bytes, col_bytes] = on_disk;
    let [raw_decode_s, col_decode_s] = pure_decode;
    println!(
        "  col manifest = {:.1}% of raw on disk ({col_bytes} vs {raw_bytes} bytes)",
        col_bytes as f64 / raw_bytes.max(1) as f64 * 100.0,
    );
    println!(
        "  pure chunk decode (file, best of 5): raw {:>7.1} MB/s  col {:>7.1} MB/s",
        mib_per_s(raw_bytes as usize, raw_decode_s),
        mib_per_s(raw_bytes as usize, col_decode_s),
    );
    // The checksum alone, over the first section's segment bytes (repeated
    // to at least 16 MiB per timed run): every stored byte passes through it
    // on every read, so this is the ceiling of the row above.
    let crc_passes = (16 << 20) / segment.len().max(1) + 1;
    let mut crc_s = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..crc_passes {
            black_box(crc32(black_box(&segment)));
        }
        crc_s = crc_s.min(start.elapsed().as_secs_f64());
    }
    let crc_mb_s = mib_per_s(segment.len() * crc_passes, crc_s);
    println!("  crc MB/s (segment bytes, best of 5): {crc_mb_s:>7.1}");
    assert!(
        col_bytes < raw_bytes,
        "col manifest must be strictly smaller than raw"
    );
    println!(
        "BENCH_tracestore.json {{\"mode\":\"codec-matrix\",\"entries\":{total_entries},\"raw_bytes\":{raw_bytes},\"col_bytes\":{col_bytes},\"col_decode_s\":{col_decode_s:.4},\"crc_mb_s\":{crc_mb_s:.1}}}"
    );

    // Durability and recovery: what periodic checkpoints cost on the ingest
    // path, and how fast `recover_dataset` turns a crashed directory (open
    // segments with no footers, no manifest) back into a readable dataset.
    let rotate = (total_entries as u64 / 6).max(1);
    let ingest = |dir: &std::path::Path, checkpoint_after_entries: u64| -> f64 {
        let config = DatasetConfig {
            rotate_after_entries: rotate,
            checkpoint_after_entries,
            ..DatasetConfig::default()
        };
        let start = Instant::now();
        let mut writer = DatasetWriter::create(dir, dataset.monitor_labels.clone(), config)
            .expect("create dataset");
        for entries in &dataset.entries {
            for entry in entries {
                writer.append(entry).expect("append");
            }
        }
        writer.finish().expect("finish");
        start.elapsed().as_secs_f64()
    };
    let dir_plain = std::env::temp_dir().join(format!("ts-bench-plain-{}", std::process::id()));
    let plain_s = ingest(&dir_plain, u64::MAX);
    std::fs::remove_dir_all(&dir_plain).ok();
    let checkpoint_every = (total_entries as u64 / 8).max(1);
    let dir_ckpt = std::env::temp_dir().join(format!("ts-bench-ckpt-{}", std::process::id()));
    let ckpt_s = ingest(&dir_ckpt, checkpoint_every);
    std::fs::remove_dir_all(&dir_ckpt).ok();
    let checkpoint_overhead_pct = (ckpt_s - plain_s) / plain_s.max(1e-9) * 100.0;

    // Crash the checkpointed ingest (drop without finish: spilled chunks are
    // on disk, footers and manifest are not) and time the recovery.
    let dir_crash = std::env::temp_dir().join(format!("ts-bench-crash-{}", std::process::id()));
    {
        let config = DatasetConfig {
            rotate_after_entries: rotate,
            checkpoint_after_entries: checkpoint_every,
            ..DatasetConfig::default()
        };
        let mut writer = DatasetWriter::create(&dir_crash, dataset.monitor_labels.clone(), config)
            .expect("create dataset");
        for entries in &dataset.entries {
            for entry in entries {
                writer.append(entry).expect("append");
            }
        }
        // No finish(): simulated crash.
    }
    let start = Instant::now();
    let report = recover_dataset(&dir_crash).expect("recover crashed dataset");
    let recover_s = start.elapsed().as_secs_f64();
    assert_eq!(
        report.entries_lost_after_checkpoint, 0,
        "checkpointed entries must survive the crash"
    );
    let recovered_reader = ManifestReader::open(&dir_crash).expect("open recovered dataset");
    assert_eq!(recovered_reader.total_entries(), report.entries_recovered);
    drop(recovered_reader);
    std::fs::remove_dir_all(&dir_crash).ok();

    println!("\n  durability ({total_entries} entries, checkpoint every {checkpoint_every}):");
    println!(
        "  {:<22} {:>12.0} entries/s",
        "ingest, no checkpoints",
        entries_per_s(total_entries, plain_s)
    );
    println!(
        "  {:<22} {:>12.0} entries/s  ({checkpoint_overhead_pct:+.1}% vs no checkpoints)",
        "ingest, checkpointed",
        entries_per_s(total_entries, ckpt_s)
    );
    println!(
        "  crash recovery: {} of {} entries back in {:.1} ms ({:.0} entries/s, {} truncated, {} quarantined)",
        report.entries_recovered,
        total_entries,
        recover_s * 1e3,
        entries_per_s(report.entries_recovered as usize, recover_s),
        report.segments_truncated,
        report.quarantined.len(),
    );
    println!(
        "BENCH_tracestore.json {{\"mode\":\"recovery\",\"entries\":{total_entries},\"checkpoint_overhead_pct\":{checkpoint_overhead_pct:.1},\"recovered_entries\":{},\"recover_s\":{recover_s:.4},\"recover_entries_per_sec\":{:.0}}}",
        report.entries_recovered,
        entries_per_s(report.entries_recovered as usize, recover_s),
    );

    // Windowed online analysis: the same trace through the event-time
    // windowing layer (tumbling 1 h windows over per-window request-type
    // series), serial merged stream vs one worker per monitor chain.
    // Sealed outputs are asserted identical; `max_open_windows` is the
    // memory bound of the online path (open accumulators held at once).
    let dir_windowed =
        std::env::temp_dir().join(format!("ts-bench-windowed-{}", std::process::id()));
    spill_to_manifest_with(
        dataset,
        &dir_windowed,
        DatasetConfig {
            rotate_after_entries: rotate,
            ..DatasetConfig::default()
        },
    );
    let reader = ManifestReader::open(&dir_windowed).expect("open windowed manifest");
    let monitors = dataset.monitor_labels.len();
    let windowed_sink = || {
        windowed_request_types(
            monitors,
            WindowSpec::tumbling(SimDuration::from_hours(1)),
            SimDuration::ZERO,
            LatePolicy::Strict,
            SimDuration::from_mins(10),
        )
    };
    let start = Instant::now();
    let serial_windows = run_sink(&reader, windowed_sink()).expect("serial windowed analysis");
    let windowed_serial_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let parallel_windows = reader
        .run_parallel(windowed_sink())
        .expect("parallel windowed analysis");
    let windowed_parallel_s = start.elapsed().as_secs_f64();
    assert_eq!(
        serial_windows.results, parallel_windows.results,
        "windowed analysis must seal identical windows under both drivers"
    );
    assert_eq!(serial_windows.late_dropped, 0, "merged stream is in order");
    let window_count = serial_windows.results.len();
    let windows_per_s = window_count as f64 / windowed_serial_s.max(1e-9);
    drop(reader);
    std::fs::remove_dir_all(&dir_windowed).ok();
    println!("\n  windowed analysis ({total_entries} entries, {window_count} x 1h windows):");
    println!(
        "  {:<22} {:>12.0} entries/s  ({} windows open at peak)",
        "serial merged pass",
        entries_per_s(total_entries, windowed_serial_s),
        serial_windows.max_open_windows
    );
    println!(
        "  {:<22} {:>12.0} entries/s",
        "per-monitor workers",
        entries_per_s(total_entries, windowed_parallel_s)
    );
    println!(
        "BENCH_tracestore.json {{\"mode\":\"windowed\",\"entries\":{total_entries},\"windows\":{window_count},\"windows_per_sec\":{windows_per_s:.1},\"max_open_windows\":{},\"serial_s\":{windowed_serial_s:.4},\"parallel_s\":{windowed_parallel_s:.4}}}",
        serial_windows.max_open_windows
    );

    // Emits the final `"done":true` heartbeat (a no-op without --obs).
    if let Some(reporter) = reporter {
        reporter.stop();
    }

    if ratio < 0.5 {
        println!(
            "\n  PASS: segment files are {:.1}x smaller than JSON",
            1.0 / ratio
        );
    } else {
        println!("\n  FAIL: segment files not under 50% of JSON");
        std::process::exit(1);
    }
}
