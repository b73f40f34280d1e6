//! The column-reading paths against the entry-reading ones.
//!
//! Four analyses read columns when the trace is an on-disk dataset: a
//! `run_parallel` of chunk-capable sinks folds chunks by dictionary index
//! (and feeds a sink that needs order nothing but the sorted timestamps),
//! `estimate_network_size_source` reads peer dictionaries,
//! `run_attacks_source` pushes its targets into the chunk decode, and
//! `flag_source` flags each row where it lies in its chunk, keyed through
//! hashes made once per dictionary entry, before it builds the entry. Each
//! must give exactly what the entry path gives — on clean datasets
//! ([`differential_case`]), on a chunk whose dictionaries hold entries no
//! row references, and on damaged datasets (the same first error, and after
//! recovery the same entries).

mod common;

use common::{differential_case, segment_reader, temp_dir, write_manifest, CountSink};
use ipfs_monitoring::bitswap::RequestType;
use ipfs_monitoring::core::{
    estimate_network_size, estimate_network_size_source, flag_entries, flag_source,
    run_attacks_source, unify_and_flag, ActivityCountsSink, AttackScan, EntryStatsSink,
    PopularitySink, PreprocessConfig, RequestTypeSink, SnapshotBuilder,
};
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::tracestore::codec::CHUNK_CODEC;
use ipfs_monitoring::tracestore::crc::crc32;
use ipfs_monitoring::tracestore::{
    recover_dataset, run_sink, ChunkView, DatasetConfig, EntryFlags, ManifestReader,
    MonitoringDataset, RowTargets, SegmentConfig, SegmentError, SourceEntries, TraceEntry,
    TraceSource,
};
use ipfs_monitoring::types::{varint, Cid, Country, Multiaddr, Multicodec, PeerId, Transport};
use proptest::prelude::*;

const START: SimTime = SimTime::ZERO;
const INTERVAL: SimDuration = SimDuration::from_mins(2);

fn window_end() -> SimTime {
    SimTime::from_millis(1 << 20)
}

/// The composition the repo benchmark runs: three sinks that fold whole
/// chunks and one (`EntryStatsSink`) that also needs every timestamp in
/// sorted order — no member needs an entry.
type FourSinks = (
    (RequestTypeSink, PopularitySink),
    (ActivityCountsSink, EntryStatsSink),
);

fn four_sinks() -> FourSinks {
    (
        (
            RequestTypeSink::new(SimDuration::from_secs(30)),
            PopularitySink::new(),
        ),
        (ActivityCountsSink::new(), EntryStatsSink::new()),
    )
}

/// The network-size builder over the test window.
fn snapshot_builder(monitors: usize) -> SnapshotBuilder {
    SnapshotBuilder::new(monitors, START, window_end(), INTERVAL)
}

proptest! {
    /// On any dataset and layout: the filtered attack scan equals the scan
    /// of the whole flagged trace, whichever source it runs over; network
    /// size from peer dictionaries equals network size from entries; and
    /// the chunk-level sink run equals the serial one, with exact progress,
    /// whether its rows are delivered as nothing, timestamps or entries.
    #[test]
    fn column_paths_match_entry_paths(seed in 0u64..1_000_000) {
        let case = differential_case(seed);
        let dir = temp_dir(&format!("columns-{seed}"));
        case.spill(&dir);
        let reader = ManifestReader::open(&dir).unwrap();
        for monitor in 0..reader.monitor_count() {
            prop_assert!(reader.segment_count(monitor) >= 2, "layout must rotate");
        }
        let config = PreprocessConfig::default();

        // Attacks: unfiltered reference, then both sources' filtered scans.
        let mut scan = AttackScan::new(&case.targets.idw_cids, &case.targets.tnw_peers);
        let mut flagged = flag_source(&reader, config);
        (&mut flagged).for_each(|entry| scan.observe(&entry));
        prop_assert!(flagged.take_source_error().is_none());
        let (idw, tnw) = scan.finish();
        prop_assert!(!idw[&case.targets.idw_cids[0]].is_empty(), "target CID is requested");
        prop_assert!(idw[&case.targets.idw_cids[1]].is_empty(), "absent CID");
        let on_disk = run_attacks_source(&reader, config, &case.targets, None).unwrap();
        let in_memory = run_attacks_source(&case.dataset, config, &case.targets, None).unwrap();
        prop_assert_eq!(&on_disk.idw, &idw);
        prop_assert_eq!(&on_disk.tnw, &tnw);
        prop_assert_eq!(&on_disk, &in_memory);

        // Network size.
        let from_columns =
            estimate_network_size_source(&reader, START, window_end(), INTERVAL).unwrap();
        let reference = estimate_network_size(&case.dataset, START, window_end(), INTERVAL);
        prop_assert_eq!(format!("{from_columns:?}"), format!("{reference:?}"));

        // The benchmark's composition: fed chunks and sorted timestamps.
        // `EntryStatsSink` counts each monitor's entries, so every run below
        // that includes it is checked to have consumed exactly the rows of
        // each monitor.
        let expected = run_sink(&reader, four_sinks()).unwrap();
        let per_monitor: Vec<u64> =
            case.dataset.entries.iter().map(|entries| entries.len() as u64).collect();
        let consumed: Vec<u64> = (expected.1).1.iter().map(|monitor| monitor.entries).collect();
        prop_assert_eq!(&consumed, &per_monitor);
        prop_assert_eq!(&reader.run_parallel(four_sinks()).unwrap(), &expected);
        // The timestamp consumer alone.
        let stats = reader.run_parallel(EntryStatsSink::new()).unwrap();
        prop_assert_eq!(&stats, &(expected.1).1);
        // With a member that needs entries, every member is fed from the
        // entries and none changes its answer.
        let (four, counted) = reader.run_parallel((four_sinks(), CountSink::default())).unwrap();
        prop_assert_eq!(&four, &expected);
        prop_assert_eq!(counted, per_monitor.iter().sum::<u64>());
        // And with no member that needs rows at all: not one is built.
        let pair = (four_sinks().0, snapshot_builder(reader.monitor_count()));
        let by_chunk = reader.run_parallel(pair.clone()).unwrap();
        let by_entry = run_sink(&reader, pair).unwrap();
        prop_assert_eq!(&by_chunk.0, &by_entry.0);
        prop_assert_eq!(format!("{:?}", by_chunk.1), format!("{:?}", by_entry.1));

        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    /// Rows flagged where they lie give, entry for entry, what entries
    /// flagged after they are built give: the flagged stream of the on-disk
    /// dataset — several segments per monitor — against the in-memory
    /// dataset's, with the same statistics and the same number of
    /// keys tracked at the end; and the filtered stream, flagged, against
    /// the whole flagged stream filtered afterwards.
    #[test]
    fn flagged_rows_match_flagged_entries(seed in 0u64..1_000_000) {
        let case = differential_case(seed);
        let config = PreprocessConfig::default();
        let mut in_memory = flag_source(&case.dataset, config);
        let expected: Vec<TraceEntry> = (&mut in_memory).collect();
        let (unified, stats) = unify_and_flag(&case.dataset, config);
        prop_assert_eq!(&unified.entries, &expected);
        prop_assert_eq!(in_memory.stats(), stats);
        let targets = RowTargets {
            cids: case.targets.idw_cids.iter().cloned().collect(),
            peers: case.targets.tnw_peers.iter().copied().collect(),
        };
        let expected_matching: Vec<&TraceEntry> =
            expected.iter().filter(|entry| targets.matches(entry)).collect();
        prop_assert!(!expected_matching.is_empty());

        let dir = temp_dir(&format!("flagged-{seed}"));
        write_manifest(&case.dataset, &dir, case.layout);
        let reader = ManifestReader::open(&dir).unwrap();
        for monitor in 0..reader.monitor_count() {
            prop_assert!(reader.segment_count(monitor) >= 2, "layout must rotate");
        }

        let mut flagged = flag_source(&reader, config);
        let mut rows = 0;
        for (row, entry) in (&mut flagged).enumerate() {
            prop_assert_eq!(&entry, &expected[row], "row {}", row);
            rows += 1;
        }
        prop_assert!(flagged.take_source_error().is_none());
        prop_assert_eq!(rows, expected.len());
        prop_assert_eq!(flagged.stats(), stats);
        prop_assert_eq!(flagged.tracked_keys(), in_memory.tracked_keys());

        let mut matching = flag_entries(
            reader.merged_entries_matching(&targets),
            reader.monitor_count(),
            config,
        );
        let on_disk: Vec<TraceEntry> = (&mut matching).collect();
        prop_assert!(matching.take_source_error().is_none());
        prop_assert_eq!(on_disk.iter().collect::<Vec<_>>(), expected_matching.clone());
        let default_path: Vec<TraceEntry> = flag_entries(
            case.dataset.merged_entries_matching(&targets),
            case.dataset.monitor_count(),
            config,
        )
        .collect();
        prop_assert_eq!(&default_path, &on_disk);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Re-points the last row's peer and CID index of a segment's first chunk at
/// dictionary entry 0 and repairs the chunk CRC: not one other byte moves,
/// but the last entry of both dictionaries — which that row had introduced —
/// is now referenced by no row. The walk follows the chunk body grammar of
/// `tracestore::col`: the index columns are bit-packed at the width their
/// dictionary's length gives, so clearing the row's bits keeps every width.
fn orphan_last_dictionary_entries(bytes: &mut [u8]) {
    fn read(bytes: &[u8], pos: &mut usize) -> usize {
        let (value, used) = varint::decode(&bytes[*pos..]).unwrap();
        *pos += used;
        value as usize
    }
    let width_of = |dict_len: usize| (usize::BITS - (dict_len - 1).leading_zeros()) as usize;
    let frame = segment_reader(bytes).unwrap().chunks()[0].offset as usize;
    let mut pos = frame;
    let payload_len = read(bytes, &mut pos);
    let payload = pos..pos + payload_len;
    assert_eq!(bytes[pos], CHUNK_CODEC);
    assert_eq!(bytes[pos + 1], 0, "mode 0");
    pos += 2;
    let _monitor = read(bytes, &mut pos);
    let count = read(bytes, &mut pos);
    read(bytes, &mut pos); // timestamp base
    for block in (0..count - 1).step_by(64) {
        read(bytes, &mut pos); // miniblock min
        let width = bytes[pos] as usize;
        pos += 1 + ((count - 1 - block).min(64) * width).div_ceil(8);
    }
    let peers = read(bytes, &mut pos);
    pos += peers * 32;
    let peer_column = (pos, peers);
    pos += (count * width_of(peers)).div_ceil(8);
    let addresses = read(bytes, &mut pos);
    pos += addresses * 8;
    assert_eq!(bytes[pos], 0, "the address column carries its own indexes");
    pos += 1 + (count * width_of(addresses)).div_ceil(8);
    let cids = read(bytes, &mut pos);
    for _ in 0..cids {
        let len = read(bytes, &mut pos); // CIDs are length-prefixed
        pos += len;
    }
    for (start, entries) in [peer_column, (pos, cids)] {
        let width = width_of(entries);
        let bits = (count - 1) * width..count * width;
        let bit = |at: usize| (bytes[start + at / 8] >> (at % 8)) & 1;
        let last: usize = bits
            .clone()
            .map(|at| (bit(at) as usize) << (at - bits.start))
            .sum();
        assert_eq!(
            last,
            entries - 1,
            "the last row introduces a dictionary entry"
        );
        assert!(last >= 1, "entry 0 is another row's");
        for at in bits {
            bytes[start + at / 8] &= !(1 << (at % 8));
        }
    }
    let crc = crc32(&bytes[payload.clone()]);
    bytes[payload.end..payload.end + 4].copy_from_slice(&crc.to_le_bytes());
}

/// A crafted (or merely unusual) chunk may carry dictionary entries no row
/// references. Aggregates that read dictionaries must count what the rows
/// mention, not what the dictionaries hold.
#[test]
fn unreferenced_dictionary_entries_change_nothing() {
    // One chunk per monitor; the last row of monitor 0's brings a peer and a
    // CID (of a codec) of its own, which the patch then orphans.
    let mut dataset = common::random_dataset(77, 2, 60, 300);
    let last = dataset.entries[0].last_mut().unwrap();
    last.peer = PeerId::derived(31, 0);
    last.cid = Cid::new_v1(Multicodec::DagCbor, b"orphan");
    let dir = temp_dir("orphans");
    write_manifest(&dataset, &dir, DatasetConfig::default());
    let segment = dir.join("seg-000-00000.seg");
    let mut bytes = std::fs::read(&segment).unwrap();
    orphan_last_dictionary_entries(&mut bytes);
    std::fs::write(&segment, &bytes).unwrap();

    // What the patched dataset says, row by row.
    let orphan = dataset.entries[0].last().unwrap().clone();
    let first = dataset.entries[0][0].clone();
    let last = dataset.entries[0].last_mut().unwrap();
    last.peer = first.peer;
    last.cid = first.cid;
    let reader = ManifestReader::open(&dir).unwrap();
    let streamed: Vec<TraceEntry> = reader.merged_entries().collect();
    assert_eq!(streamed, dataset.merged_entries().collect::<Vec<_>>());

    let by_chunk = reader.run_parallel(four_sinks()).unwrap();
    assert_eq!(by_chunk, run_sink(&dataset, four_sinks()).unwrap());
    let ((_, popularity), (activity, _)) = by_chunk;
    assert!(!popularity.rrp.contains_key(&orphan.cid));
    assert!(activity
        .per_peer
        .iter()
        .all(|&(peer, _)| peer != orphan.peer));
    assert!(activity
        .multicodec
        .iter()
        .all(|&(codec, _, _)| codec != orphan.cid.codec()));

    let netsize = estimate_network_size_source(&reader, START, window_end(), INTERVAL).unwrap();
    let reference = estimate_network_size(&dataset, START, window_end(), INTERVAL);
    assert_eq!(format!("{netsize:?}"), format!("{reference:?}"));
    let active: std::collections::HashSet<_> =
        dataset.entries[0].iter().map(|entry| entry.peer).collect();
    assert_eq!(netsize.bitswap_active_per_monitor[0], active.len());

    // A filtered stream asked for the orphans finds the dictionary hits and
    // no row behind them.
    let targets = RowTargets {
        cids: [orphan.cid].into(),
        peers: [orphan.peer].into(),
    };
    let mut matching = reader.merged_entries_matching(&targets);
    assert_eq!((&mut matching).count(), 0);
    assert!(matching.take_error().is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// One key — the same peer asking for the same CID — met at different
/// dictionary indexes in different chunks, segments and monitors, repeated
/// at exactly the edges of both windows with a chunk boundary in between;
/// and a chunk whose dictionaries hold entries no row references. The part
/// hashes are made per chunk, so none of that may show: the flags are the
/// in-memory engine's, the edges fall where the paper puts them, and the
/// orphans — hashed with their chunk — are never tracked as keys.
#[test]
fn one_key_across_chunks_segments_and_monitors_hits_the_window_edges() {
    let hot_peer = PeerId::derived(91, 0);
    let hot_cid = Cid::new_v1(Multicodec::DagCbor, b"hot");
    let row = |ms: u64, monitor: usize, peer: PeerId, cid: Cid| TraceEntry {
        timestamp: SimTime::from_millis(ms),
        peer,
        address: Multiaddr::new(7, 4001, Transport::Tcp, Country::De),
        request_type: RequestType::WantHave,
        cid,
        monitor,
        flags: EntryFlags::default(),
    };
    // The hot key per monitor as `(ms, flags expected)`: a copy at the other
    // monitor 5 000 ms later is a duplicate and 5 001 ms later is not, a
    // repeat at the same monitor 31 000 ms later is a re-broadcast and
    // 31 001 ms later is not.
    let dup = EntryFlags {
        inter_monitor_duplicate: true,
        rebroadcast: false,
    };
    let rebroadcast = EntryFlags {
        inter_monitor_duplicate: false,
        rebroadcast: true,
    };
    let hot: [&[(u64, EntryFlags)]; 2] = [
        &[
            (100_000, EntryFlags::default()),
            (200_000, EntryFlags::default()),
            (300_000, EntryFlags::default()),
            (331_000, rebroadcast),
            (400_000, EntryFlags::default()),
            (431_001, EntryFlags::default()),
        ],
        &[(105_000, dup), (205_001, EntryFlags::default())],
    ];
    // Between two hot rows of a monitor, a run of rows of keys of their own
    // whose length varies, so the hot key lands at another position of the
    // next chunk and, in it, at another index of both dictionaries.
    let mut dataset = MonitoringDataset::new(vec!["us".into(), "de".into()]);
    let mut fresh = 0u64;
    for (monitor, hot_rows) in hot.iter().enumerate() {
        let mut clock = 90_000 + monitor as u64;
        for (i, &(ms, _)) in hot_rows.iter().enumerate() {
            for _ in 0..(2 + 3 * i + monitor) {
                fresh += 1;
                clock += 7;
                assert!(clock < ms);
                let peer = PeerId::derived(92, fresh);
                let cid = Cid::new_v1(Multicodec::Raw, &fresh.to_be_bytes());
                dataset.entries[monitor].push(row(clock, monitor, peer, cid));
            }
            dataset.entries[monitor].push(row(ms, monitor, hot_peer, hot_cid.clone()));
            clock = ms;
        }
    }
    // The last row of monitor 0's first chunk brings a peer and a CID of its
    // own: the two dictionary entries the patch below orphans.
    let chunk_capacity = 5;
    assert_ne!(dataset.entries[0][chunk_capacity - 1].peer, hot_peer);
    let dir = temp_dir("hot-key");
    let layout = DatasetConfig {
        rotate_after_entries: 2 * chunk_capacity as u64,
        segment: SegmentConfig { chunk_capacity },
        ..DatasetConfig::default()
    };
    write_manifest(&dataset, &dir, layout);
    let first_segment = dir.join("seg-000-00000.seg");
    let mut bytes = std::fs::read(&first_segment).unwrap();
    orphan_last_dictionary_entries(&mut bytes);
    std::fs::write(&first_segment, &bytes).unwrap();
    // What the patched dataset says: that row now repeats the chunk's first.
    let orphaned = dataset.entries[0][chunk_capacity - 1].clone();
    let first = dataset.entries[0][0].clone();
    let patched = &mut dataset.entries[0][chunk_capacity - 1];
    patched.peer = first.peer;
    patched.cid = first.cid;

    // Where the hot key sits, chunk by chunk: `(monitor, segment, peer
    // index, CID index)`.
    let mut seats = Vec::new();
    for file in std::fs::read_dir(&dir).unwrap() {
        let path = file.unwrap().path();
        if path.extension().is_none_or(|extension| extension != "seg") {
            continue;
        }
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let bytes = std::fs::read(&path).unwrap();
        let segment = segment_reader(&bytes).unwrap();
        for info in segment.chunks() {
            let frame = &bytes[info.offset as usize..(info.offset + info.len) as usize];
            let chunk = ChunkView::parse(frame.into()).unwrap();
            let peer = (0..chunk.peer_dict_len()).find(|&i| chunk.peer(i) == hot_peer);
            let cid = chunk.cid_dict().iter().position(|cid| *cid == hot_cid);
            if let (Some(peer), Some(cid)) = (peer, cid) {
                seats.push((name[4..7].to_string(), name[8..13].to_string(), peer, cid));
            }
        }
    }
    let distinct = |of: fn(&(String, String, usize, usize)) -> String| {
        let mut values: Vec<String> = seats.iter().map(of).collect();
        values.sort();
        values.dedup();
        values.len()
    };
    assert_eq!(
        distinct(|seat| seat.0.clone()),
        2,
        "both monitors: {seats:?}"
    );
    assert!(distinct(|seat| seat.1.clone()) >= 3, "segments: {seats:?}");
    assert!(
        distinct(|seat| seat.2.to_string()) >= 3,
        "peer indexes: {seats:?}"
    );
    assert!(
        distinct(|seat| seat.3.to_string()) >= 3,
        "CID indexes: {seats:?}"
    );
    assert_eq!(
        seats.len(),
        8,
        "each hot row in a chunk of its own: {seats:?}"
    );

    let config = PreprocessConfig::default();
    let reader = ManifestReader::open(&dir).unwrap();
    let mut flagged = flag_source(&reader, config);
    let streamed: Vec<TraceEntry> = (&mut flagged).collect();
    assert!(flagged.take_source_error().is_none());
    let mut in_memory = flag_source(&dataset, config);
    let expected: Vec<TraceEntry> = (&mut in_memory).collect();
    assert_eq!(streamed, expected);
    assert_eq!(flagged.stats(), in_memory.stats());
    // No eviction in a trace this short: the keys tracked are the keys
    // seen, and an orphan, hashed or not, is not one of them.
    let mut keys: Vec<_> = expected.iter().map(|e| (e.peer, e.cid.clone())).collect();
    keys.sort();
    keys.dedup();
    assert!(!keys.contains(&(orphaned.peer, orphaned.cid)));
    assert_eq!(flagged.tracked_keys(), keys.len());
    assert_eq!(in_memory.tracked_keys(), keys.len());

    for (monitor, hot_rows) in hot.iter().enumerate() {
        let found: Vec<(u64, EntryFlags)> = streamed
            .iter()
            .filter(|e| e.monitor == monitor && e.peer == hot_peer && e.cid == hot_cid)
            .map(|e| (e.timestamp.as_millis(), e.flags))
            .collect();
        assert_eq!(&found, hot_rows, "monitor {monitor}");
    }
    // The patched row repeats its chunk's first row 28 ms later.
    let repeat = streamed
        .iter()
        .find(|e| e.timestamp == orphaned.timestamp && e.monitor == 0)
        .unwrap();
    assert_eq!((repeat.peer, repeat.flags), (first.peer, rebroadcast));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every way of reading `source`, as `(path name, output or error)`: the
/// entry, timestamp and chunk forms of `run_unmerged` (`run_parallel` on
/// disk), the flagged stream (rows flagged in their chunks on disk), the
/// merged stream and a filtered one. An output is shown with `{:?}`, so the
/// outcomes of two sources compare path by path.
fn read_every_way<S: TraceSource>(
    source: &S,
    targets: &RowTargets,
) -> Vec<(&'static str, Result<String, String>)> {
    fn shown<T: std::fmt::Debug>(result: Result<T, SegmentError>) -> Result<String, String> {
        result
            .map(|output| format!("{output:?}"))
            .map_err(|error| error.to_string())
    }
    fn drain(mut stream: SourceEntries) -> Result<String, String> {
        let entries: Vec<TraceEntry> = (&mut stream).collect();
        shown(stream.take_error().map_or(Ok(entries), Err))
    }
    let mut flagged = flag_source(source, PreprocessConfig::default());
    let entries: Vec<TraceEntry> = (&mut flagged).collect();
    let flagged = shown(flagged.take_source_error().map_or(Ok(entries), Err));
    vec![
        (
            "entry run",
            shown(source.run_unmerged(CountSink::default())),
        ),
        (
            "time run",
            shown(source.run_unmerged(EntryStatsSink::new())),
        ),
        (
            "chunk run",
            // Outputs without a hash map, so that `{:?}` is deterministic.
            shown(source.run_unmerged((
                RequestTypeSink::new(SimDuration::from_secs(30)),
                ActivityCountsSink::new(),
            ))),
        ),
        ("flagged stream", flagged),
        ("merged stream", drain(source.merged_entries())),
        (
            "filtered stream",
            drain(source.merged_entries_matching(targets)),
        ),
    ]
}

/// A chunk that fails its CRC fails every path the same way, with the same
/// first error (the lowest failing monitor's) — also for chunks a filtered
/// stream would have pruned, because pruning happens after validation.
/// After `recover_dataset`, every path succeeds and reads exactly the
/// entries the recovered merged stream holds.
#[test]
fn damage_surfaces_identically_on_every_path() {
    let dataset = common::random_dataset(5, 2, 400, 500);
    let dir = temp_dir("column-damage");
    let layout = DatasetConfig {
        rotate_after_entries: 100,
        segment: SegmentConfig { chunk_capacity: 16 },
        ..DatasetConfig::default()
    };
    write_manifest(&dataset, &dir, layout);
    // Break a middle chunk of one segment per monitor (footers stay valid).
    for file in ["seg-000-00002.seg", "seg-001-00001.seg"] {
        let path = dir.join(file);
        let mut bytes = std::fs::read(&path).unwrap();
        let chunk = segment_reader(&bytes).unwrap().chunks()[3];
        bytes[(chunk.offset + chunk.len / 2) as usize] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
    }
    // Targets absent from the dataset: the filtered stream prunes every
    // chunk, and must still have validated each one first.
    let absent = RowTargets {
        cids: Default::default(),
        peers: [PeerId::derived(1, 1)].into(),
    };

    let strict = read_every_way(&ManifestReader::open(&dir).unwrap(), &absent);
    let (_, first_error) = &strict[0];
    assert!(first_error.is_err(), "damage must surface");
    for (path, outcome) in &strict {
        assert_eq!(outcome, first_error, "{path}");
    }

    let report = recover_dataset(&dir).unwrap();
    assert_eq!(report.segments_truncated, 2, "one CRC-broken segment each");
    let reader = ManifestReader::open(&dir).unwrap();
    // What survived, as an in-memory dataset: each path's entry-reading
    // reference.
    let mut survived = MonitoringDataset::new(reader.monitor_labels().to_vec());
    let mut stream = reader.merged_entries();
    for entry in &mut stream {
        survived.entries[entry.monitor].push(entry);
    }
    assert!(stream.take_error().is_none());
    assert!(survived.entries.iter().all(|entries| !entries.is_empty()));
    assert!(survived.total_entries() < dataset.total_entries());
    let present = RowTargets {
        cids: Default::default(),
        peers: [PeerId::derived(29, 3)].into(),
    };
    let recovered = read_every_way(&reader, &present);
    for (path, outcome) in &recovered {
        assert!(outcome.is_ok(), "{path}: {outcome:?}");
    }
    assert_eq!(recovered, read_every_way(&survived, &present));
    std::fs::remove_dir_all(&dir).ok();
}

/// The in-memory default of the filtered stream is the merged stream with
/// the other rows removed, and the on-disk pushdown equals it.
#[test]
fn filtered_stream_is_the_merged_stream_minus_other_rows() {
    let case = differential_case(9);
    let dir = temp_dir("filtered");
    case.spill(&dir);
    let reader = ManifestReader::open(&dir).unwrap();
    let targets = RowTargets {
        cids: case.targets.idw_cids.iter().cloned().collect(),
        peers: case.targets.tnw_peers.iter().copied().collect(),
    };
    let expected: Vec<TraceEntry> = case
        .dataset
        .merged_entries()
        .filter(|entry| targets.matches(entry))
        .collect();
    assert!(!expected.is_empty() && expected.len() < case.dataset.total_entries());
    let in_memory: Vec<TraceEntry> = case.dataset.merged_entries_matching(&targets).collect();
    let on_disk: Vec<TraceEntry> = reader.merged_entries_matching(&targets).collect();
    assert_eq!(in_memory, expected);
    assert_eq!(on_disk, expected);
    std::fs::remove_dir_all(&dir).ok();
}
