//! Trace preprocessing (Sec. IV-B).
//!
//! Raw per-monitor traces are unified into one stream and two kinds of
//! repeated entries are flagged:
//!
//! * **Inter-monitor duplicates** — a node connected to several monitors
//!   broadcasts each want to all of them; entries with the same
//!   `(peer, request type, CID)` arriving at *different* monitors within a
//!   5 s window are genuine duplicates of one broadcast.
//! * **Re-broadcasts** — IPFS re-broadcasts unresolved wants every 30 s; a
//!   per-monitor window of 31 s flags these repeats.
//!
//! As in the paper, the flags are kept (rather than entries being dropped) so
//! that each analysis can decide which view it needs; the standard analyses
//! filter both out via [`crate::trace::UnifiedTrace::primary_entries`].
//!
//! All execution modes share one engine, [`StreamingPreprocessor`], driven
//! through the [`TraceSource`] abstraction:
//!
//! * [`flag_source`] / [`unify_and_flag_source`] — flag the merged stream of
//!   *any* trace source (in-memory dataset or on-disk manifest dataset)
//!   without materializing the trace, in memory bounded by the number of
//!   *active* `(peer, request type, CID)` keys inside the dedup windows
//!   (stale keys are evicted as time advances). Storage-level choices — the
//!   chunk capacity, segment rotation — are wholly
//!   below this interface: every combination delivers the same merged
//!   stream, so flags (and every analysis downstream of them) are
//!   bit-identical across all of them;
//! * [`unify_and_flag`] — the in-memory entry point: [`unify_and_flag_source`]
//!   over the dataset source.
//!
//! Every path produces bit-identical flags because it is the same code.
//!
//! # The engine's table
//!
//! The engine flags one row at a time on the thread that consumes the merged
//! stream, and most rows repeat a key that is already live (re-broadcasts
//! and inter-monitor copies are more than half of a real trace — that is why
//! they are flagged). The state is therefore laid out for the repeat: a map
//! from key to an offset into one flat arena of last-seen slots (`monitors`
//! per key, `None` for "never", so every `u64` stays a legal timestamp),
//! looked up with `get` before anything is inserted. Eviction returns a dead
//! key's slots to a free list, so the arena is bounded by the largest live
//! population, not by the trace.
//!
//! A key is filed under a hash built from parts: `H(peer)` and `H(cid)` by
//! the keyed fold-multiply word hasher of [`ipfs_mon_tracestore::hash`]
//! (instead of SipHash), then those two and the request type folded once more
//! under the same seeds. The parts are what
//! an on-disk dataset lets the engine share: a chunk stores each distinct
//! peer and CID once, so [`FlaggedStream`] over a manifest source hashes a
//! chunk's two dictionaries when it meets the chunk's first row and every
//! row of the chunk then costs two lookups in that memo and the three-word
//! fold — and the lookup borrows peer and CID from the chunk, so a repeat
//! copies nothing. An entry that is already built
//! ([`StreamingPreprocessor::flag`]: in-memory sources, filtered in-memory
//! streams) hashes its own peer and CID to the same parts and goes through
//! the same table.
//!
//! Peer IDs and CIDs are outside input. The hasher's two seeds are random per
//! engine ([`WordHashBuilder::random`]), never leave it (the part hashes of a
//! chunk are made by the engine on its own thread and kept where only its
//! stream can reach them), and no other map shares them: without the seeds,
//! keys cannot be chosen to collide. And a hash only ever *places* a key:
//! every hit compares the whole key — peer, request type, CID — so two keys
//! that do share a hash are two keys. The engine this replaced —
//! `HashMap<key, Vec<Option<SimTime>>>` under SipHash — is the oracle of this
//! module's tests, for both ways in.

use crate::trace::{EntryFlags, MonitoringDataset, TraceEntry, UnifiedTrace};
use ipfs_mon_bitswap::RequestType;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_tracestore::{
    ChunkView, MergedRow, SegmentError, SourceEntries, TraceSource, WordHashBuilder,
};
use ipfs_mon_types::{Cid, PeerId};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Preprocessing configuration.
#[derive(Debug, Clone, Copy)]
pub struct PreprocessConfig {
    /// Window within which the same entry at *different* monitors counts as a
    /// duplicate of one broadcast (paper: 5 s).
    pub duplicate_window: SimDuration,
    /// Window within which the same entry at the *same* monitor counts as a
    /// periodic re-broadcast (paper: 31 s).
    pub rebroadcast_window: SimDuration,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        Self {
            duplicate_window: SimDuration::from_secs(5),
            rebroadcast_window: SimDuration::from_secs(31),
        }
    }
}

/// Statistics of one preprocessing pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocessStats {
    /// Total entries in the unified trace.
    pub total: usize,
    /// Entries flagged as inter-monitor duplicates.
    pub inter_monitor_duplicates: usize,
    /// Entries flagged as re-broadcasts.
    pub rebroadcasts: usize,
    /// Entries carrying neither flag.
    pub primary: usize,
}

impl PreprocessStats {
    /// Fraction of entries that are repeats of some kind.
    pub fn repeat_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.total - self.primary) as f64 / self.total as f64
        }
    }
}

/// What identifies "the same logical entry" for both windows — peer, request
/// type and CID — wherever the three lie: in a key the table stores, in an
/// entry, or in a chunk's dictionaries and type plane. With them the hash the
/// key is filed under ([`StreamingPreprocessor::key_hash`]), which places a
/// key in the table and never identifies it: equality is on all of it.
trait KeyParts {
    fn parts(&self) -> (u64, &[u8; 32], RequestType, &Cid);
}

impl Hash for dyn KeyParts + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.parts().0);
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

/// A key as the table owns it.
#[derive(Debug, Clone)]
struct StoredKey {
    hash: u64,
    peer: PeerId,
    request_type: RequestType,
    cid: Cid,
}

impl KeyParts for StoredKey {
    fn parts(&self) -> (u64, &[u8; 32], RequestType, &Cid) {
        (
            self.hash,
            self.peer.as_bytes(),
            self.request_type,
            &self.cid,
        )
    }
}

// The table finds a stored key through its parts, so a lookup borrows the
// peer and the CID from wherever the row keeps them; `Hash` and `Eq` are
// those of the parts, as `Borrow` requires.
impl<'a> Borrow<dyn KeyParts + 'a> for StoredKey {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

impl Hash for StoredKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for StoredKey {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for StoredKey {}

/// A key whose peer and CID are borrowed from the row it is looked up for.
struct BorrowedKey<'a> {
    hash: u64,
    peer: &'a [u8; 32],
    request_type: RequestType,
    cid: &'a Cid,
}

impl KeyParts for BorrowedKey<'_> {
    fn parts(&self) -> (u64, &[u8; 32], RequestType, &Cid) {
        (self.hash, self.peer, self.request_type, self.cid)
    }
}

/// The table's own hasher: a key arrives already hashed under the engine's
/// seeds and feeds that one word.
#[derive(Debug, Clone, Copy, Default)]
struct HashedOnce(u64);

impl Hasher for HashedOnce {
    #[inline]
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("a table key feeds its hash as one word");
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Entries processed between evictions of stale window state.
const EVICTION_PERIOD: usize = 8192;

/// The window-flagging engine shared by the in-memory and streaming paths.
///
/// Feed entries in `(timestamp, monitor)` order via
/// [`StreamingPreprocessor::flag`]. State is one last-seen timestamp per
/// monitor per active key; keys whose last activity has fallen outside the
/// larger window are evicted periodically, so memory tracks the *rate* of
/// distinct keys, not the length of the trace.
///
/// The layout is described in the [module docs](self): the arena holds
/// `monitors × 16` bytes per key of the *largest* population live between
/// two evictions and never more, which [`Self::tracked_keys`] bounds.
#[derive(Debug, Clone)]
pub struct StreamingPreprocessor {
    config: PreprocessConfig,
    monitors: usize,
    /// The engine's seeds: every part hash and every key hash is made under
    /// them, and they never leave the engine.
    hasher: WordHashBuilder,
    /// Live keys, each with the offset of its slots in `last_seen`.
    slots_of: HashMap<StoredKey, usize, BuildHasherDefault<HashedOnce>>,
    /// Per live key, when each monitor last saw it: `monitors` consecutive
    /// slots. `None` is "never" — every `u64` is a legal timestamp.
    last_seen: Vec<Option<SimTime>>,
    /// Offsets of the slots evicted keys left behind, all `None` again.
    free: Vec<usize>,
    stats: PreprocessStats,
    since_eviction: usize,
}

impl StreamingPreprocessor {
    /// Creates an engine for traces of `monitors` monitors.
    pub fn new(monitors: usize, config: PreprocessConfig) -> Self {
        Self::with_hasher(monitors, config, WordHashBuilder::random())
    }

    fn with_hasher(monitors: usize, config: PreprocessConfig, hasher: WordHashBuilder) -> Self {
        Self {
            config,
            monitors: monitors.max(1),
            hasher,
            slots_of: HashMap::default(),
            last_seen: Vec::new(),
            free: Vec::new(),
            stats: PreprocessStats::default(),
            since_eviction: 0,
        }
    }

    /// The hash a key is filed under: its part hashes and request type, one
    /// seeded fold-multiply each. Keyed like the part hashes, so parts cannot
    /// be chosen to cancel.
    #[inline]
    fn key_hash(&self, peer_hash: u64, request_type: RequestType, cid_hash: u64) -> u64 {
        let mut hasher = self.hasher.build_hasher();
        hasher.write_u64(peer_hash);
        hasher.write_u64(request_type as u64);
        hasher.write_u64(cid_hash);
        hasher.finish()
    }

    /// Sets the duplicate/re-broadcast flags of `entry` and updates the
    /// window state. Entries must arrive in `(timestamp, monitor)` order.
    ///
    /// # Panics
    ///
    /// Panics if `entry.monitor` is not below the monitor count the engine
    /// was created for. Every [`TraceSource`] stamps its entries with an
    /// index below its own [`TraceSource::monitor_count`].
    pub fn flag(&mut self, entry: &mut TraceEntry) {
        let peer = entry.peer.as_bytes();
        let key = BorrowedKey {
            hash: self.key_hash(
                self.hasher.hash_one(peer),
                entry.request_type,
                self.hasher.hash_one(&entry.cid),
            ),
            peer,
            request_type: entry.request_type,
            cid: &entry.cid,
        };
        entry.flags = self.flag_key(&key, entry.monitor, entry.timestamp);
    }

    /// [`StreamingPreprocessor::flag`] for a row still in its chunk: the
    /// flags the row's entry is to carry. The part hashes come from the
    /// chunk's memo — made on the chunk's first row, one per entry of its
    /// peer and CID dictionaries, under this engine's seeds — and the key
    /// borrows peer and CID from the dictionaries.
    pub(crate) fn flag_row(&mut self, row: &mut MergedRow<'_>) -> EntryFlags {
        let chunk = row.chunk;
        if row.memo.is_empty() {
            self.hash_dictionaries(chunk, row.memo);
        }
        let peer = chunk.peer_indexes()[row.row];
        let cid = chunk.cid_indexes()[row.row];
        let request_type = chunk.request_type(row.row);
        let key = BorrowedKey {
            hash: self.key_hash(
                row.memo[peer],
                request_type,
                row.memo[chunk.peer_dict_len() + cid],
            ),
            peer: chunk.peer_bytes(peer),
            request_type,
            cid: &chunk.cid_dict()[cid],
        };
        self.flag_key(&key, row.monitor, row.timestamp)
    }

    /// The part hashes of a chunk: of every peer of its dictionary, then of
    /// every CID — also of an entry no row references, which is hashed here
    /// and never looked up.
    fn hash_dictionaries(&self, chunk: &ChunkView<'_>, hashes: &mut Vec<u64>) {
        let peers = (0..chunk.peer_dict_len()).map(|peer| chunk.peer_bytes(peer));
        hashes.extend(peers.map(|peer| self.hasher.hash_one(peer)));
        hashes.extend(chunk.cid_dict().iter().map(|cid| self.hasher.hash_one(cid)));
    }

    /// Flags one row of monitor `monitor` at `timestamp` whose key is `key`.
    fn flag_key(
        &mut self,
        key: &BorrowedKey<'_>,
        monitor: usize,
        timestamp: SimTime,
    ) -> EntryFlags {
        // Look up before inserting: a repeat costs no allocation, no copy of
        // the key and touches nothing but its own slots.
        let offset = match self.slots_of.get(key as &dyn KeyParts) {
            Some(&offset) => offset,
            None => {
                let offset = self.free.pop().unwrap_or_else(|| {
                    let offset = self.last_seen.len();
                    self.last_seen.resize(offset + self.monitors, None);
                    offset
                });
                let stored = StoredKey {
                    hash: key.hash,
                    peer: PeerId::from_bytes(*key.peer),
                    request_type: key.request_type,
                    cid: key.cid.clone(),
                };
                self.slots_of.insert(stored, offset);
                offset
            }
        };
        let per_monitor = &mut self.last_seen[offset..offset + self.monitors];

        // Inter-monitor duplicate: some other monitor saw it recently.
        let is_duplicate = per_monitor.iter().enumerate().any(|(m, seen)| {
            m != monitor && seen.is_some_and(|t| timestamp.since(t) <= self.config.duplicate_window)
        });
        // Re-broadcast: the same monitor saw it within the larger window.
        let is_rebroadcast = per_monitor[monitor]
            .is_some_and(|t| timestamp.since(t) <= self.config.rebroadcast_window);
        per_monitor[monitor] = Some(timestamp);

        self.stats.total += 1;
        if is_duplicate {
            self.stats.inter_monitor_duplicates += 1;
        }
        if is_rebroadcast {
            self.stats.rebroadcasts += 1;
        }
        if !is_duplicate && !is_rebroadcast {
            self.stats.primary += 1;
        }

        self.since_eviction += 1;
        if self.since_eviction >= EVICTION_PERIOD {
            self.evict_stale(timestamp);
            self.since_eviction = 0;
        }
        EntryFlags {
            inter_monitor_duplicate: is_duplicate,
            rebroadcast: is_rebroadcast,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> PreprocessStats {
        self.stats
    }

    /// Number of keys currently tracked (exposed for memory diagnostics).
    pub fn tracked_keys(&self) -> usize {
        self.slots_of.len()
    }

    /// Drops keys that can no longer influence any future entry: input is
    /// time-ordered, so a key whose every last-seen timestamp lies further
    /// than the larger window before `now` is dead state. Its slots are
    /// blanked and handed to the next new key.
    fn evict_stale(&mut self, now: SimTime) {
        let horizon = self
            .config
            .duplicate_window
            .as_millis()
            .max(self.config.rebroadcast_window.as_millis());
        let Self {
            slots_of,
            last_seen,
            free,
            monitors,
            ..
        } = self;
        slots_of.retain(|_, offset| {
            let per_monitor = &mut last_seen[*offset..*offset + *monitors];
            let live = per_monitor
                .iter()
                .flatten()
                .any(|&t| now.since(t).as_millis() <= horizon);
            if !live {
                per_monitor.fill(None);
                free.push(*offset);
            }
            live
        });
    }
}

/// Unifies the per-monitor traces of `dataset` into one time-ordered trace
/// and sets the duplicate/re-broadcast flags: the dataset's [`TraceSource`]
/// merged stream is the time-ordered view the flagging windows expect.
pub fn unify_and_flag(
    dataset: &MonitoringDataset,
    config: PreprocessConfig,
) -> (UnifiedTrace, PreprocessStats) {
    unify_and_flag_source(dataset, config).expect("in-memory sources cannot fail")
}

/// The lazily flagged merged stream of a [`TraceSource`]: yields the
/// source's `(timestamp, monitor)`-ordered entries with flags set, without
/// materializing the trace. See [`flag_source`].
pub struct FlaggedStream<'a> {
    inner: SourceEntries<'a>,
    preprocessor: StreamingPreprocessor,
}

impl FlaggedStream<'_> {
    /// Statistics over the entries yielded so far (complete once the stream
    /// is exhausted).
    pub fn stats(&self) -> PreprocessStats {
        self.preprocessor.stats()
    }

    /// Number of window keys currently tracked.
    pub fn tracked_keys(&self) -> usize {
        self.preprocessor.tracked_keys()
    }

    /// Takes the storage error that ended the stream early, if any.
    ///
    /// A segment-backed stream ends silently when a chunk fails its CRC or
    /// decode; check this after exhausting the stream, or the statistics
    /// cover a truncated trace with no indication anything is wrong.
    /// ([`unify_and_flag_source`] does this for you.)
    pub fn take_source_error(&mut self) -> Option<SegmentError> {
        self.inner.take_error()
    }
}

impl Iterator for FlaggedStream<'_> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        // An on-disk dataset hands out its rows where they lie: the engine
        // reads the key out of the chunk, and the entry is built once, here.
        if let SourceEntries::Manifest(stream) = &mut self.inner {
            let mut row = stream.next_row()?;
            let flags = self.preprocessor.flag_row(&mut row);
            return Some(TraceEntry {
                flags,
                ..row.entry()
            });
        }
        let mut entry = self.inner.next()?;
        self.preprocessor.flag(&mut entry);
        Some(entry)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

/// Opens a flagged stream over any [`TraceSource`] — the universal
/// preprocessing entry point: the same call handles an in-memory dataset or
/// an on-disk manifest dataset.
pub fn flag_source<T: TraceSource>(source: &T, config: PreprocessConfig) -> FlaggedStream<'_> {
    flag_entries(source.merged_entries(), source.monitor_count(), config)
}

/// Flags an entry stream of `monitors` monitors that is in
/// `(timestamp, monitor)` order. The flags of an entry depend only on the
/// earlier entries with its own `(peer, request type, CID)` key, so a stream
/// filtered by CID or by peer ([`TraceSource::merged_entries_matching`])
/// gets exactly the flags its entries have in the whole trace: every entry
/// sharing a key with a kept entry is kept too, the kept entries are still
/// in order, and eviction only ever drops keys too old to matter. Only the
/// [`FlaggedStream::stats`] then describe the filtered stream, not the trace.
pub fn flag_entries(
    entries: SourceEntries<'_>,
    monitors: usize,
    config: PreprocessConfig,
) -> FlaggedStream<'_> {
    FlaggedStream {
        inner: entries,
        preprocessor: StreamingPreprocessor::new(monitors, config),
    }
}

/// Streams any [`TraceSource`] through preprocessing into an in-memory
/// [`UnifiedTrace`]. For analyses that can consume the stream directly,
/// prefer [`flag_source`] — it never materializes the trace.
pub fn unify_and_flag_source<T: TraceSource>(
    source: &T,
    config: PreprocessConfig,
) -> Result<(UnifiedTrace, PreprocessStats), SegmentError> {
    let mut stream = flag_source(source, config);
    let entries: Vec<TraceEntry> = (&mut stream).collect();
    let stats = stream.stats();
    if let Some(error) = stream.take_source_error() {
        return Err(error);
    }
    Ok((UnifiedTrace { entries }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipfs_mon_tracestore::{DatasetConfig, DatasetWriter, ManifestReader, SegmentConfig};
    use ipfs_mon_types::{Country, Multiaddr, Multicodec, Transport};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    type EntryKey = (PeerId, RequestType, Cid);

    /// The engine this module had before the flat table: a SipHash map from
    /// key to a heap vector of last-seen times, `entry()` on every row. Kept
    /// as the oracle the table is held to.
    struct OracleEngine {
        config: PreprocessConfig,
        monitors: usize,
        last_seen: HashMap<EntryKey, Vec<Option<SimTime>>>,
        stats: PreprocessStats,
        since_eviction: usize,
    }

    impl OracleEngine {
        fn new(monitors: usize, config: PreprocessConfig) -> Self {
            Self {
                config,
                monitors: monitors.max(1),
                last_seen: HashMap::new(),
                stats: PreprocessStats::default(),
                since_eviction: 0,
            }
        }

        fn flag(&mut self, entry: &mut TraceEntry) {
            let key: EntryKey = (entry.peer, entry.request_type, entry.cid.clone());
            let per_monitor = self
                .last_seen
                .entry(key)
                .or_insert_with(|| vec![None; self.monitors]);
            let is_duplicate = per_monitor.iter().enumerate().any(|(m, seen)| {
                m != entry.monitor
                    && seen
                        .map(|t| entry.timestamp.since(t) <= self.config.duplicate_window)
                        .unwrap_or(false)
            });
            let is_rebroadcast = per_monitor[entry.monitor]
                .map(|t| entry.timestamp.since(t) <= self.config.rebroadcast_window)
                .unwrap_or(false);
            entry.flags.inter_monitor_duplicate = is_duplicate;
            entry.flags.rebroadcast = is_rebroadcast;
            per_monitor[entry.monitor] = Some(entry.timestamp);

            self.stats.total += 1;
            self.stats.inter_monitor_duplicates += usize::from(is_duplicate);
            self.stats.rebroadcasts += usize::from(is_rebroadcast);
            self.stats.primary += usize::from(!is_duplicate && !is_rebroadcast);

            self.since_eviction += 1;
            if self.since_eviction >= EVICTION_PERIOD {
                let horizon = self
                    .config
                    .duplicate_window
                    .as_millis()
                    .max(self.config.rebroadcast_window.as_millis());
                let now = entry.timestamp;
                self.last_seen.retain(|_, per_monitor| {
                    per_monitor
                        .iter()
                        .flatten()
                        .any(|&t| now.since(t).as_millis() <= horizon)
                });
                self.since_eviction = 0;
            }
        }
    }

    /// A `(timestamp, monitor)`-ordered trace built to lean on everything
    /// the table does: many distinct keys seen once (one case in sixteen has
    /// more than three eviction periods' worth, the others enough to cross
    /// one eviction), a few hot keys that recur — some after they were
    /// evicted —, repeats at exactly the window edges on the same and on
    /// another monitor, runs of equal timestamps, and the largest timestamp
    /// there is at the end.
    fn oracle_case(seed: u64) -> (usize, Vec<TraceEntry>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let monitors = rng.gen_range(1usize..=5);
        let distinct = if seed.is_multiple_of(16) {
            3 * EVICTION_PERIOD + 1
        } else {
            EVICTION_PERIOD * 3 / 4
        };
        let types = [
            RequestType::WantHave,
            RequestType::WantBlock,
            RequestType::Cancel,
        ];
        // Hashing a peer and a CID per row would be most of the test's time.
        let template = entry(0, 0, 0, 0, RequestType::WantHave);
        let cids: Vec<Cid> = (0..8u8)
            .map(|i| Cid::new_v1(Multicodec::Raw, &[i]))
            .collect();
        let mut entries = Vec::new();
        let mut clock = 0u64;
        let mut cold = 0u64;
        while (cold as usize) < distinct {
            // Steps of zero keep several rows on one timestamp.
            clock += [0, 0, 1, 40, 900, 2_500][rng.gen_range(0usize..6)];
            let peer = if rng.gen_bool(0.15) {
                rng.gen_range(0u64..HOT_PEERS)
            } else {
                cold += 1;
                HOT_PEERS + cold
            };
            let mut bytes = [0u8; 32];
            // Big-endian: peer IDs compare as their numbers do.
            bytes[..8].copy_from_slice(&peer.to_be_bytes());
            let first = TraceEntry {
                timestamp: SimTime::from_millis(clock),
                peer: PeerId::from_bytes(bytes),
                request_type: types[rng.gen_range(0usize..3)],
                cid: cids[(peer % 8) as usize].clone(),
                monitor: rng.gen_range(0usize..monitors),
                ..template.clone()
            };
            if rng.gen_bool(0.2) {
                let gap = [0, 5_000, 5_001, 31_000, 31_001][rng.gen_range(0usize..5)];
                entries.push(TraceEntry {
                    timestamp: SimTime::from_millis(clock + gap),
                    monitor: rng.gen_range(0usize..monitors),
                    ..first.clone()
                });
            }
            entries.push(first);
        }
        let last = entries[0].clone();
        for monitor in 0..2 * monitors {
            entries.push(TraceEntry {
                timestamp: SimTime::from_millis(u64::MAX),
                monitor: monitor / 2,
                ..last.clone()
            });
        }
        entries.sort_by_key(|e| (e.timestamp, e.monitor));
        (monitors, entries)
    }

    /// Peers `0..HOT_PEERS` of an [`oracle_case`] recur throughout the trace.
    const HOT_PEERS: u64 = 6;

    proptest! {
        /// Same flags on every row, the same statistics and the same number
        /// of tracked keys after every row as the engine this one replaced —
        /// for entries flagged in memory, and for the same rows flagged where
        /// they lie in the chunks of an on-disk dataset.
        #[test]
        fn table_engine_equals_the_map_of_vectors_engine(seed in 0u64..1_000_000) {
            let (monitors, entries) = oracle_case(seed);
            let config = PreprocessConfig::default();
            let mut engine = StreamingPreprocessor::new(monitors, config);
            let mut oracle = OracleEngine::new(monitors, config);
            let mut evicted_and_seen_again = false;
            // Per row, what the oracle said: the flags and the keys tracked.
            let mut expected = Vec::with_capacity(entries.len());
            for (row, original) in entries.iter().enumerate() {
                let (mut flagged, mut by_oracle) = (original.clone(), original.clone());
                let before = engine.tracked_keys();
                engine.flag(&mut flagged);
                oracle.flag(&mut by_oracle);
                prop_assert_eq!(flagged.flags, by_oracle.flags, "row {}", row);
                prop_assert_eq!(engine.tracked_keys(), oracle.last_seen.len(), "row {}", row);
                expected.push((by_oracle.flags, oracle.last_seen.len()));
                // A hot key that adds to the table this late was in it
                // before: it has been evicted in between.
                evicted_and_seen_again |= row > EVICTION_PERIOD
                    && engine.tracked_keys() > before
                    && original.peer.as_bytes()[..8] < HOT_PEERS.to_be_bytes()[..];
            }
            prop_assert_eq!(engine.stats(), oracle.stats);
            prop_assert!(evicted_and_seen_again);
            prop_assert!(engine.stats().rebroadcasts > 0 && engine.stats().inter_monitor_duplicates > 0
                || monitors == 1);
            // The arena holds the largest live population, not the trace.
            prop_assert!(engine.last_seen.len() <= 2 * (EVICTION_PERIOD + 64) * monitors);
            prop_assert_eq!(
                engine.last_seen.len(),
                (engine.tracked_keys() + engine.free.len()) * monitors
            );

            // The other way in. A chunk stores timestamps as signed deltas,
            // so the rows at `u64::MAX` ms — the last of the trace — stay out.
            let on_disk = entries.iter().take_while(|e| e.timestamp.as_millis() < u64::MAX);
            let dir = std::env::temp_dir()
                .join(format!("preprocess-oracle-{seed}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let layout = DatasetConfig {
                segment: SegmentConfig { chunk_capacity: 1 + (seed % 97) as usize },
                rotate_after_entries: 1_000 + seed % 1_000,
                ..DatasetConfig::default()
            };
            let labels = (0..monitors).map(|m| format!("m{m}")).collect();
            let mut writer = DatasetWriter::create(&dir, labels, layout).unwrap();
            let mut written = 0;
            for entry in on_disk {
                writer.append(entry).unwrap();
                written += 1;
            }
            writer.finish().unwrap();
            let reader = ManifestReader::open(&dir).unwrap();
            let mut stream = flag_source(&reader, config);
            let mut row = 0;
            while let Some(flagged) = stream.next() {
                prop_assert_eq!(&flagged.peer, &entries[row].peer, "row {}", row);
                prop_assert_eq!(flagged.flags, expected[row].0, "row {} from its chunk", row);
                prop_assert_eq!(stream.tracked_keys(), expected[row].1, "row {} from its chunk", row);
                row += 1;
            }
            prop_assert!(stream.take_source_error().is_none());
            prop_assert_eq!(row, written);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A hash places a key in the table and never identifies it: under seeds
    /// that give every key the same hash, the engine still flags as the
    /// oracle does and tracks as many keys.
    #[test]
    fn keys_that_share_a_hash_are_told_apart() {
        let (monitors, entries) = oracle_case(3);
        let config = PreprocessConfig::default();
        let colliding = WordHashBuilder::from_seeds(0, 0);
        let mut engine = StreamingPreprocessor::with_hasher(monitors, config, colliding);
        let mut oracle = OracleEngine::new(monitors, config);
        for original in &entries[..1_500] {
            let (mut flagged, mut expected) = (original.clone(), original.clone());
            engine.flag(&mut flagged);
            oracle.flag(&mut expected);
            assert_eq!(flagged.flags, expected.flags);
            assert_eq!(engine.tracked_keys(), oracle.last_seen.len());
        }
        assert!(engine.tracked_keys() > 1_000);
        assert!(engine.slots_of.keys().all(|key| key.hash == 0));
        assert_eq!(engine.stats(), oracle.stats);
    }

    /// A dataset is outside input: an entry's stored `monitor` may name
    /// a monitor the dataset does not have, and there may be more entry
    /// vectors than labels. Flagging goes by the vector an entry sits in.
    #[test]
    fn stored_monitor_indexes_are_not_trusted() {
        let corrected = dataset(vec![
            entry(1_000, 1, 1, 0, RequestType::WantHave),
            entry(2_500, 1, 1, 1, RequestType::WantHave),
            entry(9_000, 1, 1, 0, RequestType::WantHave),
        ]);
        let mut doctored = corrected.clone();
        doctored.entries[0][1].monitor = 7;
        doctored.entries[1][0].monitor = usize::MAX;
        doctored.monitor_labels.truncate(1);

        let (expected, expected_stats) = unify_and_flag(&corrected, PreprocessConfig::default());
        let (trace, stats) = unify_and_flag(&doctored, PreprocessConfig::default());
        assert_eq!(trace.entries, expected.entries);
        assert_eq!(stats, expected_stats);
        assert_eq!(stats.inter_monitor_duplicates, 1);
        assert_eq!(stats.rebroadcasts, 1);
    }

    fn entry(millis: u64, peer: u64, cid: u8, monitor: usize, rtype: RequestType) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(millis),
            peer: PeerId::derived(3, peer),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::De),
            request_type: rtype,
            cid: Cid::new_v1(Multicodec::Raw, &[cid]),
            monitor,
            flags: EntryFlags::default(),
        }
    }

    fn dataset(entries: Vec<TraceEntry>) -> MonitoringDataset {
        let mut ds = MonitoringDataset::new(vec!["us".into(), "de".into()]);
        for e in entries {
            let m = e.monitor;
            ds.entries[m].push(e);
        }
        ds
    }

    #[test]
    fn cross_monitor_copy_within_window_is_duplicate() {
        let ds = dataset(vec![
            entry(1_000, 1, 1, 0, RequestType::WantHave),
            entry(2_500, 1, 1, 1, RequestType::WantHave), // 1.5 s later, other monitor
        ]);
        let (trace, stats) = unify_and_flag(&ds, PreprocessConfig::default());
        assert!(!trace.entries[0].flags.inter_monitor_duplicate);
        assert!(trace.entries[1].flags.inter_monitor_duplicate);
        assert!(!trace.entries[1].flags.rebroadcast);
        assert_eq!(stats.inter_monitor_duplicates, 1);
        assert_eq!(stats.primary, 1);
    }

    #[test]
    fn cross_monitor_copy_outside_window_is_not_duplicate() {
        let ds = dataset(vec![
            entry(1_000, 1, 1, 0, RequestType::WantHave),
            entry(7_500, 1, 1, 1, RequestType::WantHave), // 6.5 s later
        ]);
        let (trace, _) = unify_and_flag(&ds, PreprocessConfig::default());
        assert!(!trace.entries[1].flags.inter_monitor_duplicate);
    }

    #[test]
    fn same_monitor_repeat_within_31s_is_rebroadcast() {
        let ds = dataset(vec![
            entry(0, 1, 1, 0, RequestType::WantHave),
            entry(30_000, 1, 1, 0, RequestType::WantHave),
            entry(60_000, 1, 1, 0, RequestType::WantHave),
            entry(120_000, 1, 1, 0, RequestType::WantHave), // 60 s gap → not flagged
        ]);
        let (trace, stats) = unify_and_flag(&ds, PreprocessConfig::default());
        assert!(!trace.entries[0].flags.rebroadcast);
        assert!(trace.entries[1].flags.rebroadcast);
        assert!(trace.entries[2].flags.rebroadcast);
        assert!(!trace.entries[3].flags.rebroadcast);
        assert_eq!(stats.rebroadcasts, 2);
    }

    #[test]
    fn different_cids_or_types_are_never_repeats() {
        let ds = dataset(vec![
            entry(0, 1, 1, 0, RequestType::WantHave),
            entry(100, 1, 2, 0, RequestType::WantHave), // other CID
            entry(200, 1, 1, 0, RequestType::Cancel),   // other type
            entry(300, 2, 1, 0, RequestType::WantHave), // other peer
        ]);
        let (trace, stats) = unify_and_flag(&ds, PreprocessConfig::default());
        assert!(trace.entries.iter().all(|e| e.flags.is_primary()));
        assert_eq!(stats.primary, 4);
    }

    #[test]
    fn repeated_rebroadcasts_across_monitors_flag_both_ways() {
        // A node connected to both monitors re-broadcasting every 30 s: the
        // paper notes the >50 % repeat share; check the unified trace ends up
        // with exactly one primary entry.
        let mut raw = Vec::new();
        for i in 0..10u64 {
            raw.push(entry(i * 30_000, 1, 1, 0, RequestType::WantHave));
            raw.push(entry(i * 30_000 + 120, 1, 1, 1, RequestType::WantHave));
        }
        let ds = dataset(raw);
        let (trace, stats) = unify_and_flag(&ds, PreprocessConfig::default());
        assert_eq!(stats.total, 20);
        assert_eq!(stats.primary, 1);
        assert!(stats.repeat_fraction() > 0.9);
        assert_eq!(trace.primary_entries().count(), 1);
    }

    #[test]
    fn unified_trace_is_time_ordered() {
        let ds = dataset(vec![
            entry(5_000, 1, 1, 1, RequestType::WantHave),
            entry(1_000, 2, 2, 0, RequestType::WantHave),
            entry(3_000, 3, 3, 0, RequestType::WantBlock),
        ]);
        let (trace, _) = unify_and_flag(&ds, PreprocessConfig::default());
        for pair in trace.entries.windows(2) {
            assert!(pair[0].timestamp <= pair[1].timestamp);
        }
    }

    #[test]
    fn empty_dataset_produces_empty_trace() {
        let ds = MonitoringDataset::new(vec!["us".into()]);
        let (trace, stats) = unify_and_flag(&ds, PreprocessConfig::default());
        assert!(trace.is_empty());
        assert_eq!(stats, PreprocessStats::default());
        assert_eq!(stats.repeat_fraction(), 0.0);
    }

    #[test]
    fn window_sizes_are_configurable() {
        let ds = dataset(vec![
            entry(0, 1, 1, 0, RequestType::WantHave),
            entry(8_000, 1, 1, 1, RequestType::WantHave),
        ]);
        let strict = PreprocessConfig {
            duplicate_window: SimDuration::from_secs(5),
            rebroadcast_window: SimDuration::from_secs(31),
        };
        let relaxed = PreprocessConfig {
            duplicate_window: SimDuration::from_secs(10),
            rebroadcast_window: SimDuration::from_secs(31),
        };
        let (_, s1) = unify_and_flag(&ds, strict);
        let (_, s2) = unify_and_flag(&ds, relaxed);
        assert_eq!(s1.inter_monitor_duplicates, 0);
        assert_eq!(s2.inter_monitor_duplicates, 1);
    }

    #[test]
    fn streaming_over_segment_matches_in_memory_path() {
        // Interleaved duplicates, re-broadcasts and noise across two
        // monitors, then: flags from the streaming path over on-disk
        // segments must equal flags from unify_and_flag exactly.
        let mut raw = Vec::new();
        for i in 0..200u64 {
            let peer = i % 11;
            let cid = (i % 7) as u8;
            raw.push(entry(i * 700, peer, cid, 0, RequestType::WantHave));
            if i % 3 == 0 {
                raw.push(entry(i * 700 + 900, peer, cid, 1, RequestType::WantHave));
            }
            if i % 5 == 0 {
                raw.push(entry(i * 700 + 30_000, peer, cid, 0, RequestType::WantHave));
            }
        }
        // Per-monitor arrival order (the streaming path's precondition).
        let mut ds = dataset(Vec::new());
        let mut sorted = raw.clone();
        sorted.sort_by_key(|e| (e.timestamp, e.monitor));
        for e in &sorted {
            ds.entries[e.monitor].push(e.clone());
        }

        let (trace, stats) = unify_and_flag(&ds, PreprocessConfig::default());

        let dir = std::env::temp_dir().join(format!("preprocess-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = DatasetConfig {
            segment: SegmentConfig { chunk_capacity: 16 },
            rotate_after_entries: 60,
            ..DatasetConfig::default()
        };
        let mut writer = DatasetWriter::create(&dir, ds.monitor_labels.clone(), config).unwrap();
        for e in ds.entries.iter().flatten() {
            writer.append(e).unwrap();
        }
        writer.finish().unwrap();
        let reader = ManifestReader::open(&dir).unwrap();
        let (streamed_trace, streamed_stats) =
            unify_and_flag_source(&reader, PreprocessConfig::default()).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(streamed_trace.entries, trace.entries);
        assert_eq!(streamed_stats, stats);
    }

    #[test]
    fn eviction_keeps_state_bounded_without_changing_flags() {
        // Far more distinct keys than the eviction period, spread over a long
        // time span: tracked state must stay close to the active-window
        // population instead of the total key count.
        let config = PreprocessConfig::default();
        let mut preprocessor = StreamingPreprocessor::new(1, config);
        let total_keys = 3 * EVICTION_PERIOD as u64;
        for i in 0..total_keys {
            let mut e = entry(i * 1_000, i, (i % 251) as u8, 0, RequestType::WantHave);
            preprocessor.flag(&mut e);
            assert!(e.flags.is_primary());
        }
        assert!(
            preprocessor.tracked_keys() < EVICTION_PERIOD + 64,
            "tracked {} keys",
            preprocessor.tracked_keys()
        );
        // A repeat inside the window is still caught after evictions.
        let last = total_keys - 1;
        let mut repeat = entry(
            (last * 1_000) + 20_000,
            last,
            (last % 251) as u8,
            0,
            RequestType::WantHave,
        );
        preprocessor.flag(&mut repeat);
        assert!(repeat.flags.rebroadcast);
    }
}
