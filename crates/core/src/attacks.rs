//! Privacy attacks built on the monitoring methodology (Sec. VI).
//!
//! The same data that powers the benign analyses enables three attacks on
//! user privacy, all implemented here against the collected traces and the
//! simulated network:
//!
//! * **IDW — Identifying Data Wanters**: list the node IDs (and request
//!   times) that asked for a given CID.
//! * **TNW — Tracking Node Wants**: list the CIDs (and request times) a given
//!   node asked for.
//! * **TPI — Testing for Past Interests**: probe whether a target node holds a
//!   given CID in its cache, revealing whether it recently downloaded it.
//! * **Gateway probing** (Sec. VI-B): de-anonymize the IPFS nodes behind
//!   public HTTP gateways by registering the monitor as the only DHT provider
//!   for a freshly generated random block and requesting that block through
//!   the gateway's HTTP side; the Bitswap request that arrives at the monitor
//!   carries the gateway node's peer ID.
//!
//! Every trace-driven attack is a single-pass scan: [`run_attacks_source`]
//! evaluates IDW, TNW and TPI together in one constant-memory pass over any
//! [`TraceSource`] (in-memory dataset or on-disk manifest dataset),
//! and the [`UnifiedTrace`] entry points run the same [`AttackScan`] with a
//! single target over an already-flagged trace.

use crate::preprocess::{flag_entries, PreprocessConfig};
use crate::trace::{TraceEntry, UnifiedTrace};
use ipfs_mon_blockstore::{Block, BuiltDag};
use ipfs_mon_node::{ContentSpec, GatewayRequestEvent, Network};
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_simnet::time::SimTime;
use ipfs_mon_tracestore::{RowTargets, SegmentError, TraceSource};
use ipfs_mon_types::{Cid, Multicodec, PeerId};
use rand::RngCore;
use std::collections::{BTreeMap, HashMap, HashSet};

// ---------------------------------------------------------------------------
// IDW
// ---------------------------------------------------------------------------

/// One observation supporting an IDW result: a peer asked for the target CID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WanterObservation {
    /// The requesting peer.
    pub peer: PeerId,
    /// When the request was observed.
    pub at: SimTime,
}

/// Runs the IDW attack against a materialized trace: all peers observed
/// requesting `cid`, with their request times (primary requests only —
/// repeats don't add information). An [`AttackScan`] with one IDW target.
pub fn identify_data_wanters(trace: &UnifiedTrace, cid: &Cid) -> Vec<WanterObservation> {
    let mut scan = AttackScan::new(std::slice::from_ref(cid), &[]);
    trace.entries.iter().for_each(|entry| scan.observe(entry));
    scan.finish().0.remove(cid).unwrap_or_default()
}

// ---------------------------------------------------------------------------
// TNW
// ---------------------------------------------------------------------------

/// The request profile of one tracked node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeWantProfile {
    /// CIDs the node requested, with all observed request times.
    pub wants: BTreeMap<Cid, Vec<SimTime>>,
}

impl NodeWantProfile {
    /// Number of distinct CIDs the node was observed requesting.
    pub fn distinct_cids(&self) -> usize {
        self.wants.len()
    }

    /// Total number of observed (primary) requests.
    pub fn total_requests(&self) -> usize {
        self.wants.values().map(Vec::len).sum()
    }
}

/// Runs the TNW attack against a materialized trace: everything the target
/// peer was observed requesting. An [`AttackScan`] with one TNW target.
pub fn track_node_wants(trace: &UnifiedTrace, target: &PeerId) -> NodeWantProfile {
    let mut scan = AttackScan::new(&[], std::slice::from_ref(target));
    trace.entries.iter().for_each(|entry| scan.observe(entry));
    scan.finish().1.remove(target).unwrap_or_default()
}

// ---------------------------------------------------------------------------
// TPI
// ---------------------------------------------------------------------------

/// Outcome of a TPI probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpiOutcome {
    /// The target answered the probe: the data is in its cache, so it was
    /// requested (or published) via that node in the recent past.
    CachedRecently,
    /// The target did not have the block.
    NotCached,
}

/// Runs the TPI attack against a node of the simulated network: send a probe
/// request for `cid` to the target and observe whether it can serve the
/// block. In the simulation this inspects the target's block store — exactly
/// the signal a real probe request would extract, since nodes serve cached
/// blocks to anyone who asks.
pub fn test_past_interest(network: &Network, target_node: usize, cid: &Cid) -> TpiOutcome {
    if network.node_has_block(target_node, cid) {
        TpiOutcome::CachedRecently
    } else {
        TpiOutcome::NotCached
    }
}

// ---------------------------------------------------------------------------
// One-pass attack suite over a TraceSource
// ---------------------------------------------------------------------------

/// The targets of one combined attack evaluation.
#[derive(Debug, Clone, Default)]
pub struct AttackTargets {
    /// CIDs to run IDW against.
    pub idw_cids: Vec<Cid>,
    /// Peers to run TNW against.
    pub tnw_peers: Vec<PeerId>,
    /// `(node index, CID)` pairs to probe with TPI.
    pub tpi_probes: Vec<(usize, Cid)>,
}

/// Results of a combined attack evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttackSuiteReport {
    /// IDW observations per target CID (same contents as
    /// [`identify_data_wanters`] per CID).
    pub idw: BTreeMap<Cid, Vec<WanterObservation>>,
    /// TNW profiles per target peer (same contents as [`track_node_wants`]
    /// per peer).
    pub tnw: BTreeMap<PeerId, NodeWantProfile>,
    /// TPI outcomes, in probe order.
    pub tpi: Vec<((usize, Cid), TpiOutcome)>,
}

/// Accumulates IDW and TNW results for many targets in a single scan.
#[derive(Debug, Clone, Default)]
pub struct AttackScan {
    idw: BTreeMap<Cid, Vec<WanterObservation>>,
    tnw: BTreeMap<PeerId, NodeWantProfile>,
}

impl AttackScan {
    /// Creates a scan for the given IDW and TNW targets.
    pub fn new(idw_cids: &[Cid], tnw_peers: &[PeerId]) -> Self {
        Self {
            idw: idw_cids.iter().map(|c| (c.clone(), Vec::new())).collect(),
            tnw: tnw_peers
                .iter()
                .map(|p| (*p, NodeWantProfile::default()))
                .collect(),
        }
    }

    /// Feeds one flagged entry through every trace-driven attack at once.
    pub fn observe(&mut self, entry: &TraceEntry) {
        if !entry.flags.is_primary() || !entry.is_request() {
            return;
        }
        if let Some(observations) = self.idw.get_mut(&entry.cid) {
            observations.push(WanterObservation {
                peer: entry.peer,
                at: entry.timestamp,
            });
        }
        if let Some(profile) = self.tnw.get_mut(&entry.peer) {
            profile
                .wants
                .entry(entry.cid.clone())
                .or_default()
                .push(entry.timestamp);
        }
    }

    /// Finalizes the per-target results (IDW observations sorted exactly as
    /// [`identify_data_wanters`] sorts them).
    pub fn finish(
        mut self,
    ) -> (
        BTreeMap<Cid, Vec<WanterObservation>>,
        BTreeMap<PeerId, NodeWantProfile>,
    ) {
        for observations in self.idw.values_mut() {
            observations.sort_by_key(|o| (o.at, o.peer));
        }
        (self.idw, self.tnw)
    }
}

/// Runs all three privacy attacks in one constant-memory pass over any
/// [`TraceSource`]: the source's merged stream is flagged on the fly and
/// scanned once for every IDW/TNW target simultaneously; TPI probes are
/// evaluated against the live network (they query node caches, not traces).
/// Per-target results are identical to the single-target entry points.
///
/// The scan only ever looks at entries naming a target CID or sent by a
/// target peer, so it asks the source for just those
/// ([`TraceSource::merged_entries_matching`]); they carry the same flags
/// there as in the whole trace (see `flag_entries`).
///
/// TPI probes without a network are an error — an archived-trace analysis
/// must not silently report zero probe outcomes as if none were requested.
pub fn run_attacks_source<T: TraceSource>(
    source: &T,
    config: PreprocessConfig,
    targets: &AttackTargets,
    network: Option<&Network>,
) -> Result<AttackSuiteReport, SegmentError> {
    if network.is_none() && !targets.tpi_probes.is_empty() {
        return Err(SegmentError::InvalidConfig(
            "TPI probes require a live network to query".into(),
        ));
    }
    let mut scan = AttackScan::new(&targets.idw_cids, &targets.tnw_peers);
    let mentioned = RowTargets {
        cids: targets.idw_cids.iter().cloned().collect(),
        peers: targets.tnw_peers.iter().copied().collect(),
    };
    let mut stream = flag_entries(
        source.merged_entries_matching(&mentioned),
        source.monitor_count(),
        config,
    );
    for entry in &mut stream {
        scan.observe(&entry);
    }
    if let Some(error) = stream.take_source_error() {
        return Err(error);
    }
    let (idw, tnw) = scan.finish();
    let tpi = match network {
        Some(network) => targets
            .tpi_probes
            .iter()
            .map(|(node, cid)| {
                (
                    (*node, cid.clone()),
                    test_past_interest(network, *node, cid),
                )
            })
            .collect(),
        None => Vec::new(),
    };
    Ok(AttackSuiteReport { idw, tnw, tpi })
}

// ---------------------------------------------------------------------------
// Gateway probing
// ---------------------------------------------------------------------------

/// One prepared gateway probe (Sec. VI-B1).
#[derive(Debug, Clone)]
pub struct GatewayProbe {
    /// Name of the probed gateway operator.
    pub operator_name: String,
    /// Index of the probed operator in the scenario.
    pub operator: usize,
    /// The unique random-content CID used for this probe.
    pub cid: Cid,
    /// When the HTTP request was issued.
    pub issued_at: SimTime,
}

/// Result of evaluating a probe against the collected trace.
#[derive(Debug, Clone)]
pub struct GatewayProbeResult {
    /// The probe this result belongs to.
    pub probe: GatewayProbe,
    /// Node IDs that requested the probe CID — the IPFS side of the gateway.
    pub discovered_peers: Vec<PeerId>,
}

/// Orchestrates gateway probing against a [`Network`] before it runs.
#[derive(Debug, Default)]
pub struct GatewayProber {
    probes: Vec<GatewayProbe>,
}

impl GatewayProber {
    /// Creates an empty prober.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares one probe: generates a unique block of random data, registers
    /// monitor `monitor` as its only DHT provider, and schedules an HTTP
    /// request for it through operator `operator` at time `at`.
    pub fn prepare_probe(
        &mut self,
        network: &mut Network,
        monitor: usize,
        operator: usize,
        at: SimTime,
        rng: &mut SimRng,
    ) -> GatewayProbe {
        // A unique random block → a CID nobody else will ever request.
        let mut payload = vec![0u8; 64];
        rng.fill_bytes(&mut payload);
        let block = Block::new(Multicodec::Raw, payload);
        let cid = block.cid().clone();
        let dag = BuiltDag {
            root: cid.clone(),
            total_size: block.logical_size(),
            blocks: vec![block],
        };
        let content = network.add_content(ContentSpec {
            dag,
            initial_providers: Vec::new(),
        });
        network.register_monitor_provider(monitor, content);
        network.schedule_gateway_request(GatewayRequestEvent {
            at,
            operator,
            content,
        });
        let probe = GatewayProbe {
            operator_name: network.scenario().operators[operator].name.clone(),
            operator,
            cid,
            issued_at: at,
        };
        self.probes.push(probe.clone());
        probe
    }

    /// Prepares one probe per operator of the scenario, spaced `spacing_secs`
    /// apart starting at `start`.
    pub fn probe_all_operators(
        &mut self,
        network: &mut Network,
        monitor: usize,
        start: SimTime,
        spacing_secs: u64,
        rng: &mut SimRng,
    ) -> usize {
        let operators = network.scenario().operators.len();
        for op in 0..operators {
            let at = SimTime::from_millis(start.as_millis() + op as u64 * spacing_secs * 1000);
            self.prepare_probe(network, monitor, op, at, rng);
        }
        operators
    }

    /// The prepared probes.
    pub fn probes(&self) -> &[GatewayProbe] {
        &self.probes
    }

    /// Evaluates every probe against a materialized trace in one pass: any
    /// peer that requested a probe CID is (part of) the gateway's IPFS side.
    /// Probe CIDs are unique random blocks, so raw (unflagged) entries are
    /// the right input.
    pub fn evaluate(&self, trace: &UnifiedTrace) -> Vec<GatewayProbeResult> {
        let mut by_cid: HashMap<&Cid, Vec<usize>> = HashMap::new();
        for (index, probe) in self.probes.iter().enumerate() {
            by_cid.entry(&probe.cid).or_default().push(index);
        }
        let mut discovered: Vec<HashSet<PeerId>> = vec![HashSet::new(); self.probes.len()];
        for e in &trace.entries {
            if !e.is_request() {
                continue;
            }
            if let Some(indexes) = by_cid.get(&e.cid) {
                for &index in indexes {
                    discovered[index].insert(e.peer);
                }
            }
        }
        self.probes
            .iter()
            .zip(discovered)
            .map(|(probe, peers)| {
                let mut discovered: Vec<PeerId> = peers.into_iter().collect();
                discovered.sort();
                GatewayProbeResult {
                    probe: probe.clone(),
                    discovered_peers: discovered,
                }
            })
            .collect()
    }
}

/// Cross-references probe results with the monitors' peer lists to find
/// operators running multiple nodes (the paper discovered 93 gateway node IDs
/// this way, 13 behind a single operator).
pub fn gateway_nodes_by_operator(
    results: &[GatewayProbeResult],
) -> BTreeMap<String, HashSet<PeerId>> {
    let mut map: BTreeMap<String, HashSet<PeerId>> = BTreeMap::new();
    for result in results {
        map.entry(result.probe.operator_name.clone())
            .or_default()
            .extend(result.discovered_peers.iter().copied());
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EntryFlags, TraceEntry};
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_types::{Country, Multiaddr, Transport};

    fn entry(secs: u64, peer: u64, cid: u8, rtype: RequestType) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_secs(secs),
            peer: PeerId::derived(11, peer),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Us),
            request_type: rtype,
            cid: Cid::new_v1(Multicodec::Raw, &[cid]),
            monitor: 0,
            flags: EntryFlags::default(),
        }
    }

    #[test]
    fn idw_lists_wanters_of_a_cid() {
        let trace = UnifiedTrace {
            entries: vec![
                entry(10, 1, 7, RequestType::WantHave),
                entry(20, 2, 7, RequestType::WantBlock),
                entry(30, 3, 8, RequestType::WantHave),
                entry(40, 1, 7, RequestType::Cancel),
            ],
        };
        let target = Cid::new_v1(Multicodec::Raw, &[7]);
        let wanters = identify_data_wanters(&trace, &target);
        assert_eq!(wanters.len(), 2);
        assert_eq!(wanters[0].peer, PeerId::derived(11, 1));
        assert_eq!(wanters[1].peer, PeerId::derived(11, 2));
    }

    #[test]
    fn tnw_profiles_a_target_node() {
        let trace = UnifiedTrace {
            entries: vec![
                entry(10, 1, 1, RequestType::WantHave),
                entry(20, 1, 2, RequestType::WantHave),
                entry(25, 1, 2, RequestType::WantHave),
                entry(30, 2, 3, RequestType::WantHave),
            ],
        };
        let profile = track_node_wants(&trace, &PeerId::derived(11, 1));
        assert_eq!(profile.distinct_cids(), 2);
        assert_eq!(profile.total_requests(), 3);
        assert!(profile
            .wants
            .contains_key(&Cid::new_v1(Multicodec::Raw, &[2])));
        // The other node's requests are not attributed to the target.
        assert!(!profile
            .wants
            .contains_key(&Cid::new_v1(Multicodec::Raw, &[3])));
    }

    #[test]
    fn flagged_repeats_do_not_inflate_profiles() {
        let mut repeat = entry(40, 1, 1, RequestType::WantHave);
        repeat.flags.rebroadcast = true;
        let trace = UnifiedTrace {
            entries: vec![entry(10, 1, 1, RequestType::WantHave), repeat],
        };
        let profile = track_node_wants(&trace, &PeerId::derived(11, 1));
        assert_eq!(profile.total_requests(), 1);
        let wanters = identify_data_wanters(&trace, &Cid::new_v1(Multicodec::Raw, &[1]));
        assert_eq!(wanters.len(), 1);
    }

    #[test]
    fn gateway_nodes_by_operator_merges_probe_results() {
        let probe = |name: &str, cid: u8| GatewayProbe {
            operator_name: name.into(),
            operator: 0,
            cid: Cid::new_v1(Multicodec::Raw, &[cid]),
            issued_at: SimTime::ZERO,
        };
        let results = vec![
            GatewayProbeResult {
                probe: probe("gw-a", 1),
                discovered_peers: vec![PeerId::derived(11, 1), PeerId::derived(11, 2)],
            },
            GatewayProbeResult {
                probe: probe("gw-a", 2),
                discovered_peers: vec![PeerId::derived(11, 2), PeerId::derived(11, 3)],
            },
            GatewayProbeResult {
                probe: probe("gw-b", 3),
                discovered_peers: vec![],
            },
        ];
        let map = gateway_nodes_by_operator(&results);
        assert_eq!(map["gw-a"].len(), 3);
        assert!(map["gw-b"].is_empty());
    }
}
