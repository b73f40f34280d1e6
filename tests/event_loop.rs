//! Integration tests for the simulator event loop: lazy event sourcing on
//! the timer wheel, pinned bit for bit to the seed's fully materialized
//! binary-heap execution path through golden digests.

use ipfs_monitoring::blockstore::build_file;
use ipfs_monitoring::core::GatewayProber;
use ipfs_monitoring::kad::{Crawler, DhtView};
use ipfs_monitoring::node::{
    BitswapObservation, ContentSpec, MonitorSink, Network, RecordingSink, RequestEvent,
};
use ipfs_monitoring::simnet::rng::SimRng;
use ipfs_monitoring::simnet::time::{SimDuration, SimTime};
use ipfs_monitoring::simnet::ChurnModel;
use ipfs_monitoring::types::{Multiaddr, PeerId};
use ipfs_monitoring::workload::{build_scenario_lazy, drain_workload_sources, ScenarioConfig};
use std::hash::{Hash, Hasher};

mod common;
use common::{scenario_config, simulated_network};

/// FNV-1a over the `Hash` byte stream of everything a sink is fed, in feed
/// order. std's `DefaultHasher` algorithm is unspecified; a committed
/// constant needs a fixed one.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Order-sensitive digest of the monitor-visible trace.
struct DigestSink(Fnv);

impl DigestSink {
    fn new() -> Self {
        Self(Fnv(0xcbf2_9ce4_8422_2325))
    }
}

impl MonitorSink for DigestSink {
    fn record(&mut self, monitor: usize, observation: BitswapObservation) {
        (monitor, observation).hash(&mut self.0);
    }

    fn peer_connected(&mut self, monitor: usize, peer: PeerId, address: Multiaddr, at: SimTime) {
        (0u8, monitor, peer, address, at).hash(&mut self.0);
    }

    fn peer_disconnected(&mut self, monitor: usize, peer: PeerId, at: SimTime) {
        (1u8, monitor, peer, at).hash(&mut self.0);
    }
}

/// The three bridge scenarios, all on `scenario_config(seed, 150)`.
#[derive(Debug, Clone, Copy)]
enum Bridge {
    /// Seed 3, default churn.
    Plain,
    /// Seed 17, `ChurnModel::always_online()`.
    AlwaysOnline,
    /// Seed 58 with the attack tooling applied to the built network: a probe
    /// per gateway operator, one runtime-added content item provided by
    /// monitor 1, and two injected requests (one for the new item, one in
    /// the past of the first, exercising the runtime queue's ordering).
    Probed,
}

impl Bridge {
    fn config(self) -> ScenarioConfig {
        match self {
            Bridge::Plain => scenario_config(3, 150),
            Bridge::AlwaysOnline => {
                let mut config = scenario_config(17, 150);
                config.population.churn = ChurnModel::always_online();
                config
            }
            Bridge::Probed => scenario_config(58, 150),
        }
    }

    fn prepare(self, network: &mut Network) {
        if !matches!(self, Bridge::Probed) {
            return;
        }
        GatewayProber::new().probe_all_operators(
            network,
            0,
            SimTime::ZERO + SimDuration::from_hours(1),
            600,
            &mut SimRng::new(9),
        );
        let content = network.add_content(ContentSpec {
            dag: build_file(7_777, 100, 1024, 4),
            initial_providers: vec![],
        });
        network.register_monitor_provider(1, content);
        network.schedule_request(RequestEvent {
            at: SimTime::ZERO + SimDuration::from_hours(12),
            node: 11,
            content,
        });
        network.schedule_request(RequestEvent {
            at: SimTime::ZERO + SimDuration::from_secs(3_600),
            node: 7,
            content: 0,
        });
    }
}

/// What a bridge run is pinned on.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    digest: u64,
    events_processed: u64,
    counters: String,
}

fn golden_of(mut network: Network) -> Golden {
    let mut sink = DigestSink::new();
    let report = network.run(&mut sink);
    Golden {
        digest: sink.0.finish(),
        events_processed: report.events_processed,
        counters: report
            .counters
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(" "),
    }
}

/// Recorded at commit `50ddedf` — the last with the seed's execution path in
/// the tree — by running each [`Bridge`] scenario under that commit's
/// seed-baseline options: every initial event materialized into the
/// binary-heap scheduler before the run.
fn seed_baseline_golden(case: Bridge) -> Golden {
    let (digest, events_processed, counters) = match case {
        Bridge::Plain => (
            3379958705083995122,
            9586,
            "broadcasts=722 cancels=320 gateway_cache_hits=88 gateway_cache_misses=236 \
             gateway_cache_revalidations=13 gateway_http_failed=12 gateway_http_requests=349 \
             monitor_entries_recorded=12178 node_offline_events=175 node_online_events=175 \
             rebroadcasts=7580 requests_already_pending=11 requests_cache_hit=94 \
             requests_total=827 resolved_via_neighbour=320 wants_timed_out=379",
        ),
        Bridge::AlwaysOnline => (
            15102900194178394260,
            5965,
            "broadcasts=1252 cancels=1140 gateway_cache_hits=88 gateway_cache_misses=240 \
             gateway_cache_revalidations=15 gateway_http_failed=31 gateway_http_requests=374 \
             monitor_entries_recorded=5786 node_offline_events=166 node_online_events=166 \
             rebroadcasts=2102 requests_already_pending=2 requests_cache_hit=894 \
             requests_total=2148 resolved_via_neighbour=1140 wants_timed_out=109",
        ),
        Bridge::Probed => (
            15908590564707354795,
            7801,
            "broadcasts=680 cancels=366 gateway_cache_hits=98 gateway_cache_misses=233 \
             gateway_cache_revalidations=14 gateway_http_failed=22 gateway_http_requests=367 \
             monitor_entries_recorded=9511 node_offline_events=182 node_online_events=182 \
             rebroadcasts=5885 requests_already_pending=12 requests_cache_hit=53 \
             requests_total=745 requests_while_offline=1 resolved_via_monitor_provider=2 \
             resolved_via_neighbour=364 wants_timed_out=299",
        ),
    };
    Golden {
        digest,
        events_processed,
        counters: counters.to_string(),
    }
}

/// (a) The bridge across the removal of the seed's execution path: the one
/// event loop, fed from generated sources, reproduces the seed baseline's
/// trace digest, event count and counters.
#[test]
fn execution_modes_agree_across_seeds() {
    for case in [Bridge::Plain, Bridge::AlwaysOnline, Bridge::Probed] {
        let mut network = simulated_network(&case.config());
        case.prepare(&mut network);
        assert_eq!(golden_of(network), seed_baseline_golden(case), "{case:?}");
    }
}

/// Order-sensitive FNV-1a digest of `value`'s `Hash` byte stream.
fn digest_of(value: impl Hash) -> u64 {
    let mut hasher = Fnv(0xcbf2_9ce4_8422_2325);
    value.hash(&mut hasher);
    hasher.finish()
}

/// The TPI ground truth after the `Probed` run: whether each node holds the
/// root block of each content item (runtime-added probes included), node
/// by node. Recorded at commit `abe38fc`, whose block stores and gateway
/// caches were keyed by CID.
#[test]
fn block_store_contents_are_pinned() {
    let case = Bridge::Probed;
    let mut network = simulated_network(&case.config());
    case.prepare(&mut network);
    network.run(&mut DigestSink::new());
    let contents = network.scenario().content.len();
    let held: Vec<Vec<bool>> = (0..network.node_count())
        .map(|node| {
            (0..contents)
                .map(|content| network.node_has_block(node, network.content_root(content)))
                .collect()
        })
        .collect();
    let total: usize = held.iter().flatten().filter(|&&h| h).count();
    assert_eq!((total, digest_of(&held)), (366, 13033094212042011073));
}

/// What a §V-C crawl sees at a fixed instant: the bootstrap peers, every
/// node's answer to a bucket query, and the crawl's discovered, responded
/// and unresponsive sets (sorted) with its query count. Recorded at commit
/// `abe38fc`, which built every routing table with the network.
#[test]
fn dht_crawl_is_pinned() {
    let network = simulated_network(&Bridge::Plain.config());
    let at = SimTime::ZERO + SimDuration::from_hours(3);
    let view = network.dht_view_at(at);
    let bootstrap = network.online_server_peers(at, 5);
    let buckets: Vec<Option<Vec<PeerId>>> = (0..network.node_count())
        .map(|node| view.bucket_entries(&network.peer_id(node)))
        .collect();
    let crawl = Crawler::new().crawl(&view, &bootstrap);
    let sorted = |set: &std::collections::HashSet<PeerId>| {
        let mut peers: Vec<PeerId> = set.iter().copied().collect();
        peers.sort_unstable();
        peers
    };
    let (discovered, responded, unresponsive) = (
        sorted(&crawl.discovered),
        sorted(&crawl.responded),
        sorted(&crawl.unresponsive),
    );
    assert_eq!(
        (
            discovered.len(),
            responded.len(),
            crawl.queries,
            digest_of((&bootstrap, &buckets)),
            digest_of((&discovered, &responded, &unresponsive)),
        ),
        (87, 41, 87, 15684793188588168409, 2371342512416401781)
    );
}

/// The pending set stays proportional to live sources, not to the number of
/// events the run will deliver. Every node is two live sources (churn and
/// its request process), so the horizon must be long enough for its events
/// to outnumber them: at 6 h the 250 nodes' 1 782 initial events are under
/// four times the peak of 494, at 24 h 5 920 are over eleven times the peak
/// of 533, and at 48 h the peak is 535.
#[test]
fn lazy_pending_tracks_concurrency_not_horizon() {
    let mut config = scenario_config(33, 250);
    config.horizon = SimDuration::from_hours(24);
    let (scenario, sources) = build_scenario_lazy(&config);
    // What a scheduler would hold with every initial event queued up front.
    let (requests, gateway_requests) = drain_workload_sources(build_scenario_lazy(&config).1);
    let initial_events = scenario
        .nodes
        .iter()
        .map(|n| 2 * n.schedule.sessions.len())
        .sum::<usize>()
        + requests.len()
        + gateway_requests.len();
    let lazy = Network::with_sources(scenario, sources)
        .run(&mut RecordingSink::new(config.monitors.len()));
    assert!(
        initial_events > lazy.peak_pending * 4,
        "{initial_events} initial events vs lazy peak pending {}",
        lazy.peak_pending
    );
    assert!(
        (lazy.peak_pending as u64) < lazy.events_processed / 10,
        "lazy peak pending {} should be far below {} events",
        lazy.peak_pending,
        lazy.events_processed
    );
}

/// (b) Mid-run request injection — the gateway-probing attack tooling —
/// lands probes at the same instants and discovers the same peers as on the
/// seed path (constants recorded at commit `50ddedf` under its
/// seed-baseline options).
#[test]
fn gateway_probing_injection_matches_seed_path_in_lazy_mode() {
    let mut network = simulated_network(&scenario_config(44, 150));
    let mut prober = GatewayProber::new();
    prober.probe_all_operators(
        &mut network,
        0,
        SimTime::ZERO + SimDuration::from_hours(1),
        600,
        &mut SimRng::new(9),
    );
    let mut sink = RecordingSink::new(network.monitor_count());
    let report = network.run(&mut sink);
    let flat: Vec<_> = sink.observations.concat();
    let probe_hits: Vec<_> = prober
        .probes()
        .iter()
        .map(|p| flat.iter().filter(|o| o.cid == p.cid).count())
        .collect();
    assert_eq!(report.events_processed, 8991);
    assert_eq!(flat.len(), 8177);
    assert_eq!(probe_hits, [3, 5, 0]);
}
