//! The network simulator: executes a [`Scenario`] and feeds monitors.
//!
//! # Simulation granularity
//!
//! The simulator operates at **request granularity**, not per-packet
//! granularity. For every user request it reproduces exactly the behaviour
//! that is *observable by passive monitors* and that drives the paper's
//! analyses:
//!
//! * the Bitswap want broadcast (typed `WANT_HAVE` or `WANT_BLOCK` according
//!   to the requester's client version) arriving at every monitor the
//!   requester is connected to, with realistic per-monitor latency offsets;
//! * 30 s re-broadcasts while the want stays unresolved;
//! * `CANCEL` entries once the block is obtained;
//! * caching (a repeated request for cached content generates no traffic) and
//!   re-providing (a successful downloader becomes a provider);
//! * gateway HTTP caches in front of gateway nodes (hits generate no Bitswap
//!   traffic, revalidations and misses do);
//! * monitors registering as DHT providers for probe CIDs and subsequently
//!   receiving targeted `WANT_BLOCK`s (the gateway-probing attack).
//!
//! What it deliberately does **not** do is deliver every broadcast to every
//! regular peer as an individual event: whether a neighbour or DHT provider
//! can serve a block is decided with a connectivity model instead. This keeps
//! multi-thousand-node, multi-week runs tractable while preserving the
//! monitor-visible message stream, which is all that passive monitoring
//! records.
//!
//! # Event loop
//!
//! Churn schedules and the request workload feed the run through
//! per-process cursors ([`ScheduleCursor`] per node, plus the
//! [`EventSource`]-backed processes registered via
//! [`Network::with_sources`]), merged on demand by a small head-heap. Only
//! *runtime* events (re-broadcasts, retrieval completions, attack
//! injections) live in the scheduler — a hierarchical timer wheel — so the
//! pending set scales with concurrency, not with `population × horizon`.
//! Timestamp ties between sources are broken by source rank (churn in node
//! order, then sources in the order given), and source events at an instant
//! precede runtime events at the same instant.
//! That is the FIFO order a scheduler delivers when every source is drained
//! into it, in rank order, before the run; this module's tests keep exactly
//! that drained run as the reference the loop is compared against.
//!
//! # Structure: scenario core, runtime state, observation half
//!
//! ```text
//!  ScenarioCore           scenario, identities, routing tables (on first
//!  (core.rs, immutable)   crawl), latency table, observation RNG base
//!          │
//!          ▼
//!  runtime state          online flags, block stores, gateway caches,
//!  (state.rs, mutable)    content keys, provider index with online counts,
//!          │               pending-want slab, counters, runtime queue,
//!          │               decision RNG stream
//!          ▼
//!  observation half       monitor-link rows + per-node observation RNG
//!  (observe.rs)           streams → sink records
//! ```
//!
//! Every handler runs its *state half* and emits `ObsWork` items for its
//! *observation half*, which the loop applies to the sink after each event
//! (see the `observe` module docs for why the two are kept apart).

mod core;
mod observe;
mod state;

use self::core::ScenarioCore;
use self::observe::{ObsWork, Observer};
use self::state::{ContentKeys, NodeState, PendingSlab, ProviderIndex};
use crate::counters::SimCounter;
use crate::gateway::{CacheOutcome, GatewayCache, GatewayCacheConfig};
use crate::spec::{ContentSpec, GatewayRequestEvent, RequestEvent, Scenario, WorkloadEvent};
use ipfs_mon_bitswap::{ProtocolVersion, RequestType};
use ipfs_mon_blockstore::Blockstore;
use ipfs_mon_kad::DhtView;
use ipfs_mon_obs as obs;
use ipfs_mon_simnet::churn::{ChurnEvent, ScheduleCursor};
use ipfs_mon_simnet::metrics::{Counters, TypedCounters};
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_simnet::scheduler::Scheduler;
use ipfs_mon_simnet::source::EventSource;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_types::{Cid, Country, Multiaddr, PeerId};
use rand::Rng;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::sync::OnceLock;

/// One Bitswap wantlist entry as received by a monitor: the raw material of
/// the paper's `(timestamp, node_ID, address, request_type, CID)` tuples.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitswapObservation {
    /// Arrival time at the monitor.
    pub timestamp: SimTime,
    /// Peer ID of the sender.
    pub peer: PeerId,
    /// Transport address of the sender.
    pub address: Multiaddr,
    /// Entry type (`WANT_HAVE`, `WANT_BLOCK` or `CANCEL`).
    pub request_type: RequestType,
    /// The CID the entry refers to.
    pub cid: Cid,
}

/// Receiver of everything the monitoring nodes observe. Implemented by the
/// trace collector in `ipfs-mon-core`.
pub trait MonitorSink {
    /// Called for every wantlist entry received by monitor `monitor`.
    fn record(&mut self, monitor: usize, observation: BitswapObservation);

    /// Called when a peer connects to monitor `monitor`.
    fn peer_connected(&mut self, monitor: usize, peer: PeerId, address: Multiaddr, at: SimTime) {
        let _ = (monitor, peer, address, at);
    }

    /// Called when a peer disconnects from monitor `monitor`.
    fn peer_disconnected(&mut self, monitor: usize, peer: PeerId, at: SimTime) {
        let _ = (monitor, peer, at);
    }
}

/// One recorded connection event: `(peer, address, connect time, disconnect
/// time if any)`.
pub type ConnectionEvent = (PeerId, Multiaddr, SimTime, Option<SimTime>);

/// A [`MonitorSink`] that keeps everything in memory. Useful for tests and
/// small experiments.
#[derive(Debug, Default, Clone)]
pub struct RecordingSink {
    /// Observations per monitor index.
    pub observations: Vec<Vec<BitswapObservation>>,
    /// Connection events per monitor index.
    pub connections: Vec<Vec<ConnectionEvent>>,
}

impl RecordingSink {
    /// Creates a sink for `monitor_count` monitors.
    pub fn new(monitor_count: usize) -> Self {
        Self {
            observations: vec![Vec::new(); monitor_count],
            connections: vec![Vec::new(); monitor_count],
        }
    }

    /// Total number of recorded observations across monitors.
    pub fn total_observations(&self) -> usize {
        self.observations.iter().map(Vec::len).sum()
    }
}

impl MonitorSink for RecordingSink {
    fn record(&mut self, monitor: usize, observation: BitswapObservation) {
        self.observations[monitor].push(observation);
    }

    fn peer_connected(&mut self, monitor: usize, peer: PeerId, address: Multiaddr, at: SimTime) {
        self.connections[monitor].push((peer, address, at, None));
    }

    fn peer_disconnected(&mut self, monitor: usize, peer: PeerId, at: SimTime) {
        if let Some(entry) = self.connections[monitor]
            .iter_mut()
            .rev()
            .find(|(p, _, _, end)| *p == peer && end.is_none())
        {
            entry.3 = Some(at);
        }
    }
}

/// How a retrieval was (or was not) resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolution {
    Neighbour,
    Dht,
    MonitorProvider(usize),
    Unresolved,
}

/// Events driving the simulation.
#[derive(Debug, Clone, Copy)]
enum NetEvent {
    NodeOnline(usize),
    NodeOffline(usize),
    UserRequest {
        node: usize,
        content: usize,
    },
    GatewayHttp {
        operator: usize,
        content: usize,
    },
    Rebroadcast {
        node: usize,
        content: usize,
    },
    RetrievalComplete {
        node: usize,
        content: usize,
        resolution: Resolution,
    },
}

/// An external, boxed workload source (see [`Network::with_sources`]).
/// `Send`, so a [`Network`] holding such sources can move to another thread.
pub type DynWorkloadSource = Box<dyn EventSource<Event = WorkloadEvent> + Send>;

/// One lazy initial-event process of a run. Ranks (vector order) break
/// timestamp ties: churn sources come first in node order, then external
/// sources in the order given.
enum SourceState {
    /// Churn transitions of one node, read straight off its schedule.
    Churn { node: usize, cursor: ScheduleCursor },
    /// An external pull-based process (lazy workload generation).
    External(DynWorkloadSource),
}

/// Summary of a completed run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Event and outcome counters.
    pub counters: Counters,
    /// Number of simulation events processed.
    pub events_processed: u64,
    /// Number of nodes that were online at least once.
    pub nodes_ever_online: usize,
    /// Peak number of pending events observed during the run: scheduled
    /// runtime events plus one head per live event source. Tracks
    /// concurrency (O(active sources)), not `population × horizon`.
    pub peak_pending: usize,
}

/// The executable network simulation built from a [`Scenario`].
pub struct Network {
    /// Scenario-immutable state (see `core.rs`).
    core: ScenarioCore,
    nodes: Vec<NodeState>,
    /// Providers per content index (flat sorted node lists, online counts,
    /// monitor masks).
    providers: ProviderIndex,
    /// Block-store and gateway-cache key of each content item.
    keys: ContentKeys,
    /// Outstanding wants of all nodes, in one slab.
    pending: PendingSlab,
    /// Runtime events: re-broadcasts, retrieval completions, injections.
    queue: Scheduler<NetEvent>,
    /// Lazy initial-event processes, merged through `heads`.
    sources: Vec<SourceState>,
    /// Next event time per live source, keyed `(time, rank)` — min-heap via
    /// `Reverse`.
    heads: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// The decision stream: resolution draws and fetch delays only.
    rng: SimRng,
    counters: TypedCounters<SimCounter>,
    ever_online: Vec<bool>,
    ever_online_count: usize,
    /// Round-robin cursor per gateway operator.
    operator_cursor: Vec<usize>,
    online_count: usize,
    peak_pending: usize,
    /// Observation work emitted by the handlers of the current event.
    pending_obs: Vec<ObsWork>,
    /// Monitor links and observation RNG streams (see `observe.rs`).
    observer: Observer,
}

impl Network {
    /// Builds the runtime state for a scenario with no request workload:
    /// churn only, plus whatever is injected with
    /// [`Network::schedule_request`] and
    /// [`Network::schedule_gateway_request`].
    ///
    /// # Panics
    ///
    /// Panics if [`Scenario::validate`] reports problems.
    pub fn new(scenario: Scenario) -> Self {
        Self::with_sources(scenario, Vec::new())
    }

    /// Builds a network whose requests come from `external`, each source
    /// pulled one event at a time during [`Network::run`]: memory stays
    /// proportional to the population, not the horizon. Sources rank after
    /// churn for timestamp tie-breaking, in the order given.
    ///
    /// # Panics
    ///
    /// Panics if [`Scenario::validate`] reports problems.
    pub fn with_sources(scenario: Scenario, external: Vec<DynWorkloadSource>) -> Self {
        let problems = scenario.validate();
        assert!(
            problems.is_empty(),
            "scenario is inconsistent: {problems:?}"
        );
        let root = SimRng::new(scenario.seed);
        let mut id_rng = root.derive("node-identities");

        // Node identities and state.
        let mut nodes = Vec::with_capacity(scenario.nodes.len());
        let mut node_peers = Vec::with_capacity(scenario.nodes.len());
        let mut node_addrs = Vec::with_capacity(scenario.nodes.len());
        let mut peer_index = HashMap::new();
        for (i, spec) in scenario.nodes.iter().enumerate() {
            let peer_id = PeerId::derived(scenario.seed, i as u64);
            let address = Multiaddr::random_in_country(&mut id_rng, spec.country);
            peer_index.insert(peer_id, i);
            node_peers.push(peer_id);
            node_addrs.push(address);
            nodes.push(NodeState {
                online: false,
                blockstore: Blockstore::with_capacity(spec.config.cache_capacity),
                gateway_cache: if spec.config.role.is_gateway() {
                    Some(GatewayCache::new(GatewayCacheConfig::default()))
                } else {
                    None
                },
            });
        }

        let monitor_ids: Vec<PeerId> = (0..scenario.monitors.len())
            .map(|i| PeerId::derived(scenario.seed, 1_000_000 + i as u64))
            .collect();
        let monitor_addrs: Vec<Multiaddr> = scenario
            .monitors
            .iter()
            .map(|m| Multiaddr::random_in_country(&mut id_rng, m.country))
            .collect();

        // Initial providers (every node starts offline) and content keys.
        let mut providers = ProviderIndex::new(nodes.len(), monitor_ids.len());
        let mut keys = ContentKeys::default();
        for c in &scenario.content {
            providers.push_content(&c.initial_providers, |_| false);
            keys.push(&c.dag.root);
        }

        let mut sources = Vec::new();
        for (i, spec) in scenario.nodes.iter().enumerate() {
            if !spec.schedule.sessions.is_empty() {
                sources.push(SourceState::Churn {
                    node: i,
                    cursor: ScheduleCursor::new(),
                });
            }
        }
        sources.extend(external.into_iter().map(SourceState::External));

        let operator_cursor = vec![0; scenario.operators.len()];
        let ever_online = vec![false; nodes.len()];
        let pending = PendingSlab::new(nodes.len());
        // Latency table and observation base are derived before the scenario
        // moves into the core.
        let latency = scenario.params.latency.table();
        let obs_base = root.derive("node-obs");
        let core = ScenarioCore {
            scenario,
            node_peers,
            node_addrs,
            monitor_ids,
            monitor_addrs,
            routing_tables: OnceLock::new(),
            peer_index,
            latency,
            obs_base,
        };
        let observer = Observer::new(nodes.len(), core.monitor_count());
        let mut network = Self {
            core,
            nodes,
            providers,
            keys,
            pending,
            queue: Scheduler::new(),
            sources,
            heads: BinaryHeap::new(),
            rng: root.derive("runtime"),
            counters: TypedCounters::new(),
            ever_online,
            ever_online_count: 0,
            operator_cursor,
            online_count: 0,
            peak_pending: 0,
            pending_obs: Vec::new(),
            observer,
        };
        network.heads = (0..network.sources.len())
            .filter_map(|rank| {
                source_state_peek(&network.sources[rank], &network.core.scenario)
                    .map(|t| Reverse((t, rank as u32)))
            })
            .collect();
        network
    }

    // ------------------------------------------------------------------
    // Accessors used by analyses, attacks and experiments.
    // ------------------------------------------------------------------

    /// The scenario this network was built from.
    pub fn scenario(&self) -> &Scenario {
        &self.core.scenario
    }

    /// Number of (non-monitor) nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of monitors.
    pub fn monitor_count(&self) -> usize {
        self.core.monitor_count()
    }

    /// Peer ID of node `index`.
    pub fn peer_id(&self, index: usize) -> PeerId {
        self.core.node_peers[index]
    }

    /// Peer ID of monitor `index`.
    pub fn monitor_peer_id(&self, index: usize) -> PeerId {
        self.core.monitor_ids[index]
    }

    /// Address of monitor `index`.
    pub fn monitor_address(&self, index: usize) -> Multiaddr {
        self.core.monitor_addrs[index]
    }

    /// Address of node `index`.
    pub fn address(&self, index: usize) -> Multiaddr {
        self.core.node_addrs[index]
    }

    /// Country of node `index`.
    pub fn country(&self, index: usize) -> Country {
        self.core.scenario.nodes[index].country
    }

    /// Node index for a peer ID, if it belongs to a simulated node.
    pub fn node_of_peer(&self, peer: &PeerId) -> Option<usize> {
        self.core.peer_index.get(peer).copied()
    }

    /// Root CID of content item `index`.
    pub fn content_root(&self, index: usize) -> &Cid {
        self.core.content_root(index)
    }

    /// Returns true if node `index` currently holds the root block of the
    /// given CID in its block store. This is exactly the signal the TPI
    /// ("Testing for Past Interests") attack extracts by sending a probe
    /// request to the target.
    pub fn node_has_block(&self, index: usize, cid: &Cid) -> bool {
        self.keys
            .of_root(cid)
            .is_some_and(|key| self.nodes[index].blockstore.contains(key))
    }

    /// Peer IDs of all nodes run by gateway operators (ground truth for the
    /// gateway-probing evaluation).
    pub fn gateway_ground_truth(&self) -> HashMap<String, Vec<PeerId>> {
        self.core
            .scenario
            .operators
            .iter()
            .map(|op| {
                (
                    op.name.clone(),
                    op.node_indices
                        .iter()
                        .map(|&i| self.core.node_peers[i])
                        .collect(),
                )
            })
            .collect()
    }

    /// Adds a new content item at runtime (used by probing attacks that
    /// generate fresh random blocks). Returns its content index.
    pub fn add_content(&mut self, spec: ContentSpec) -> usize {
        let nodes = &self.nodes;
        self.providers
            .push_content(&spec.initial_providers, |i| nodes[i].online);
        self.pending.ensure_nodes(self.nodes.len());
        let index = self.core.scenario.content.len();
        self.keys.push(&spec.dag.root);
        self.core.scenario.content.push(spec);
        index
    }

    /// Registers monitor `monitor` as a DHT provider for content `content`
    /// (step one of the gateway-probing methodology).
    pub fn register_monitor_provider(&mut self, monitor: usize, content: usize) {
        self.providers.insert_monitor(content, monitor);
    }

    /// Schedules an additional user request (attack tooling). It goes through
    /// the runtime queue, so at its instant it follows every source event.
    pub fn schedule_request(&mut self, request: RequestEvent) {
        self.queue.schedule_at(
            request.at,
            NetEvent::UserRequest {
                node: request.node,
                content: request.content,
            },
        );
    }

    /// Schedules an additional gateway HTTP request.
    pub fn schedule_gateway_request(&mut self, request: GatewayRequestEvent) {
        self.queue.schedule_at(
            request.at,
            NetEvent::GatewayHttp {
                operator: request.operator,
                content: request.content,
            },
        );
    }

    /// Peer IDs of online DHT servers, usable as crawl bootstrap peers.
    /// Every server has a routing table, so this needs none built.
    pub fn online_server_peers(&self, at: SimTime, limit: usize) -> Vec<PeerId> {
        self.core
            .scenario
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| s.config.dht_mode.is_server() && s.schedule.online_at(at))
            .map(|(i, _)| self.core.node_peers[i])
            .take(limit)
            .collect()
    }

    /// A [`DhtView`] of the network frozen at time `at`, for crawling.
    pub fn dht_view_at(&self, at: SimTime) -> NetworkDhtView<'_> {
        NetworkDhtView { network: self, at }
    }

    // ------------------------------------------------------------------
    // Lazy source plumbing.
    // ------------------------------------------------------------------

    /// Takes the event of the source at the top of the head-heap, refreshes
    /// the heap entry in place, and syncs the queue clock.
    fn take_source_head(&mut self) -> (SimTime, NetEvent) {
        let mut head = self.heads.peek_mut().expect("head checked by caller");
        let Reverse((t, rank)) = *head;
        let source = &mut self.sources[rank as usize];
        let scenario = &self.core.scenario;
        let (at, event) = source_state_pop(source, scenario)
            .expect("a head entry implies a pending source event");
        debug_assert_eq!(at, t, "head time must match the source peek");
        match source_state_peek(source, scenario) {
            Some(next) => {
                debug_assert!(next >= at, "sources must yield nondecreasing times");
                *head = Reverse((next, rank));
            }
            None => {
                PeekMut::pop(head);
            }
        }
        // Keep the queue clock in step so past-scheduling (attack tooling)
        // clamps to the time of the latest event, whichever side it came from.
        self.queue.advance_to(at);
        (at, event)
    }

    // ------------------------------------------------------------------
    // Execution.
    // ------------------------------------------------------------------

    /// Applies the observation work of the event just handled to the sink.
    fn drain_obs<S: MonitorSink>(&mut self, sink: &mut S) {
        for work in self.pending_obs.drain(..) {
            self.observer
                .execute(&self.core, work, &mut self.counters, sink);
        }
    }

    /// Runs the simulation to completion, feeding `sink` with everything the
    /// monitors observe.
    pub fn run<S: MonitorSink>(&mut self, sink: &mut S) -> RunReport {
        let horizon_end = SimTime::ZERO + self.core.scenario.horizon;
        let mut events = 0u64;
        // Obs: batched event counter (one local add per event), pending-set
        // gauge refreshed every 4096 events, handler-dispatch span sampled
        // 1-in-1024 — together well under the 5% overhead budget on the
        // ~10M events/s hot loop. None of this touches simulation state.
        let mut obs_events = obs::BatchedCounter::new(obs::counter!("sim.events"));
        let obs_pending = obs::gauge!("sim.pending");
        let dispatch_hist = obs::histogram!("sim.handler_dispatch_ns");
        loop {
            let pending = self.queue.pending() + self.heads.len();
            if pending > self.peak_pending {
                self.peak_pending = pending;
            }
            if events & 4095 == 0 {
                obs_pending.set(pending as u64);
            }
            let (now, event) = match self.heads.peek() {
                // No live sources left: drain the queue without paying a
                // peek per event.
                None => match self.queue.pop_until(horizon_end) {
                    Some(popped) => popped,
                    None => break,
                },
                // Sources win timestamp ties against runtime events.
                Some(&Reverse((ts, _))) => {
                    let take_source = match self.queue.peek_time() {
                        Some(tq) => ts <= tq,
                        None => true,
                    };
                    if take_source {
                        if ts > horizon_end {
                            break;
                        }
                        self.take_source_head()
                    } else {
                        match self.queue.pop_until(horizon_end) {
                            Some(popped) => popped,
                            None => break,
                        }
                    }
                }
            };
            events += 1;
            obs_events.incr();
            let _span = (events & 1023 == 0).then(|| dispatch_hist.timer());
            self.handle_event(now, event);
            self.drain_obs(sink);
        }
        RunReport {
            counters: self.counters.to_counters(),
            events_processed: events,
            nodes_ever_online: self.ever_online_count,
            peak_pending: self.peak_pending,
        }
    }

    // ------------------------------------------------------------------
    // Handlers: the state half. Observable side effects are queued as
    // `ObsWork` and applied to the sink once the event is handled.
    // ------------------------------------------------------------------

    fn handle_event(&mut self, now: SimTime, event: NetEvent) {
        match event {
            NetEvent::NodeOnline(i) => self.handle_online(i, now),
            NetEvent::NodeOffline(i) => self.handle_offline(i, now),
            NetEvent::UserRequest { node, content } => {
                self.handle_request(node, content, now, false)
            }
            NetEvent::Rebroadcast { node, content } => self.handle_rebroadcast(node, content, now),
            NetEvent::RetrievalComplete {
                node,
                content,
                resolution,
            } => self.handle_retrieval_complete(node, content, resolution, now),
            NetEvent::GatewayHttp { operator, content } => {
                self.handle_gateway_http(operator, content, now)
            }
        }
    }

    fn handle_online(&mut self, i: usize, now: SimTime) {
        if self.nodes[i].online {
            return;
        }
        self.nodes[i].online = true;
        self.providers.set_online(i, true);
        self.online_count += 1;
        if !self.ever_online[i] {
            self.ever_online[i] = true;
            self.ever_online_count += 1;
        }
        self.counters.incr(SimCounter::NodeOnlineEvents);
        self.pending_obs.push(ObsWork::Online { node: i, at: now });
    }

    fn handle_offline(&mut self, i: usize, now: SimTime) {
        if !self.nodes[i].online {
            return;
        }
        self.nodes[i].online = false;
        self.providers.set_online(i, false);
        self.online_count = self.online_count.saturating_sub(1);
        self.counters.incr(SimCounter::NodeOfflineEvents);
        self.pending.clear_node(i);
        self.pending_obs.push(ObsWork::Offline { node: i, at: now });
    }

    fn want_request_type(&self, node: usize, now: SimTime) -> RequestType {
        match self.core.scenario.nodes[node].upgrade.protocol_at(now) {
            ProtocolVersion::Modern => RequestType::WantHave,
            ProtocolVersion::Legacy => RequestType::WantBlock,
        }
    }

    fn handle_request(
        &mut self,
        node: usize,
        content: usize,
        now: SimTime,
        via_gateway_revalidation: bool,
    ) {
        if !self.nodes[node].online {
            self.counters.incr(SimCounter::RequestsWhileOffline);
            return;
        }
        self.counters.incr(SimCounter::RequestsTotal);

        // Local cache: no network activity at all (the monitor blind spot the
        // paper describes for repeated requests).
        if !via_gateway_revalidation
            && self.nodes[node]
                .blockstore
                .contains(self.keys.of_content(content))
        {
            self.counters.incr(SimCounter::RequestsCacheHit);
            return;
        }
        if self.pending.get(node, content).is_some() {
            self.counters.incr(SimCounter::RequestsAlreadyPending);
            return;
        }

        self.pending.insert(node, content, now);
        let rtype = self.want_request_type(node, now);
        self.pending_obs.push(ObsWork::Broadcast {
            node,
            rtype,
            content: content as u32,
            at: now,
        });
        self.counters.incr(SimCounter::Broadcasts);
        self.resolve(node, content, now);
    }

    fn handle_rebroadcast(&mut self, node: usize, content: usize, now: SimTime) {
        if !self.nodes[node].online {
            return;
        }
        let Some(started) = self.pending.get(node, content) else {
            return; // resolved or cancelled in the meantime
        };
        let timeout = self.core.scenario.nodes[node].config.want_timeout;
        if now.since(started) >= timeout {
            self.pending.remove(node, content);
            self.counters.incr(SimCounter::WantsTimedOut);
            return;
        }
        let rtype = self.want_request_type(node, now);
        self.pending_obs.push(ObsWork::Broadcast {
            node,
            rtype,
            content: content as u32,
            at: now,
        });
        self.counters.incr(SimCounter::Rebroadcasts);
        self.resolve(node, content, now);
    }

    /// Decides how (and whether) an outstanding want gets resolved, and
    /// schedules either the completion or the next re-broadcast.
    fn resolve(&mut self, node: usize, content: usize, now: SimTime) {
        // How many online provider *nodes* there are besides the requester:
        // a count kept up to date on churn. The monitor-provider pick is a
        // trailing-zeros scan of the content's monitor mask — deterministic
        // lowest-index, unlike the seed's hash-set iteration order.
        debug_assert!(self.nodes[node].online, "only online nodes resolve");
        let provider_nodes = self.providers.online_providers_besides(content, node);
        let monitor_provider = self.providers.first_monitor(content);

        let resolution = if provider_nodes == 0 && monitor_provider.is_none() {
            Resolution::Unresolved
        } else {
            // Probability that at least one provider is a direct neighbour of
            // the requester, given the requester's connection count.
            let conn = self.core.scenario.nodes[node].connections as f64;
            let online_total = self.online_count.max(2) as f64;
            let p_single = (conn / online_total).min(1.0);
            let p_any_neighbour = 1.0 - (1.0 - p_single).powi(provider_nodes as i32);
            if provider_nodes > 0 && self.rng.gen_bool(p_any_neighbour.clamp(0.0, 1.0)) {
                Resolution::Neighbour
            } else if let Some(m) = monitor_provider {
                Resolution::MonitorProvider(m)
            } else {
                Resolution::Dht
            }
        };

        match resolution {
            Resolution::Unresolved => {
                let interval = self.core.scenario.params.rebroadcast_interval;
                self.queue
                    .schedule_at(now + interval, NetEvent::Rebroadcast { node, content });
            }
            Resolution::MonitorProvider(m) => {
                // The requester finds the monitor in the DHT, connects and
                // sends a targeted WANT_BLOCK — exactly the signal the
                // gateway-probing attack waits for.
                self.pending_obs.push(ObsWork::Targeted {
                    node,
                    monitor: m,
                    content: content as u32,
                    at: now,
                });
                let delay = self.sample_fetch_delay(self.core.scenario.params.dht_fetch_ms);
                self.queue.schedule_at(
                    now + delay,
                    NetEvent::RetrievalComplete {
                        node,
                        content,
                        resolution,
                    },
                );
            }
            Resolution::Neighbour => {
                let delay = self.sample_fetch_delay(self.core.scenario.params.neighbour_fetch_ms);
                self.queue.schedule_at(
                    now + delay,
                    NetEvent::RetrievalComplete {
                        node,
                        content,
                        resolution,
                    },
                );
            }
            Resolution::Dht => {
                let delay = self.sample_fetch_delay(self.core.scenario.params.dht_fetch_ms);
                self.queue.schedule_at(
                    now + delay,
                    NetEvent::RetrievalComplete {
                        node,
                        content,
                        resolution,
                    },
                );
            }
        }
    }

    fn sample_fetch_delay(&mut self, bounds: (u64, u64)) -> SimDuration {
        let (lo, hi) = bounds;
        let ms = if hi > lo {
            self.rng.gen_range(lo..hi)
        } else {
            lo
        };
        SimDuration::from_millis(ms)
    }

    fn handle_retrieval_complete(
        &mut self,
        node: usize,
        content: usize,
        resolution: Resolution,
        now: SimTime,
    ) {
        if self.pending.remove(node, content).is_none() {
            return; // node went offline or want timed out
        }
        if !self.nodes[node].online {
            return;
        }
        match resolution {
            Resolution::Neighbour => self.counters.incr(SimCounter::ResolvedViaNeighbour),
            Resolution::Dht => self.counters.incr(SimCounter::ResolvedViaDht),
            Resolution::MonitorProvider(_) => {
                self.counters.incr(SimCounter::ResolvedViaMonitorProvider)
            }
            Resolution::Unresolved => {}
        }

        // Cache the root block (counted at its own logical size: the whole
        // item for a single-block DAG, the encoded node for a chunked file or
        // a directory) and become a provider if re-providing is enabled.
        let root_block = self.core.scenario.content[content].dag.root_block();
        let core = &self.core;
        self.nodes[node].blockstore.put(
            self.keys.of_content(content),
            root_block.logical_size(),
            now,
            |key| core.content_root(key as usize),
        );
        if core.scenario.nodes[node].config.reprovide {
            self.providers.insert_node(content, node, true);
        }

        // CANCEL goes out to every peer that received the want broadcast —
        // monitors included.
        self.pending_obs.push(ObsWork::Broadcast {
            node,
            rtype: RequestType::Cancel,
            content: content as u32,
            at: now,
        });
        self.counters.incr(SimCounter::Cancels);
    }

    fn handle_gateway_http(&mut self, operator: usize, content: usize, now: SimTime) {
        self.counters.incr(SimCounter::GatewayHttpRequests);
        let op = &self.core.scenario.operators[operator];
        if !op.http_functional {
            self.counters.incr(SimCounter::GatewayHttpFailed);
            return;
        }
        // Round-robin over the operator's online nodes, without materializing
        // the candidate list.
        let online = op
            .node_indices
            .iter()
            .filter(|&&i| self.nodes[i].online)
            .count();
        if online == 0 {
            self.counters.incr(SimCounter::GatewayHttpNoNodeOnline);
            return;
        }
        let cursor = self.operator_cursor[operator];
        self.operator_cursor[operator] = cursor.wrapping_add(1);
        let node = op
            .node_indices
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].online)
            .nth(cursor % online)
            .expect("count checked above");

        let core = &self.core;
        let outcome = self.nodes[node]
            .gateway_cache
            .as_mut()
            .expect("gateway nodes have an HTTP cache")
            .request(self.keys.of_content(content), now, |key| {
                core.content_root(key as usize)
            });
        match outcome {
            CacheOutcome::Hit => {
                self.counters.incr(SimCounter::GatewayCacheHits);
            }
            CacheOutcome::Revalidate => {
                self.counters.incr(SimCounter::GatewayCacheRevalidations);
                // Revalidation triggers a Bitswap want even though the bytes
                // are (usually) still present locally; the want resolves
                // almost immediately and is cancelled again a few hundred
                // milliseconds later.
                let rtype = self.want_request_type(node, now);
                self.pending_obs.push(ObsWork::RevalidateCancel {
                    node,
                    rtype,
                    content: content as u32,
                    at: now,
                });
            }
            CacheOutcome::Miss => {
                self.counters.incr(SimCounter::GatewayCacheMisses);
                self.handle_request(node, content, now, true);
            }
        }
    }
}

/// Timestamp of a source's next event, if any.
fn source_state_peek(source: &SourceState, scenario: &Scenario) -> Option<SimTime> {
    match source {
        SourceState::Churn { node, cursor } => {
            cursor.peek(&scenario.nodes[*node].schedule).map(|(t, _)| t)
        }
        SourceState::External(source) => source.peek_time(),
    }
}

/// Pulls a source's next event.
fn source_state_pop(source: &mut SourceState, scenario: &Scenario) -> Option<(SimTime, NetEvent)> {
    match source {
        SourceState::Churn { node, cursor } => {
            let (t, event) = cursor.peek(&scenario.nodes[*node].schedule)?;
            cursor.advance();
            let event = match event {
                ChurnEvent::Online => NetEvent::NodeOnline(*node),
                ChurnEvent::Offline => NetEvent::NodeOffline(*node),
            };
            Some((t, event))
        }
        SourceState::External(source) => {
            let (t, event) = source.next_event()?;
            let event = match event {
                WorkloadEvent::Request { node, content } => NetEvent::UserRequest { node, content },
                WorkloadEvent::Gateway { operator, content } => {
                    NetEvent::GatewayHttp { operator, content }
                }
            };
            Some((t, event))
        }
    }
}

/// A [`DhtView`] over the network frozen at a particular instant, used by the
/// crawler baseline.
pub struct NetworkDhtView<'a> {
    network: &'a Network,
    at: SimTime,
}

impl DhtView for NetworkDhtView<'_> {
    fn is_server(&self, peer: &PeerId) -> bool {
        self.network
            .node_of_peer(peer)
            .map(|i| {
                self.network.core.scenario.nodes[i]
                    .config
                    .dht_mode
                    .is_server()
            })
            .unwrap_or(false)
    }

    fn is_responsive(&self, peer: &PeerId) -> bool {
        self.network
            .node_of_peer(peer)
            .map(|i| {
                let spec = &self.network.core.scenario.nodes[i];
                spec.schedule.online_at(self.at) && spec.config.dht_mode.is_server()
            })
            .unwrap_or(false)
    }

    fn bucket_entries(&self, peer: &PeerId) -> Option<Vec<PeerId>> {
        if !self.is_responsive(peer) {
            return None;
        }
        let index = self.network.node_of_peer(peer)?;
        self.network
            .core
            .routing_tables()
            .get(&index)
            .map(|t| t.peers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::gateway::GatewayOperator;
    use crate::spec::{ContentSpec, MonitorSpec, NodeSpec, RequestEvent, Scenario};
    use crate::version::UpgradeSchedule;
    use ipfs_mon_blockstore::build_file;
    use ipfs_mon_kad::Crawler;
    use ipfs_mon_simnet::churn::{NodeSchedule, OnlineSession};
    use ipfs_mon_simnet::source::IterSource;

    fn always_online(horizon: SimDuration) -> NodeSchedule {
        NodeSchedule {
            stable: true,
            sessions: vec![OnlineSession {
                start: SimTime::ZERO,
                end: SimTime::ZERO + horizon,
            }],
        }
    }

    /// A scenario with `n` always-online regular nodes, one monitor attached
    /// to everyone, and one resolvable plus one unresolvable content item.
    fn base_scenario(n: usize) -> Scenario {
        let horizon = SimDuration::from_hours(2);
        let mut scenario = Scenario::new(42, horizon);
        for _ in 0..n {
            scenario.nodes.push(NodeSpec {
                config: NodeConfig::regular(),
                country: Country::De,
                schedule: always_online(horizon),
                upgrade: UpgradeSchedule::always_modern(),
                connections: 700,
            });
        }
        scenario
            .monitors
            .push(MonitorSpec::new("us", Country::Us, 1.0));
        scenario.content.push(ContentSpec {
            dag: build_file(100, 50_000, 256 * 1024, 174),
            initial_providers: vec![0],
        });
        scenario.content.push(ContentSpec {
            dag: build_file(200, 50_000, 256 * 1024, 174),
            initial_providers: vec![],
        });
        scenario
    }

    #[test]
    fn request_produces_want_and_cancel_observations() {
        let request = RequestEvent {
            at: SimTime::from_secs(60),
            node: 3,
            content: 0,
        };
        let mut network = fed(base_scenario(5), vec![request], vec![]);
        let requester = network.peer_id(3);
        let mut sink = RecordingSink::new(1);
        let report = network.run(&mut sink);

        let obs = &sink.observations[0];
        let wants: Vec<_> = obs
            .iter()
            .filter(|o| o.request_type == RequestType::WantHave)
            .collect();
        let cancels: Vec<_> = obs
            .iter()
            .filter(|o| o.request_type == RequestType::Cancel)
            .collect();
        assert_eq!(wants.len(), 1);
        assert_eq!(cancels.len(), 1);
        assert_eq!(wants[0].peer, requester);
        assert_eq!(wants[0].cid, *network.content_root(0));
        assert!(cancels[0].timestamp > wants[0].timestamp);
        assert_eq!(
            report.counters.get("resolved_via_neighbour") + report.counters.get("resolved_via_dht"),
            1
        );
    }

    #[test]
    fn cached_content_suppresses_second_request() {
        let requests = vec![
            RequestEvent {
                at: SimTime::from_secs(60),
                node: 1,
                content: 0,
            },
            RequestEvent {
                at: SimTime::from_secs(1200),
                node: 1,
                content: 0,
            },
        ];
        let mut network = fed(base_scenario(3), requests, vec![]);
        let mut sink = RecordingSink::new(1);
        let report = network.run(&mut sink);
        assert_eq!(report.counters.get("requests_cache_hit"), 1);
        // Only one WANT_HAVE despite two user requests.
        let wants = sink.observations[0]
            .iter()
            .filter(|o| o.request_type == RequestType::WantHave)
            .count();
        assert_eq!(wants, 1);
    }

    #[test]
    fn unresolvable_content_is_rebroadcast_until_timeout() {
        let request = RequestEvent {
            at: SimTime::from_secs(60),
            node: 1,
            content: 1, // no providers
        };
        let mut network = fed(base_scenario(3), vec![request], vec![]);
        let mut sink = RecordingSink::new(1);
        let report = network.run(&mut sink);
        // want_timeout is 10 min, re-broadcast every 30 s → 19 re-broadcasts
        // after the initial one (the 20th tick hits the timeout).
        assert!(report.counters.get("rebroadcasts") >= 15);
        assert_eq!(report.counters.get("wants_timed_out"), 1);
        assert_eq!(report.counters.get("cancels"), 0);
        let wants = sink.observations[0]
            .iter()
            .filter(|o| o.request_type == RequestType::WantHave)
            .count();
        assert_eq!(wants as u64, 1 + report.counters.get("rebroadcasts"));
    }

    #[test]
    fn downloader_becomes_provider_for_subsequent_requests() {
        let requests = vec![
            RequestEvent {
                at: SimTime::from_secs(60),
                node: 1,
                content: 0,
            },
            RequestEvent {
                at: SimTime::from_secs(600),
                node: 2,
                content: 0,
            },
        ];
        let mut network = fed(base_scenario(4), requests, vec![]);
        let mut sink = RecordingSink::new(1);
        let report = network.run(&mut sink);
        assert_eq!(report.counters.get("cancels"), 2);
        assert!(network.node_has_block(1, &network.content_root(0).clone()));
        assert!(network.node_has_block(2, &network.content_root(0).clone()));
    }

    #[test]
    fn legacy_nodes_emit_want_block() {
        let mut scenario = base_scenario(3);
        scenario.nodes[1].upgrade = UpgradeSchedule::never();
        let request = RequestEvent {
            at: SimTime::from_secs(60),
            node: 1,
            content: 0,
        };
        let mut network = fed(scenario, vec![request], vec![]);
        let mut sink = RecordingSink::new(1);
        network.run(&mut sink);
        assert!(sink.observations[0]
            .iter()
            .any(|o| o.request_type == RequestType::WantBlock));
        assert!(!sink.observations[0]
            .iter()
            .any(|o| o.request_type == RequestType::WantHave));
    }

    #[test]
    fn offline_nodes_do_not_request() {
        let mut scenario = base_scenario(2);
        scenario.nodes[1].schedule = NodeSchedule {
            stable: false,
            sessions: vec![],
        };
        let request = RequestEvent {
            at: SimTime::from_secs(60),
            node: 1,
            content: 0,
        };
        let mut network = fed(scenario, vec![request], vec![]);
        let mut sink = RecordingSink::new(1);
        let report = network.run(&mut sink);
        assert_eq!(report.counters.get("requests_while_offline"), 1);
        assert_eq!(sink.total_observations(), 0);
    }

    #[test]
    fn monitor_connection_events_are_emitted() {
        let scenario = base_scenario(10);
        let mut network = Network::new(scenario);
        let mut sink = RecordingSink::new(1);
        network.run(&mut sink);
        // attach probability 1.0 → all ten nodes connect to the monitor.
        assert_eq!(sink.connections[0].len(), 10);
        // Always-online schedule ends at the horizon, which is outside
        // pop_until's range only if equal — the offline event fires exactly at
        // the horizon, so disconnects are recorded.
        assert!(sink.connections[0]
            .iter()
            .all(|(_, _, _, end)| end.is_some()));
    }

    #[test]
    fn monitor_provider_receives_targeted_want_block() {
        let mut scenario = base_scenario(3);
        // Fresh probe content with no providers, later provided by monitor 0.
        scenario.content.push(ContentSpec {
            dag: build_file(999, 100, 1024, 4),
            initial_providers: vec![],
        });
        let request = RequestEvent {
            at: SimTime::from_secs(100),
            node: 2,
            content: 2,
        };
        let mut network = fed(scenario, vec![request], vec![]);
        network.register_monitor_provider(0, 2);
        let mut sink = RecordingSink::new(1);
        let report = network.run(&mut sink);
        assert_eq!(report.counters.get("resolved_via_monitor_provider"), 1);
        let probe_root = network.content_root(2);
        assert!(sink.observations[0]
            .iter()
            .any(|o| o.request_type == RequestType::WantBlock && o.cid == *probe_root));
    }

    #[test]
    fn gateway_cache_controls_bitswap_visibility() {
        let mut scenario = base_scenario(3);
        // Add a gateway node run by one operator.
        let horizon = scenario.horizon;
        scenario.nodes.push(NodeSpec {
            config: NodeConfig::gateway(),
            country: Country::Us,
            schedule: always_online(horizon),
            upgrade: UpgradeSchedule::always_modern(),
            connections: 900,
        });
        let gw_index = scenario.nodes.len() - 1;
        scenario
            .operators
            .push(GatewayOperator::new("gateway.example", vec![gw_index], 1.0));
        // Three HTTP requests for the same content in quick succession: one
        // miss (Bitswap visible) followed by cache hits (invisible).
        let gateway = [100, 200, 300].map(|secs| GatewayRequestEvent {
            at: SimTime::from_secs(secs),
            operator: 0,
            content: 0,
        });
        let mut network = fed(scenario, vec![], gateway.into());
        let mut sink = RecordingSink::new(1);
        let report = network.run(&mut sink);
        assert_eq!(report.counters.get("gateway_cache_misses"), 1);
        assert_eq!(report.counters.get("gateway_cache_hits"), 2);
        let gw_peer = network.peer_id(gw_index);
        let gw_wants = sink.observations[0]
            .iter()
            .filter(|o| o.peer == gw_peer && o.request_type.is_request())
            .count();
        assert_eq!(gw_wants, 1, "only the miss generates a Bitswap want");
    }

    #[test]
    fn dht_view_supports_crawling_and_misses_clients() {
        let mut scenario = base_scenario(30);
        // Make ten of the nodes DHT clients.
        for i in 0..10 {
            scenario.nodes[i].config = NodeConfig::client();
        }
        let network = Network::new(scenario);
        let at = SimTime::from_secs(600);
        let view = network.dht_view_at(at);
        let bootstrap = network.online_server_peers(at, 3);
        assert!(!bootstrap.is_empty());
        let crawl = Crawler::new().crawl(&view, &bootstrap);
        // The crawl sees servers only: 20 servers, 0 of the 10 clients.
        assert!(crawl.discovered_count() <= 20);
        assert!(crawl.discovered_count() >= 15, "most servers are reachable");
        for i in 0..10 {
            assert!(!crawl.discovered.contains(&network.peer_id(i)));
        }
    }

    #[test]
    fn run_is_deterministic_for_a_seed() {
        let build = || {
            let requests = [60, 120, 180, 240].map(|secs| RequestEvent {
                at: SimTime::from_secs(secs),
                node: (secs / 60) as usize % 8,
                content: (secs / 120) as usize % 2,
            });
            fed(base_scenario(8), requests.into(), vec![])
        };
        let mut sink_a = RecordingSink::new(1);
        let mut sink_b = RecordingSink::new(1);
        build().run(&mut sink_a);
        build().run(&mut sink_b);
        assert_eq!(sink_a.observations, sink_b.observations);
    }

    /// Scenario with churn, user requests and gateway traffic — every event
    /// kind at once — for the comparisons against [`drained`]: the scenario,
    /// its user requests and its gateway requests, each list in time order.
    fn busy_scenario(seed: u64) -> (Scenario, Vec<RequestEvent>, Vec<GatewayRequestEvent>) {
        let horizon = SimDuration::from_hours(3);
        let mut scenario = Scenario::new(seed, horizon);
        for i in 0..12 {
            // Mix always-online nodes with churning ones, including some
            // whose sessions abut exactly (offline and online at the same
            // instant) to exercise timestamp tie-breaking.
            let schedule = if i % 3 == 0 {
                always_online(horizon)
            } else {
                NodeSchedule {
                    stable: false,
                    sessions: vec![
                        OnlineSession {
                            start: SimTime::from_secs(40 * i as u64),
                            end: SimTime::from_secs(3_000 + 40 * i as u64),
                        },
                        OnlineSession {
                            start: SimTime::from_secs(3_000 + 40 * i as u64),
                            end: SimTime::ZERO + horizon,
                        },
                    ],
                }
            };
            scenario.nodes.push(NodeSpec {
                config: NodeConfig::regular(),
                country: Country::De,
                schedule,
                upgrade: UpgradeSchedule::always_modern(),
                connections: 700,
            });
        }
        scenario
            .monitors
            .push(MonitorSpec::new("us", Country::Us, 0.9));
        scenario
            .monitors
            .push(MonitorSpec::new("de", Country::De, 0.7));
        scenario.content.push(ContentSpec {
            dag: build_file(100, 50_000, 256 * 1024, 174),
            initial_providers: vec![0],
        });
        scenario.content.push(ContentSpec {
            dag: build_file(200, 50_000, 256 * 1024, 174),
            initial_providers: vec![],
        });
        // Requests, some at the exact instants of churn transitions.
        let requests = [40, 80, 120, 3_040, 3_080, 5_000, 5_000]
            .iter()
            .enumerate()
            .map(|(i, secs)| RequestEvent {
                at: SimTime::from_secs(*secs),
                node: i % 12,
                content: i % 2,
            })
            .collect();
        let horizon2 = scenario.horizon;
        scenario.nodes.push(NodeSpec {
            config: NodeConfig::gateway(),
            country: Country::Us,
            schedule: always_online(horizon2),
            upgrade: UpgradeSchedule::always_modern(),
            connections: 900,
        });
        let gw = scenario.nodes.len() - 1;
        scenario
            .operators
            .push(GatewayOperator::new("gw.example", vec![gw], 1.0));
        let gateway = [100, 3_040, 6_000].map(|secs| GatewayRequestEvent {
            at: SimTime::from_secs(secs),
            operator: 0,
            content: 0,
        });
        (scenario, requests, gateway.into())
    }

    /// [`busy_scenario`] as a network fed by its requests.
    fn busy(seed: u64) -> Network {
        let (scenario, requests, gateway) = busy_scenario(seed);
        fed(scenario, requests, gateway)
    }

    /// The reference the event loop is held to: every source drained, in
    /// rank order, into the runtime queue before the run, so the scheduler's
    /// FIFO sequence numbers decide every tie.
    fn drained(mut network: Network) -> Network {
        for source in &mut network.sources {
            while let Some((at, event)) = source_state_pop(source, &network.core.scenario) {
                network.queue.schedule_at(at, event);
            }
        }
        network.heads.clear();
        network
    }

    fn record(mut network: Network) -> (RecordingSink, RunReport) {
        let mut sink = RecordingSink::new(network.monitor_count());
        let report = network.run(&mut sink);
        (sink, report)
    }

    /// A network over `scenario` fed `requests`, then `gateway`, as two
    /// external sources: the layout `build_scenario_lazy` gives a run, node
    /// requests ranked before the gateway stream. Each list must be in time
    /// order.
    fn fed(
        scenario: Scenario,
        requests: Vec<RequestEvent>,
        gateway: Vec<GatewayRequestEvent>,
    ) -> Network {
        let requests = requests.into_iter().map(|r| {
            let (node, content) = (r.node, r.content);
            (r.at, WorkloadEvent::Request { node, content })
        });
        let gateway = gateway.into_iter().map(|r| {
            let (operator, content) = (r.operator, r.content);
            (r.at, WorkloadEvent::Gateway { operator, content })
        });
        Network::with_sources(
            scenario,
            vec![
                Box::new(IterSource::new(requests)),
                Box::new(IterSource::new(gateway)),
            ],
        )
    }

    #[test]
    fn all_execution_modes_produce_identical_traces() {
        for seed in [7, 21, 99] {
            let (reference_sink, reference) = record(drained(busy(seed)));
            let (sink, report) = record(busy(seed));
            assert_eq!(
                sink.observations, reference_sink.observations,
                "observations diverge for seed {seed}"
            );
            assert_eq!(
                sink.connections, reference_sink.connections,
                "connections diverge for seed {seed}"
            );
            assert_eq!(report.events_processed, reference.events_processed);
            assert_eq!(report.counters, reference.counters);
        }
    }

    #[test]
    fn lazy_mode_keeps_pending_set_small() {
        let (scenario, mut requests, gateway) = busy_scenario(5);
        // Many more requests so the drained pending set dwarfs concurrency.
        requests.extend((0..2_000u64).map(|i| RequestEvent {
            at: SimTime::from_secs(10 + i * 5),
            node: (i % 12) as usize,
            content: (i % 2) as usize,
        }));
        requests.sort_by_key(|r| r.at);
        let build = || fed(scenario.clone(), requests.clone(), gateway.clone());
        let (_, materialized) = record(drained(build()));
        let (_, lazy) = record(build());
        assert_eq!(materialized.events_processed, lazy.events_processed);
        assert!(
            materialized.peak_pending >= 2_000,
            "drained peak {} should carry the whole horizon",
            materialized.peak_pending
        );
        assert!(
            lazy.peak_pending < materialized.peak_pending / 10,
            "lazy peak {} should track concurrency, not horizon (drained {})",
            lazy.peak_pending,
            materialized.peak_pending
        );
    }

    #[test]
    fn mid_run_request_injection_works_in_lazy_mode() {
        // Attack tooling schedules extra requests against a built network;
        // those go through the runtime queue and must interleave with source
        // events exactly as when everything sits in the queue.
        let inject = |mut network: Network| {
            network.schedule_request(RequestEvent {
                at: SimTime::from_secs(3_040), // ties a churn + request instant
                node: 4,
                content: 0,
            });
            network.schedule_request(RequestEvent {
                at: SimTime::from_secs(9_000),
                node: 5,
                content: 0,
            });
            record(network)
        };
        let (lazy_sink, lazy_report) = inject(busy(3));
        let (seed_sink, seed_report) = inject(drained(busy(3)));
        assert_eq!(lazy_sink.observations, seed_sink.observations);
        assert_eq!(lazy_sink.connections, seed_sink.connections);
        assert_eq!(lazy_report.events_processed, seed_report.events_processed);
    }

    #[test]
    fn probe_content_added_at_runtime_is_observable_in_sharded_mode() {
        // add_content + register_monitor_provider after build: the
        // gateway-probing flow.
        let mut network = busy(11);
        let content = network.add_content(ContentSpec {
            dag: build_file(7_777, 100, 1024, 4),
            initial_providers: vec![],
        });
        network.register_monitor_provider(1, content);
        network.schedule_request(RequestEvent {
            at: SimTime::from_secs(500),
            node: 0,
            content,
        });
        let root = network.content_root(content).clone();
        let (sink, report) = record(network);
        assert_eq!(report.counters.get("resolved_via_monitor_provider"), 1);
        assert!(sink.observations[1]
            .iter()
            .any(|o| o.request_type == RequestType::WantBlock && o.cid == root));
    }

    #[test]
    fn ties_go_to_sources_by_rank_then_to_the_queue_and_late_injections_clamp() {
        let t = SimTime::from_secs(1_000);
        let late = SimTime::from_secs(5_000);
        let mut scenario = base_scenario(3);
        // Sessions outlast the horizon, so everyone is still online when the
        // first run returns. At `t`, node 1 comes online (churn source) and
        // requests content 0 (request source); node 2 comes online at `late`,
        // after the runtime activity of `t` has died down.
        for (node, start) in [(0, SimTime::ZERO), (1, t), (2, late)] {
            scenario.nodes[node].schedule = NodeSchedule {
                stable: false,
                sessions: vec![OnlineSession {
                    start,
                    end: SimTime::ZERO + scenario.horizon + SimDuration::from_hours(1),
                }],
            };
        }
        let request = RequestEvent {
            at: t,
            node: 1,
            content: 0,
        };
        let run_twice = |mut network: Network| {
            // A runtime-queue event at `t`, older than anything the run will
            // schedule.
            network.schedule_request(RequestEvent {
                at: t,
                node: 1,
                content: 1,
            });
            let mut sink = RecordingSink::new(1);
            let first = network.run(&mut sink);
            let seen = sink.observations[0].len();
            // Scheduled for the past; the clock stands at `late`.
            network.schedule_request(RequestEvent {
                at: t,
                node: 2,
                content: 1,
            });
            let second = network.run(&mut sink);
            let roots = [
                network.content_root(0).clone(),
                network.content_root(1).clone(),
            ];
            (sink, seen, first, second, roots)
        };

        let (sink, seen, first, second, roots) =
            run_twice(fed(scenario.clone(), vec![request], vec![]));
        // Churn before requests: node 1 was online for both of its requests.
        assert_eq!(first.counters.get("requests_while_offline"), 0);
        assert_eq!(first.counters.get("requests_total"), 2);
        // Source before queue: the monitor heard the want for content 0
        // first, although the want for content 1 was scheduled earlier.
        let wants: Vec<&Cid> = sink.observations[0][..seen]
            .iter()
            .filter(|o| o.request_type.is_request())
            .map(|o| &o.cid)
            .take(2)
            .collect();
        assert_eq!(wants, [&roots[0], &roots[1]]);
        // The last event of the first run was node 2's churn source event at
        // `late`, which took the queue clock with it: the injection for the
        // past is delivered at `late`, not at `t`.
        assert_eq!(second.counters.get("requests_total"), 3);
        assert!(sink.observations[0].len() > seen);
        assert!(sink.observations[0][seen..]
            .iter()
            .all(|o| o.timestamp >= late));

        let (reference_sink, ..) = run_twice(drained(fed(scenario, vec![request], vec![])));
        assert_eq!(sink.observations, reference_sink.observations);
        assert_eq!(sink.connections, reference_sink.connections);
    }
}
