//! The observation half of the event handlers: what the monitors see.
//!
//! Every handler in the parent module decomposes into
//!
//! * a **state half** — online flags, the pending-want slab, block stores,
//!   gateway caches, the provider index, counters and runtime-queue
//!   scheduling, all driven by the single decision RNG stream; and
//! * an **observation half** — which monitors a node attaches to, the
//!   per-monitor latency draws of a want/cancel broadcast, and the resulting
//!   sink records.
//!
//! The state half emits one [`ObsWork`] item per observable effect; the
//! [`Observer`] here turns each into [`MonitorSink`] calls. Observation state
//! is *per node* (its monitor-link row, its own observation RNG stream) and
//! is never read back by the state half, so the decisions a run takes do not
//! depend on how many monitors watch it or how often they draw.

use super::core::ScenarioCore;
use super::state::{set_bits, BitMatrix};
use super::{BitswapObservation, MonitorSink};
use crate::counters::SimCounter;
use ipfs_mon_bitswap::RequestType;
use ipfs_mon_simnet::metrics::TypedCounters;
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use rand::Rng;

/// One observable effect, emitted by a state-half handler. Carries indices
/// only — peers, addresses and CIDs are looked up in the [`ScenarioCore`]
/// when the sink is called.
#[derive(Debug, Clone, Copy)]
pub(super) enum ObsWork {
    /// The node came online: draw the per-monitor attach decisions.
    Online { node: usize, at: SimTime },
    /// The node went offline: disconnect it from its linked monitors.
    Offline { node: usize, at: SimTime },
    /// Broadcast one wantlist entry to every linked monitor.
    Broadcast {
        node: usize,
        rtype: RequestType,
        content: u32,
        at: SimTime,
    },
    /// Targeted `WANT_BLOCK` to one monitor (the monitor-provider path).
    Targeted {
        node: usize,
        monitor: usize,
        content: u32,
        at: SimTime,
    },
    /// Gateway revalidation: a want broadcast followed by a cancel broadcast
    /// a few hundred milliseconds later.
    RevalidateCancel {
        node: usize,
        rtype: RequestType,
        content: u32,
        at: SimTime,
    },
}

impl ObsWork {
    /// The node whose observation state this item acts on.
    fn node(&self) -> usize {
        match *self {
            ObsWork::Online { node, .. }
            | ObsWork::Offline { node, .. }
            | ObsWork::Broadcast { node, .. }
            | ObsWork::Targeted { node, .. }
            | ObsWork::RevalidateCancel { node, .. } => node,
        }
    }
}

/// Where wantlist entries go: the sink, with the identities to label them
/// and the tally of what was recorded.
struct Emit<'a, S> {
    core: &'a ScenarioCore,
    counters: &'a mut TypedCounters<SimCounter>,
    sink: &'a mut S,
}

impl<S: MonitorSink> Emit<'_, S> {
    fn record(
        &mut self,
        monitor: usize,
        node: usize,
        rtype: RequestType,
        content: u32,
        at: SimTime,
    ) {
        self.sink.record(
            monitor,
            BitswapObservation {
                timestamp: at,
                peer: self.core.node_peers[node],
                address: self.core.node_addrs[node],
                request_type: rtype,
                cid: self.core.content_root(content as usize).clone(),
            },
        );
        self.counters.incr(SimCounter::MonitorEntriesRecorded);
    }

    /// Sends one wantlist entry to every monitor `node` is linked to,
    /// drawing one latency sample per monitor from the node's stream.
    fn broadcast(
        &mut self,
        links: &BitMatrix,
        rng: &mut SimRng,
        node: usize,
        rtype: RequestType,
        content: u32,
        at: SimTime,
    ) {
        let country = self.core.scenario.nodes[node].country;
        for w in 0..links.stride() {
            for bit in set_bits(links.word(node, w)) {
                let m = w * 64 + bit;
                let latency =
                    self.core
                        .latency
                        .sample(rng, country, self.core.scenario.monitors[m].country);
                self.record(m, node, rtype, content, at + latency);
            }
        }
    }
}

/// Observation state of every node: its monitor links and its lazily
/// derived observation RNG stream.
#[derive(Debug)]
pub(super) struct Observer {
    /// Monitor links, one row per node.
    links: BitMatrix,
    /// Per-node observation streams, derived on first use so untouched nodes
    /// cost nothing.
    rngs: Vec<Option<SimRng>>,
}

impl Observer {
    pub(super) fn new(nodes: usize, monitors: usize) -> Self {
        Self {
            links: BitMatrix::new(nodes, monitors),
            rngs: (0..nodes).map(|_| None).collect(),
        }
    }

    /// Applies one work item to the sink. Items of one node must arrive in
    /// event order; that is the only ordering the observer relies on.
    // Its one caller is the event loop: inlined there in whichever crate
    // instantiates the loop for its sink, however that crate's code is split.
    #[inline]
    pub(super) fn execute<S: MonitorSink>(
        &mut self,
        core: &ScenarioCore,
        work: ObsWork,
        counters: &mut TypedCounters<SimCounter>,
        sink: &mut S,
    ) {
        let Self { links, rngs } = self;
        let node = work.node();
        let rng =
            rngs[node].get_or_insert_with(|| core.obs_base.derive_indexed("node", node as u64));
        let mut emit = Emit {
            core,
            counters,
            sink,
        };
        match work {
            ObsWork::Online { node, at } => {
                for m in 0..core.monitor_count() {
                    let p = core.scenario.monitors[m].attach_probability;
                    if rng.gen_bool(p.clamp(0.0, 1.0)) {
                        links.set(node, m);
                        emit.sink.peer_connected(
                            m,
                            core.node_peers[node],
                            core.node_addrs[node],
                            at,
                        );
                    }
                }
            }
            ObsWork::Offline { node, at } => {
                for w in 0..links.stride() {
                    for bit in set_bits(links.word(node, w)) {
                        emit.sink
                            .peer_disconnected(w * 64 + bit, core.node_peers[node], at);
                    }
                }
                links.clear_row(node);
            }
            ObsWork::Broadcast {
                node,
                rtype,
                content,
                at,
            } => emit.broadcast(links, rng, node, rtype, content, at),
            ObsWork::Targeted {
                node,
                monitor,
                content,
                at,
            } => {
                // Latency is drawn before the link test, matching the order
                // the combined handler used.
                let country = core.scenario.nodes[node].country;
                let latency =
                    core.latency
                        .sample(rng, country, core.scenario.monitors[monitor].country);
                if !links.test(node, monitor) {
                    links.set(node, monitor);
                    emit.sink.peer_connected(
                        monitor,
                        core.node_peers[node],
                        core.node_addrs[node],
                        at,
                    );
                }
                emit.record(monitor, node, RequestType::WantBlock, content, at + latency);
            }
            ObsWork::RevalidateCancel {
                node,
                rtype,
                content,
                at,
            } => {
                emit.broadcast(links, rng, node, rtype, content, at);
                let cancel_at = at + SimDuration::from_millis(rng.gen_range(200..1200));
                emit.broadcast(links, rng, node, RequestType::Cancel, content, cancel_at);
            }
        }
    }
}
