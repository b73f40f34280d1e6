//! Per-node configuration and roles.

use ipfs_mon_bitswap::ProtocolVersion;
use ipfs_mon_kad::DhtMode;
use ipfs_mon_simnet::time::SimDuration;

/// What kind of participant a simulated node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// An ordinary user-operated node ("homegrown" in the paper's Fig. 6).
    Regular,
    /// The IPFS side of a public HTTP/IPFS gateway.
    Gateway,
    /// A passive monitoring node (the paper's contribution). Monitors accept
    /// every connection, never request data, and never serve data.
    Monitor,
}

impl NodeRole {
    /// Returns true for gateway nodes.
    pub fn is_gateway(self) -> bool {
        matches!(self, NodeRole::Gateway)
    }

    /// Returns true for monitoring nodes.
    pub fn is_monitor(self) -> bool {
        matches!(self, NodeRole::Monitor)
    }
}

/// Static configuration of one simulated node.
#[derive(Debug, Clone, Copy)]
pub struct NodeConfig {
    /// The node's role in the network.
    pub role: NodeRole,
    /// DHT participation mode (server or client).
    pub dht_mode: DhtMode,
    /// Bitswap protocol generation the node *starts* with. Nodes with an
    /// upgrade time switch from [`ProtocolVersion::Legacy`] to
    /// [`ProtocolVersion::Modern`] when they upgrade (Fig. 4).
    pub initial_protocol: ProtocolVersion,
    /// Whether the node re-provides (announces to the DHT) content it has
    /// downloaded. Default true, as in kubo.
    pub reprovide: bool,
    /// Block cache capacity in bytes.
    pub cache_capacity: u64,
    /// Target number of overlay connections the node maintains. The paper
    /// reports 600–900 for ordinary nodes; monitors have no limit.
    pub connection_target: u32,
    /// How long an unresolved want keeps being re-broadcast before the node
    /// gives up (bounds re-broadcast traffic for unresolvable CIDs).
    pub want_timeout: SimDuration,
}

impl NodeConfig {
    /// Configuration of an ordinary node.
    pub fn regular() -> Self {
        Self {
            role: NodeRole::Regular,
            dht_mode: DhtMode::Server,
            initial_protocol: ProtocolVersion::Modern,
            reprovide: true,
            cache_capacity: ipfs_mon_blockstore::DEFAULT_CAPACITY,
            connection_target: 750,
            want_timeout: SimDuration::from_mins(10),
        }
    }

    /// Configuration of a DHT-client node (behind NAT).
    pub fn client() -> Self {
        Self {
            dht_mode: DhtMode::Client,
            ..Self::regular()
        }
    }

    /// Configuration of a public-gateway node.
    pub fn gateway() -> Self {
        Self {
            role: NodeRole::Gateway,
            connection_target: 900,
            ..Self::regular()
        }
    }

    /// Configuration of a passive monitoring node.
    pub fn monitor() -> Self {
        Self {
            role: NodeRole::Monitor,
            dht_mode: DhtMode::Server,
            reprovide: false,
            connection_target: u32::MAX,
            ..Self::regular()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_roles() {
        assert_eq!(NodeConfig::regular().role, NodeRole::Regular);
        assert_eq!(NodeConfig::client().dht_mode, DhtMode::Client);
        assert!(NodeConfig::gateway().role.is_gateway());
        assert!(NodeConfig::monitor().role.is_monitor());
        assert!(
            !NodeConfig::monitor().reprovide,
            "monitors never provide data"
        );
        assert_eq!(NodeConfig::monitor().connection_target, u32::MAX);
    }

    #[test]
    fn regular_nodes_match_paper_connection_range() {
        let c = NodeConfig::regular().connection_target;
        assert!((600..=900).contains(&c));
    }
}
