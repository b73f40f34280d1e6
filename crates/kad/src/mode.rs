//! DHT participation modes.
//!
//! Since IPFS v0.5, nodes operate either as **DHT servers** (publicly
//! reachable; store records, answer queries, appear in k-buckets) or **DHT
//! clients** (use the DHT for their own lookups but neither store records nor
//! appear in buckets). The distinction is central to the paper: DHT clients
//! cannot be enumerated by crawling, but they *do* broadcast Bitswap requests,
//! so passive monitors see them.

/// How a node participates in the DHT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DhtMode {
    /// Publicly reachable node: stores records, answers queries, appears in
    /// other peers' k-buckets.
    Server,
    /// Node behind NAT or otherwise unreachable: uses the DHT but is invisible
    /// to crawls.
    Client,
}

impl DhtMode {
    /// Returns true for [`DhtMode::Server`].
    pub fn is_server(self) -> bool {
        matches!(self, DhtMode::Server)
    }

    /// Returns true for [`DhtMode::Client`].
    pub fn is_client(self) -> bool {
        matches!(self, DhtMode::Client)
    }
}

impl std::fmt::Display for DhtMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhtMode::Server => write!(f, "server"),
            DhtMode::Client => write!(f, "client"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates() {
        assert!(DhtMode::Server.is_server());
        assert!(!DhtMode::Server.is_client());
        assert!(DhtMode::Client.is_client());
        assert!(!DhtMode::Client.is_server());
    }

    #[test]
    fn display() {
        assert_eq!(DhtMode::Server.to_string(), "server");
        assert_eq!(DhtMode::Client.to_string(), "client");
    }
}
