//! The Bitswap vocabulary the monitoring suite speaks.
//!
//! Bitswap is IPFS' "data trading module": interest in CIDs is announced with
//! `WANT_HAVE`/`WANT_BLOCK` entries that are **broadcast to every connected
//! peer**, and retracted with `CANCEL`. That broadcast is precisely what the
//! paper's passive monitoring methodology exploits. A monitor only logs the
//! entries it receives, so this crate holds what that log needs: the
//! [`RequestType`] of an entry and the [`ProtocolVersion`] that decides which
//! type a node broadcasts. The broadcast itself is modelled by the node
//! crate's `network::observe`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The request types distinguished by the monitoring pipeline, mirroring the
/// `request_type` column of the paper's trace tuples and the classification in
/// Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RequestType {
    /// A `WANT_HAVE` wantlist entry.
    WantHave,
    /// A `WANT_BLOCK` wantlist entry.
    WantBlock,
    /// A `CANCEL` entry retracting an earlier want.
    Cancel,
}

impl RequestType {
    /// Returns true for the entry types that express interest in data
    /// (everything except cancels). Table I counts only these.
    pub fn is_request(self) -> bool {
        !matches!(self, RequestType::Cancel)
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            RequestType::WantHave => "WANT_HAVE",
            RequestType::WantBlock => "WANT_BLOCK",
            RequestType::Cancel => "CANCEL",
        }
    }
}

impl std::fmt::Display for RequestType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Which generation of the Bitswap protocol a node speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolVersion {
    /// Pre-v0.5 behaviour: no inventory mechanism, data is requested directly
    /// with `WANT_BLOCK` broadcasts.
    Legacy,
    /// v0.5-and-later behaviour: `WANT_HAVE` inventory broadcasts followed by
    /// targeted `WANT_BLOCK`s to session members.
    Modern,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_type_classification() {
        let cases = [
            (RequestType::WantHave, true, "WANT_HAVE"),
            (RequestType::WantBlock, true, "WANT_BLOCK"),
            (RequestType::Cancel, false, "CANCEL"),
        ];
        for (kind, is_request, label) in cases {
            assert_eq!(kind.is_request(), is_request, "{kind:?}");
            assert_eq!(kind.label(), label);
            assert_eq!(kind.to_string(), label);
        }
    }
}
