//! Kademlia DHT substrate for the IPFS monitoring suite.
//!
//! IPFS uses a Kademlia-based DHT for peer routing and provider records. The
//! reproduction needs only what the paper compares its monitors against: a
//! crawl of the DHT's k-buckets.
//!
//! * [`routing_table`] — per-node k-buckets over the XOR metric,
//! * [`mode`] — the DHT server / DHT client distinction introduced in IPFS
//!   v0.5 (clients use the DHT but are invisible to crawls),
//! * [`view`] — the query-side abstraction over the DHT,
//! * [`crawler`] — the DHT crawler the paper compares its monitor against,
//!   reproducing the crawler's characteristic biases (counts stale entries,
//!   misses client nodes).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crawler;
pub mod mode;
pub mod routing_table;
pub mod view;

pub use crawler::{CrawlResult, Crawler, CrawlerConfig};
pub use mode::DhtMode;
pub use routing_table::{BucketEntry, RoutingTable, DEFAULT_K};
pub use view::{DhtView, StaticView};
