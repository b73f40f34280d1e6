//! Content layer substrate: blocks, the local block store, and Merkle DAGs.
//!
//! * [`block`] — content-addressed blocks (real and synthetic),
//! * [`store`] — the per-node cache with LRU eviction (the mechanism behind
//!   the paper's TPI attack),
//! * [`dag`] — Merkle-DAG interior nodes with named, sized links,
//! * [`builder`] — UnixFS-style file/directory DAG construction plus typed
//!   single-block items for reproducing the multicodec mix of Table I.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod block;
pub mod builder;
pub mod dag;
pub mod store;

pub use block::Block;
pub use builder::{
    build_directory, build_file, build_typed_item, BuiltDag, DEFAULT_CHUNK_SIZE, DEFAULT_MAX_LINKS,
};
pub use dag::{DagLink, DagNode};
pub use store::{Blockstore, DEFAULT_CAPACITY};
