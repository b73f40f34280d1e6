//! Runtime observability for the monitoring pipeline: lock-free metrics,
//! stage-timing spans, and a JSONL heartbeat reporter.
//!
//! The paper's premise is *monitoring the monitors*; this crate makes our own
//! pipeline observable while it runs. Three pieces:
//!
//! - **Metrics core** ([`metrics`]): named counters, gauges, and log2-bucketed
//!   histograms in one process-wide set of `static` atomics. The hot path is
//!   a relaxed `fetch_add` — no locks — and [`snapshot`] loads every
//!   registered metric on demand; its memory is fixed, however many threads
//!   come and go. Hot loops batch or sample, so threads sharing an atomic
//!   rarely meet on it. This generalizes the `TypedCounters` pattern from
//!   `ipfs-mon-simnet` to process-wide, dynamically named metrics shared by
//!   ingest, decode, analysis, and simulation.
//! - **Stage-timing spans** ([`Histogram::timer`]): cheap RAII timers that
//!   record wall-clock nanoseconds into a histogram when dropped. Hot loops
//!   sample (e.g. 1 in 1024 events) so the span cost stays in the noise.
//! - **Heartbeat reporter** ([`report::Reporter`]): a background thread that
//!   periodically writes a [`metrics::Snapshot`] as one JSON line —
//!   counters, per-second rates, gauges, histogram quantiles, and an
//!   `events_per_sec` progress figure — to a file or stdout. A final line is
//!   always emitted on shutdown so even sub-interval runs produce telemetry.
//!
//! # Example
//!
//! ```
//! use ipfs_mon_obs as obs;
//!
//! let entries = obs::counter("doc.entries");
//! let decode = obs::histogram("doc.decode_ns");
//! for batch in 0..4u64 {
//!     let _span = decode.timer(); // records on drop
//!     entries.add(100 + batch);
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counters["doc.entries"], 406);
//! assert_eq!(snap.histograms["doc.decode_ns"].count, 4);
//! ```

pub mod metrics;
pub mod report;

pub use metrics::{
    bucket_bounds, bucket_index, counter, gauge, histogram, snapshot, BatchedCounter, Counter,
    Gauge, Histogram, HistogramSnapshot, Snapshot, SpanTimer,
};
pub use report::{Reporter, ReporterConfig};
