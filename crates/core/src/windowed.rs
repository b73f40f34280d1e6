//! Windowed adapters over the paper's analyses: factories that plug the
//! existing accumulators into
//! [`WindowedSink`], producing
//! per-window request-type series, rolling popularity, and daily (or any
//! interval) network-size reports from a live stream.
//!
//! Each factory builds a fresh per-window
//! [`AnalysisSink`](ipfs_mon_tracestore::AnalysisSink); the windowing
//! machinery (watermarks, late-entry policy, sealing, callback/deferred
//! emission) lives in [`ipfs_mon_tracestore::window`]. The convenience
//! constructors here return *deferred* sinks (sealed windows collected
//! into [`WindowedOutput`](ipfs_mon_tracestore::WindowedOutput), ready for
//! `run_sink`/`run_parallel`); the continuous service builds
//! callback-mode sinks from the same factories.

use crate::netsize::SnapshotBuilder;
use crate::sinks::{PopularitySink, RequestTypeSink};
use crate::trace::ConnectionRecord;
use ipfs_mon_simnet::time::{SimDuration, SimTime};
use ipfs_mon_tracestore::{LatePolicy, WindowBounds, WindowSpec, WindowedSink};
use std::sync::Arc;

/// Factory for per-window request-type series accumulators (Fig. 4 per
/// window): one [`RequestTypeSink`] with the given bucket width per
/// window.
pub fn request_type_window_factory(
    bucket: SimDuration,
) -> impl Fn(&WindowBounds) -> RequestTypeSink + Clone + Send + Sync {
    move |_| RequestTypeSink::new(bucket)
}

/// Factory for rolling-popularity accumulators: a fresh
/// [`PopularitySink`] (RRP + URP over primary requests) per window.
pub fn popularity_window_factory() -> impl Fn(&WindowBounds) -> PopularitySink + Clone + Send + Sync
{
    |_| PopularitySink::new()
}

/// Factory for per-window network-size estimation: a [`SnapshotBuilder`]
/// snapshotting every `interval` at `start, start + interval, …` strictly
/// inside the window's `[start, end)`, seeded with every record of the shared
/// connection log that overlaps the window, absorbing the window's entries
/// as Bitswap-activity evidence.
pub fn netsize_window_factory(
    monitors: usize,
    interval: SimDuration,
    connections: Arc<Vec<ConnectionRecord>>,
) -> impl Fn(&WindowBounds) -> SnapshotBuilder + Clone + Send + Sync {
    move |bounds| {
        // The builder sweeps an inclusive `[start, end]` grid; stop one
        // millisecond short so the snapshot at the next window's start is
        // not double-reported.
        let sweep_end = SimTime::from_millis(bounds.end.as_millis() - 1);
        let mut builder = SnapshotBuilder::new(monitors, bounds.start, sweep_end, interval);
        for record in connections.iter() {
            let overlaps = record.connected_at < bounds.end
                && record.disconnected_at.is_none_or(|d| d > bounds.start);
            if overlaps {
                builder.observe_connection(record);
            }
        }
        builder
    }
}

/// Deferred windowed request-type series: seals one `Vec<RequestTypeSeries>`
/// (indexed by monitor) per window.
pub fn windowed_request_types(
    monitors: usize,
    spec: WindowSpec,
    lateness: SimDuration,
    policy: LatePolicy,
    bucket: SimDuration,
) -> WindowedSink<RequestTypeSink, impl Fn(&WindowBounds) -> RequestTypeSink + Clone + Send + Sync>
{
    WindowedSink::deferred(
        monitors,
        spec,
        lateness,
        policy,
        request_type_window_factory(bucket),
    )
}

/// Deferred rolling popularity: seals one
/// [`PopularityScores`](crate::popularity::PopularityScores) per window.
pub fn windowed_popularity(
    monitors: usize,
    spec: WindowSpec,
    lateness: SimDuration,
    policy: LatePolicy,
) -> WindowedSink<PopularitySink, impl Fn(&WindowBounds) -> PopularitySink + Clone + Send + Sync> {
    WindowedSink::deferred(
        monitors,
        spec,
        lateness,
        policy,
        popularity_window_factory(),
    )
}

/// Deferred windowed network-size estimation (daily netsize when `spec`
/// tumbles by days): seals one
/// [`NetworkSizeReport`](crate::netsize::NetworkSizeReport) per window.
pub fn windowed_netsize(
    monitors: usize,
    spec: WindowSpec,
    lateness: SimDuration,
    policy: LatePolicy,
    interval: SimDuration,
    connections: Arc<Vec<ConnectionRecord>>,
) -> WindowedSink<SnapshotBuilder, impl Fn(&WindowBounds) -> SnapshotBuilder + Clone + Send + Sync>
{
    WindowedSink::deferred(
        monitors,
        spec,
        lateness,
        policy,
        netsize_window_factory(monitors, interval, connections),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EntryFlags, TraceEntry};
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_types::{Cid, Country, Multiaddr, Multicodec, PeerId, Transport};

    fn entry(ms: u64, monitor: usize, rtype: RequestType) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_millis(ms),
            peer: PeerId::derived(7, ms % 5),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Us),
            request_type: rtype,
            cid: Cid::new_v1(Multicodec::Raw, &[(ms % 3) as u8]),
            monitor,
            flags: EntryFlags::default(),
        }
    }

    #[test]
    fn windowed_request_types_split_by_window() {
        let spec = WindowSpec::tumbling(SimDuration::from_secs(10));
        let mut sink = windowed_request_types(
            1,
            spec,
            SimDuration::ZERO,
            LatePolicy::Strict,
            SimDuration::from_secs(1),
        );
        use ipfs_mon_tracestore::AnalysisSink as _;
        sink.consume(entry(1_000, 0, RequestType::WantHave));
        sink.consume(entry(2_000, 0, RequestType::WantBlock));
        sink.consume(entry(12_000, 0, RequestType::WantHave));
        let out = sink.finish();
        assert_eq!(out.results.len(), 2);
        let first = &out.results[0].output[0];
        let totals: (u64, u64) = first
            .rows
            .iter()
            .fold((0, 0), |(h, b), &(_, wh, wb)| (h + wh, b + wb));
        assert_eq!(totals, (1, 1));
        assert_eq!(out.results[1].entries, 1);
    }

    #[test]
    fn windowed_netsize_seeds_overlapping_connections() {
        let spec = WindowSpec::tumbling(SimDuration::from_secs(10));
        let peer = PeerId::derived(9, 1);
        let connections = Arc::new(vec![ConnectionRecord {
            monitor: 0,
            peer,
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Us),
            connected_at: SimTime::from_secs(2),
            disconnected_at: Some(SimTime::from_secs(14)),
        }]);
        let mut sink = windowed_netsize(
            1,
            spec,
            SimDuration::ZERO,
            LatePolicy::Strict,
            SimDuration::from_secs(5),
            connections,
        );
        use ipfs_mon_tracestore::AnalysisSink as _;
        sink.consume(entry(3_000, 0, RequestType::WantHave));
        sink.consume(entry(21_000, 0, RequestType::WantHave));
        let out = sink.finish();
        assert_eq!(out.results.len(), 3);
        // Window 0 ([0,10)s): connection active at snapshot t=5s.
        let w0 = &out.results[0].output;
        assert!(w0.snapshots.iter().any(|s| s.sizes[0] == 1));
        // Window 2 ([20,30)s): connection gone by t=20s.
        let w2 = &out.results[2].output;
        assert!(w2.snapshots.iter().all(|s| s.sizes[0] == 0));
    }
}
