//! Deterministic simulation substrate for the IPFS Bitswap monitoring suite.
//!
//! The paper monitors the live IPFS network; this workspace replays the same
//! methodology against a simulated network. This crate provides the
//! foundations of that simulation:
//!
//! * [`time`] — millisecond-resolution simulated clock and durations,
//! * [`scheduler`] — a deterministic discrete-event queue (a hierarchical
//!   timer wheel),
//! * [`source`] — pull-based event sources for lazy event generation,
//! * [`index_map`] — hash maps keyed by dense content or node indices,
//! * [`rng`] — seeded randomness with labelled sub-streams,
//! * [`region`] — country mixes (GeoIP substitute) and an inter-region
//!   latency model,
//! * [`churn`] — heavy-tailed online/offline session schedules,
//! * [`metrics`] — counters and time-bucketed series for experiment output.
//!
//! All higher layers (DHT, Bitswap, the node model, the monitor) are driven by
//! a [`scheduler::Scheduler`] and draw randomness exclusively from
//! [`rng::SimRng`] streams, so every experiment is reproducible from its seed.

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![forbid(unsafe_code)]

pub mod churn;
pub mod index_map;
pub mod metrics;
pub mod region;
pub mod rng;
pub mod scheduler;
pub mod source;
pub mod time;

pub use churn::{
    ChurnEvent, ChurnModel, NodeSchedule, OnlineSession, ScheduleCursor, ScheduleSource,
};
pub use index_map::IndexMap;
pub use metrics::{BucketedSeries, CounterId, Counters, TypedCounters};
pub use region::{CountryMix, LatencyModel, LatencyTable};
pub use rng::SimRng;
pub use scheduler::Scheduler;
pub use source::{EventSource, IterSource};
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_compose() {
        // A tiny end-to-end: schedule message deliveries with latencies drawn
        // from the region model and count them per hour.
        let mut rng = SimRng::new(123);
        let latency = LatencyModel::default();
        let mix = CountryMix::paper_table2();
        let mut sched: Scheduler<&'static str> = Scheduler::new();
        let mut series = BucketedSeries::hourly();

        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t += SimDuration::from_secs(120);
            let from = mix.sample(&mut rng);
            let to = mix.sample(&mut rng);
            sched.schedule_at(t + latency.sample(&mut rng, from, to), "delivery");
        }
        while let Some((at, _)) = sched.pop() {
            series.record(at);
        }
        assert_eq!(series.total(), 100);
        assert!(series.dense().len() >= 3);
    }
}
