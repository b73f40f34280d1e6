//! `simulate`: scenario construction and the event loop, into a sink that
//! only counts and digests. `workload`, `simnet` and `node` do all the work
//! and `tracestore`/`core` none.

use super::{population, warm_up};
use crate::run::{Ctx, Layers, Rep, Segments, Workload};
use crate::surface::{
    build_scenario, scenario_config, BitswapObservation, MonitorSink, Network, Scheduler, SimTime,
};
use std::time::Instant;

const NODES: usize = 2_500;
const DAYS: u64 = 7;
/// Synthetic events of the scheduler probe.
const PROBE_EVENTS: u64 = 4_000_000;

/// Observations per segment of the repetition's clock.
const SEGMENT: u64 = 8_192;

/// Counts observations and folds `(monitor, timestamp, request type)` into
/// an order-sensitive digest (FNV-1a over the three values).
struct DigestSink {
    observations: u64,
    digest: u64,
    segments: Segments,
}

impl MonitorSink for DigestSink {
    fn record(&mut self, monitor: usize, observation: BitswapObservation) {
        self.observations += 1;
        if self.observations.is_multiple_of(SEGMENT) {
            self.segments.cut();
        }
        for value in [
            monitor as u64,
            observation.timestamp.as_millis(),
            observation.request_type as u64,
        ] {
            self.digest = (self.digest ^ value).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

pub struct Simulate;

/// One simulation of `nodes` nodes; the repetition proper and the warm-up.
pub fn simulate(ctx: &mut Ctx, nodes: usize, days: u64) -> Rep {
    let config = scenario_config(nodes, days);
    let tracer = &mut ctx.tracer;
    let mut sink = DigestSink {
        observations: 0,
        digest: 0,
        segments: Segments::start(),
    };
    let rep_span = tracer.begin(Simulate::REP_SPAN);
    let span = tracer.begin("workload.build");
    let (scenario, sources) = build_scenario(ctx.seed, &config);
    tracer.end(span);
    let span = tracer.begin("node.construct");
    let mut network = Network::with_sources(scenario, sources);
    tracer.end(span);
    // The sink's few arithmetic operations per observation are not timed
    // apart: `node.run` is all simulator.
    let span = tracer.begin("node.run");
    let report = network.run(&mut sink);
    tracer.end(span);
    tracer.end(rep_span);
    let (wall_s, segments_s) = sink.segments.finish();
    ctx.tally.succeeded(1);
    Rep {
        wall_s,
        segments_s,
        entries: sink.observations,
        counts: vec![
            ("node.events", report.events_processed),
            ("node.observations", sink.observations),
            ("node.peak_pending", report.peak_pending as u64),
            ("digest", sink.digest),
        ],
        native: Vec::new(),
        latencies_ms: Vec::new(),
    }
}

impl Workload for Simulate {
    const NAME: &'static str = "simulate";
    const REP_SPAN: &'static str = "simulate.rep";
    type Setup = ();

    fn scale(tiny: bool) -> Vec<(&'static str, u64)> {
        vec![
            ("nodes", population(NODES, tiny) as u64),
            ("days", DAYS),
            ("monitors", 2),
        ]
    }

    /// Nothing to prepare: see [`warm_up`].
    fn setup(ctx: &mut Ctx) -> Option<()> {
        warm_up(ctx, NODES, DAYS);
        Some(())
    }

    fn rep(ctx: &mut Ctx, _: &()) -> Option<Rep> {
        let rep = simulate(ctx, population(NODES, ctx.tiny), DAYS);
        ctx.tally
            .check(rep.entries > 0, || "no observations".into());
        Some(rep)
    }

    fn probes(_: &mut Ctx, _: &(), layers: &mut Layers) {
        // The timer wheel alone: schedule synthetic events a pseudo-random
        // distance ahead (up to ~1 min, the range of network latencies and
        // protocol timers), draining as simulated time advances.
        let mut scheduler: Scheduler<u64> = Scheduler::new();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut delivered = 0u64;
        let start = Instant::now();
        for i in 0..PROBE_EVENTS {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            scheduler.schedule_at(SimTime::from_millis(i / 4 + state % 60_000), i);
            if i % 64 == 63 {
                while let Some(event) = scheduler.pop_until(SimTime::from_millis(i / 4)) {
                    std::hint::black_box(event);
                    delivered += 1;
                }
            }
        }
        while scheduler.pop().is_some() {
            delivered += 1;
        }
        let elapsed = start.elapsed();
        assert_eq!(delivered, PROBE_EVENTS, "the scheduler lost events");
        layers.insert(
            "simnet.scheduler_ns_per_event".into(),
            elapsed.as_nanos() as f64 / PROBE_EVENTS as f64,
        );
    }
}
