//! `pipeline`: the whole path, live — simulator → `MonitorService::ingest`
//! → checkpoint → tail → windowed analysis → durable window files. Every
//! layer contributes, so a gain made in isolation has to survive here.

use super::live::{self, LiveFeed, RepState};
use super::{population, warm_up};
use crate::run::{Ctx, Layers, Rep, Workload};
use crate::storage::StorageCounts;
use crate::surface::{
    build_scenario, entry_of, scenario_config, BitswapObservation, MonitorSink, Network,
};
use std::sync::Arc;

const NODES: usize = 3_000;
const DAYS: u64 = 2;

/// The collector of this workload: hands every observation to the service.
struct ServiceSink<'a>(LiveFeed<'a>);

impl MonitorSink for ServiceSink<'_> {
    fn record(&mut self, monitor: usize, observation: BitswapObservation) {
        self.0.feed(&entry_of(monitor, observation), true);
    }
}

pub struct Pipeline;

fn pipeline(ctx: &mut Ctx, counts: &Arc<StorageCounts>) -> Option<Rep> {
    let config = scenario_config(population(NODES, ctx.tiny), DAYS);
    let dir = ctx.scratch.fresh("pipeline");
    let tracer = &mut ctx.tracer;
    let counts = tracer.enabled().then_some(counts);

    let mut state = RepState::start();
    let rep_span = tracer.begin(Pipeline::REP_SPAN);
    let span = tracer.begin("workload.build");
    let (scenario, sources) = build_scenario(ctx.seed, &config);
    tracer.end(span);
    let span = tracer.begin("node.construct");
    let mut network = Network::with_sources(scenario, sources);
    tracer.end(span);
    let span = tracer.begin("core.service.open");
    let opened = live::open_service(&dir, counts);
    tracer.end(span);
    let (service, _) = ctx.tally.call("MonitorService::open", opened)?;

    let run_span = tracer.begin("node.run");
    let mut sink = ServiceSink(LiveFeed::new(service, &mut state, tracer));
    let run = network.run(&mut sink);
    let mut feed = sink.0;
    feed.end_span(run_span);
    let (ingested, polls) = (feed.ingested, feed.polls);
    let finished = feed.finish();
    ctx.tracer.end(rep_span);
    let RepState {
        oracle,
        latencies_ms,
        segments,
    } = state;
    let (wall_s, segments_s) = segments.finish();

    ctx.tally.succeeded(ingested + 2 * polls);
    let report = ctx.tally.call("MonitorService::finish", finished)?;
    let bytes_per_entry = live::check_finished(&mut ctx.tally, &dir, &oracle, &report);
    ctx.tally
        .check_eq("entries ingested", report.entries_ingested, oracle.total());
    ctx.scratch.discard(&dir);
    Some(Rep {
        wall_s,
        segments_s,
        entries: oracle.total(),
        counts: vec![
            ("node.events", run.events_processed),
            ("node.observations", oracle.total()),
            ("node.peak_pending", run.peak_pending as u64),
            ("core.service.windows_emitted", report.windows_emitted),
            ("core.service.windows_skipped", report.windows_skipped),
            ("core.service.late_dropped", report.late_dropped),
            (
                "core.service.max_open_windows",
                report.max_open_windows as u64,
            ),
            (
                "dataset_bytes",
                (bytes_per_entry * oracle.total() as f64).round() as u64,
            ),
        ],
        native: vec![("bytes_per_entry", bytes_per_entry)],
        latencies_ms,
    })
}

impl Workload for Pipeline {
    const NAME: &'static str = "pipeline";
    const REP_SPAN: &'static str = "pipeline.rep";
    type Setup = Arc<StorageCounts>;

    fn scale(tiny: bool) -> Vec<(&'static str, u64)> {
        vec![
            ("nodes", population(NODES, tiny) as u64),
            ("days", DAYS),
            ("monitors", live::MONITORS as u64),
        ]
    }

    /// Nothing to prepare: see [`warm_up`].
    fn setup(ctx: &mut Ctx) -> Option<Self::Setup> {
        warm_up(ctx, NODES, DAYS);
        Some(Arc::new(StorageCounts::default()))
    }

    fn rep(ctx: &mut Ctx, counts: &Self::Setup) -> Option<Rep> {
        pipeline(ctx, counts)
    }

    fn probes(ctx: &mut Ctx, counts: &Self::Setup, layers: &mut Layers) {
        live::storage_layers(counts, ctx.tracer.calls("core.service.open"), layers);
        live::durable_write_probe(ctx, layers);
    }
}
