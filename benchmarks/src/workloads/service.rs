//! `service`: `MonitorService` alone, fed from memory, with one crash in the
//! middle. `tracestore` writes beside reads on the same files — encode,
//! fsync, tail decode, window seal, durable window write, recovery, replay —
//! with the simulator out of the timed section.

use super::live::{self, LiveFeed, RepState};
use super::population;
use crate::feed::LappedFeed;
use crate::run::{Ctx, Layers, Rep, Workload};
use crate::storage::StorageCounts;
use crate::surface::{
    build_scenario, recover_dataset, scenario_config, windowed_request_types, AnalysisSink,
    DatasetConfig, DatasetTail, DatasetWriter, LatePolicy, MonitorCollector, Network,
    SpaceSavingSink, TraceEntry, TraceSource, WindowSpec, ANALYSIS_BUCKET, LATENESS, WINDOW,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 1_500;
const DAYS: u64 = 2;
/// The base trace is fed this many times back to back (once under `--tiny`).
const LAPS: u64 = 2;

fn laps(tiny: bool) -> u64 {
    if tiny {
        1
    } else {
        LAPS
    }
}

pub struct Service;

pub struct Setup {
    feed: LappedFeed,
    counts: Arc<StorageCounts>,
}

/// Feeds `feed[range]` to the service, skipping for each monitor the first
/// `durable[monitor]` entries (its chain holds them already), and counting
/// in the oracle only entries at or past `counted` (the rest were counted
/// before the crash).
fn feed_range(
    live: &mut LiveFeed<'_>,
    feed: &LappedFeed,
    range: std::ops::Range<usize>,
    durable: &[u64],
    counted: usize,
) {
    let mut offered = vec![0u64; durable.len()];
    let span = live.tracer().begin("bench.feed");
    for index in range {
        let monitor = feed.monitor_of(index);
        offered[monitor] += 1;
        if offered[monitor] > durable[monitor] {
            live.feed(&feed.entry(index), index >= counted);
        }
    }
    live.end_span(span);
}

/// Feeds the first half and drops the service: a crashed dataset directory.
/// `None` if a program call failed (tallied).
fn crashed_half(ctx: &mut Ctx, setup: &Setup, dir: &Path, state: &mut RepState) -> Option<()> {
    let counts = ctx.tracer.enabled().then_some(&setup.counts);
    let span = ctx.tracer.begin("core.service.open");
    let opened = live::open_service(dir, counts);
    ctx.tracer.end(span);
    let (service, _) = ctx.tally.call("MonitorService::open", opened)?;
    let mut live = LiveFeed::new(service, state, &mut ctx.tracer);
    feed_range(&mut live, &setup.feed, 0..setup.feed.len() / 2, &[0, 0], 0);
    let (ingested, polls) = (live.ingested, live.polls);
    let crashed = live.crash();
    ctx.tally.succeeded(ingested + 2 * polls);
    ctx.tally
        .call("first incarnation", crashed.map_or(Ok(()), Err))
}

impl Workload for Service {
    const NAME: &'static str = "service";
    const REP_SPAN: &'static str = "service.rep";
    type Setup = Setup;

    fn scale(tiny: bool) -> Vec<(&'static str, u64)> {
        vec![
            ("nodes", population(NODES, tiny) as u64),
            ("days", DAYS),
            ("laps", laps(tiny)),
            ("monitors", live::MONITORS as u64),
        ]
    }

    /// Generates the base trace with the simulator and holds it in memory
    /// in merged order.
    fn setup(ctx: &mut Ctx) -> Option<Setup> {
        let config = scenario_config(population(NODES, ctx.tiny), DAYS);
        let (scenario, sources) = build_scenario(ctx.seed, &config);
        let mut collector = MonitorCollector::new(live::labels());
        Network::with_sources(scenario, sources).run(&mut collector);
        let base: Vec<TraceEntry> = collector.into_dataset().merged_entries().collect();
        ctx.tally.check(base.len() > 1_000, || {
            format!("base trace of {} entries", base.len())
        });
        Some(Setup {
            feed: LappedFeed::new(base, laps(ctx.tiny), config.horizon),
            counts: Arc::new(StorageCounts::default()),
        })
    }

    fn rep(ctx: &mut Ctx, setup: &Setup) -> Option<Rep> {
        let dir = ctx.scratch.fresh("service");
        let total = setup.feed.len();
        let counts = ctx.tracer.enabled().then_some(&setup.counts);

        let mut state = RepState::start();
        let rep_span = ctx.tracer.begin(Self::REP_SPAN);
        crashed_half(ctx, setup, &dir, &mut state)?;

        // Restart: recover, resume, replay the durable prefix through the
        // windowed sink; windows already durable are suppressed.
        let restart = Instant::now();
        let span = ctx.tracer.begin("core.service.reopen");
        let reopened = live::open_service(&dir, counts);
        ctx.tracer.end(span);
        let (service, recovery) = ctx.tally.call("MonitorService::open (restart)", reopened)?;
        let windows_durable = service.windows_durable_at_open();
        let mut live = LiveFeed::new(service, &mut state, &mut ctx.tracer);
        live.poll("core.service.replay", false);
        let restart_catchup_s = restart.elapsed().as_secs_f64();
        live.cut_segment();

        // Resume every monitor from its cursor: feed again what the crash
        // lost, then the second half.
        let mut durable = vec![0u64; live::MONITORS];
        for cursor in &recovery.resume {
            durable[cursor.monitor] = cursor.entries_durable;
        }
        let replayed: u64 = durable.iter().sum();
        feed_range(&mut live, &setup.feed, 0..total, &durable, total / 2);
        let (ingested, polls) = (live.ingested, live.polls);
        let finished = live.finish();
        ctx.tracer.end(rep_span);
        let RepState {
            oracle,
            latencies_ms,
            segments,
        } = state;
        let (wall_s, segments_s) = segments.finish();

        ctx.tally.succeeded(ingested + 2 * polls);
        let report = ctx.tally.call("MonitorService::finish", finished)?;
        ctx.tally
            .check_eq("entries fed", oracle.total(), total as u64);
        ctx.tally.check_eq(
            "entries ingested after the restart",
            report.entries_ingested,
            total as u64 - replayed,
        );
        ctx.tally.check_eq(
            "windows suppressed by the replay",
            report.windows_skipped,
            windows_durable,
        );
        let bytes_per_entry = live::check_finished(&mut ctx.tally, &dir, &oracle, &report);
        ctx.scratch.discard(&dir);
        Some(Rep {
            wall_s,
            segments_s,
            entries: total as u64,
            counts: vec![
                ("entries_replayed", replayed),
                ("core.service.windows_emitted", report.windows_emitted),
                ("core.service.windows_skipped", report.windows_skipped),
                ("core.service.late_dropped", report.late_dropped),
                (
                    "core.service.max_open_windows",
                    report.max_open_windows as u64,
                ),
                (
                    "dataset_bytes",
                    (bytes_per_entry * total as f64).round() as u64,
                ),
            ],
            native: vec![
                ("restart_catchup_s", restart_catchup_s),
                ("bytes_per_entry", bytes_per_entry),
            ],
            latencies_ms,
        })
    }

    fn probes(ctx: &mut Ctx, setup: &Setup, layers: &mut Layers) {
        if let (Some(&replay_s), Some(&replayed)) = (
            layers.get("core.service.replay_s"),
            layers.get("entries_replayed"),
        ) {
            layers.insert(
                "core.service.replay_entries_per_s".into(),
                replayed / replay_s,
            );
        }
        live::storage_layers(&setup.counts, ctx.tracer.calls("core.service.open"), layers);
        live::durable_write_probe(ctx, layers);
        let feed = &setup.feed;
        let entries = feed.len() as f64;

        // Recovery alone, on a directory crashed the way the workload
        // crashes it.
        let dir = ctx.scratch.fresh("probe-crashed");
        if crashed_half(ctx, setup, &dir, &mut RepState::start()).is_some() {
            let start = Instant::now();
            let recovered = recover_dataset(&dir);
            let recover_s = start.elapsed().as_secs_f64();
            if let Some(report) = ctx.tally.call("probe recover_dataset", recovered) {
                layers.insert("tracestore.recover.recover_s".into(), recover_s);
                layers.insert(
                    "tracestore.recover.entries_recovered".into(),
                    report.entries_recovered as f64,
                );
                layers.insert(
                    "tracestore.recover.segments_truncated".into(),
                    report.segments_truncated as f64,
                );
            }
        }
        ctx.scratch.discard(&dir);

        // The writer alone: the whole feed, no checkpoints.
        let dir = ctx.scratch.fresh("probe-writer");
        let written = (|| {
            let start = Instant::now();
            let mut writer = DatasetWriter::create(&dir, live::labels(), DatasetConfig::default())?;
            for index in 0..feed.len() {
                writer.append(&feed.entry(index))?;
            }
            let append_s = start.elapsed().as_secs_f64();
            writer.finish()?;
            Ok::<_, crate::surface::SegmentError>((
                append_s,
                start.elapsed().as_secs_f64() - append_s,
            ))
        })();
        if let Some((append_s, finish_s)) = ctx.tally.call("probe DatasetWriter", written) {
            layers.insert(
                "tracestore.writer.append_ns_per_entry".into(),
                append_s * 1e9 / entries,
            );
            layers.insert("tracestore.writer.finish_s".into(), finish_s);

            // The tail alone over what the writer left: decode only.
            let mut tail = DatasetTail::open(&dir, live::MONITORS);
            let start = Instant::now();
            let polled = tail.poll(|entry| {
                std::hint::black_box(entry);
            });
            let poll_s = start.elapsed().as_secs_f64();
            if let Some(polled) = ctx.tally.call("probe DatasetTail::poll", polled) {
                ctx.tally
                    .check_eq("tail probe entries", polled.entries, feed.len() as u64);
                layers.insert(
                    "tracestore.tail.poll_entries_per_s".into(),
                    polled.entries as f64 / poll_s,
                );
                layers.insert("tracestore.tail.frames".into(), polled.chunks as f64);
            }
        }
        ctx.scratch.discard(&dir);

        // Window bookkeeping and the top-K sketch alone: no I/O.
        fn consume_ns(feed: &LappedFeed, mut sink: impl FnMut(TraceEntry)) -> f64 {
            let start = Instant::now();
            for index in 0..feed.len() {
                sink(feed.entry(index));
            }
            start.elapsed().as_nanos() as f64 / feed.len() as f64
        }
        let mut windowed = windowed_request_types(
            live::MONITORS,
            WindowSpec::tumbling(WINDOW),
            LATENESS,
            LatePolicy::Drop,
            ANALYSIS_BUCKET,
        );
        layers.insert(
            "tracestore.window.consume_ns_per_entry".into(),
            consume_ns(feed, |entry| windowed.consume(entry)),
        );
        let mut sketch = SpaceSavingSink::new(8);
        layers.insert(
            "tracestore.sketch.spacesaving_ns_per_entry".into(),
            consume_ns(feed, |entry| sketch.consume(entry)),
        );
    }
}
