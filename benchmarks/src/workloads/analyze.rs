//! `analyze`: the offline batch over a finished on-disk dataset — chunk
//! decode, k-way merge, per-chain parallel decode and the analysis sinks.
//! No simulator, no writer, no fsync. The paper's Fig. 4/5, §V-C and §VI-A
//! come out of this path; their values are the correctness check.

use super::{live, population};
use crate::run::{Ctx, Layers, Rep, Segments, Workload};
use crate::surface::{
    build_scenario, estimate_network_size_source, fit_power_law, flag_source, run_attacks_source,
    run_sink, scenario_config, ActivityCountsSink, AnalysisSink, AttackTargets, BitswapObservation,
    DatasetConfig, EntryStatsSink, ManifestCollector, ManifestReader, MonitorSink, Multiaddr,
    Network, PeerId, PopularitySink, PreprocessConfig, RequestType, RequestTypeSink, SimDuration,
    SimTime, TraceEntry, TraceSource, ANALYSIS_BUCKET,
};
use std::path::PathBuf;
use std::time::Instant;

const NODES: usize = 1_000;
const DAYS: u64 = 7;
/// Targets of the attack scan: this many most popular CIDs and most active
/// peers.
const TARGETS: usize = 3;
/// `xmin` candidates of the power-law fit.
const POWERLAW_CANDIDATES: usize = 50;
/// Entries the per-sink probes run over.
const PROBE_SLICE: usize = 1_000_000;

pub struct Analyze;

pub struct Setup {
    dir: PathBuf,
    horizon: SimDuration,
    /// Totals recorded while the dataset was written.
    written: Written,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Written {
    entries: u64,
    want_have: u64,
    want_block: u64,
}

/// Writes the dataset through the program's collector and keeps the totals
/// the analysis must find again.
struct CountingCollector {
    inner: ManifestCollector,
    written: Written,
}

impl MonitorSink for CountingCollector {
    fn record(&mut self, monitor: usize, observation: BitswapObservation) {
        self.written.entries += 1;
        match observation.request_type {
            RequestType::WantHave => self.written.want_have += 1,
            RequestType::WantBlock => self.written.want_block += 1,
            RequestType::Cancel => {}
        }
        self.inner.record(monitor, observation);
    }

    fn peer_connected(&mut self, monitor: usize, peer: PeerId, address: Multiaddr, at: SimTime) {
        self.inner.peer_connected(monitor, peer, address, at);
    }

    fn peer_disconnected(&mut self, monitor: usize, peer: PeerId, at: SimTime) {
        self.inner.peer_disconnected(monitor, peer, at);
    }
}

/// Counts entries: the sink of the drain probes.
#[derive(Clone, Default)]
struct CountSink(u64);

impl AnalysisSink for CountSink {
    type Output = u64;
    fn consume(&mut self, entry: TraceEntry) {
        std::hint::black_box(&entry);
        self.0 += 1;
    }
    fn combine(&mut self, other: Self) {
        self.0 += other.0;
    }
    fn finish(self) -> u64 {
        self.0
    }
}

/// Runs `f` as the span `name` and as one segment of the repetition.
fn pass<T>(ctx: &mut Ctx, segments: &mut Segments, name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = ctx.tracer.begin(name);
    let out = f();
    ctx.tracer.end(span);
    segments.cut();
    out
}

impl Workload for Analyze {
    const NAME: &'static str = "analyze";
    const REP_SPAN: &'static str = "analyze.rep";
    type Setup = Setup;

    fn scale(tiny: bool) -> Vec<(&'static str, u64)> {
        vec![
            ("nodes", population(NODES, tiny) as u64),
            ("days", DAYS),
            ("monitors", live::MONITORS as u64),
        ]
    }

    /// Writes the dataset: the live simulator into `ManifestCollector`, so
    /// connection records are present.
    fn setup(ctx: &mut Ctx) -> Option<Setup> {
        let config = scenario_config(population(NODES, ctx.tiny), DAYS);
        let dir = ctx.scratch.fresh("dataset");
        let (scenario, sources) = build_scenario(ctx.seed, &config);
        let collector = ManifestCollector::new(live::labels(), &dir, DatasetConfig::default());
        let mut collector = CountingCollector {
            inner: ctx.tally.call("ManifestCollector::new", collector)?,
            written: Written::default(),
        };
        Network::with_sources(scenario, sources).run(&mut collector);
        let written = collector.written;
        let summary = ctx
            .tally
            .call("ManifestCollector::finish", collector.inner.finish())?;
        ctx.tally
            .check_eq("entries written", summary.total_entries, written.entries);
        Some(Setup {
            dir,
            horizon: config.horizon,
            written,
        })
    }

    fn rep(ctx: &mut Ctx, setup: &Setup) -> Option<Rep> {
        let mut segments = Segments::start();
        let rep_span = ctx.tracer.begin(Self::REP_SPAN);
        let opened = pass(ctx, &mut segments, "tracestore.reader.open", || {
            ManifestReader::open(&setup.dir)
        });
        let reader = ctx.tally.call("ManifestReader::open", opened)?;

        // (i) preprocessing, streamed and counted.
        let flagged = pass(ctx, &mut segments, "core.preprocess.flag", || {
            let mut stream = flag_source(&reader, PreprocessConfig::default());
            let seen = (&mut stream).count();
            match stream.take_source_error() {
                Some(error) => Err(error),
                None => Ok((seen, stream.stats())),
            }
        });
        let (seen, stats) = ctx.tally.call("flag_source", flagged)?;

        // (ii) four sinks composed into one parallel pass, no merge.
        let passed = pass(ctx, &mut segments, "core.sinks.pass", || {
            reader.run_parallel((
                (RequestTypeSink::new(ANALYSIS_BUCKET), PopularitySink::new()),
                (ActivityCountsSink::new(), EntryStatsSink::new()),
            ))
        });
        let ((series, popularity), (activity, entry_stats)) =
            ctx.tally.call("run_parallel", passed)?;

        // (iii) network size from hourly peer-set snapshots.
        let end = SimTime::from_millis(setup.horizon.as_millis());
        let estimated = pass(ctx, &mut segments, "core.netsize.estimate", || {
            estimate_network_size_source(&reader, SimTime::ZERO, end, ANALYSIS_BUCKET)
        });
        let netsize = ctx.tally.call("estimate_network_size_source", estimated)?;

        // (iv) the trace-driven attacks on what (ii) found most popular
        // and most active.
        let targets = AttackTargets {
            idw_cids: popularity
                .top_k(TARGETS, false)
                .into_iter()
                .map(|(cid, _)| cid)
                .collect(),
            tnw_peers: activity
                .per_peer
                .iter()
                .take(TARGETS)
                .map(|&(peer, _)| peer)
                .collect(),
            tpi_probes: Vec::new(),
        };
        let scanned = pass(ctx, &mut segments, "core.attacks.scan", || {
            run_attacks_source(&reader, PreprocessConfig::default(), &targets, None)
        });
        let attacks = ctx.tally.call("run_attacks_source", scanned)?;

        // (v) power-law fit of the raw popularity scores. The scores come
        // out of a hash map; sorted, the fit sees the same input every run.
        let mut scores: Vec<f64> = popularity.rrp.values().map(|&v| v as f64).collect();
        scores.sort_by(f64::total_cmp);
        let fit = pass(ctx, &mut segments, "analysis.powerlaw_fit", || {
            fit_power_law(&scores, POWERLAW_CANDIDATES)
        });
        ctx.tracer.end(rep_span);
        let (wall_s, segments_s) = segments.finish();
        ctx.tally.check(fit.is_some(), || "no power-law fit".into());

        let (want_have, want_block) = series
            .iter()
            .flat_map(|s| &s.rows)
            .fold((0, 0), |(h, b), row| (h + row.1, b + row.2));
        let found = Written {
            entries: entry_stats.iter().map(|m| m.entries).sum(),
            want_have,
            want_block,
        };
        ctx.tally
            .check_eq("totals found == totals written", found, setup.written);
        ctx.tally
            .check_eq("entries flagged", seen as u64, setup.written.entries);
        let idw_hits: usize = attacks.idw.values().map(Vec::len).sum();
        ctx.tally.check(idw_hits > 0, || {
            "the most popular CIDs have no wanters".into()
        });
        Some(Rep {
            wall_s,
            segments_s,
            entries: setup.written.entries,
            counts: vec![
                ("entries", found.entries),
                ("want_have", found.want_have),
                ("want_block", found.want_block),
                ("core.preprocess.primary", stats.primary as u64),
                ("snapshots", netsize.snapshots.len() as u64),
                ("cids", popularity.cid_count() as u64),
                ("idw_observations", idw_hits as u64),
            ],
            native: Vec::new(),
            latencies_ms: Vec::new(),
        })
    }

    fn probes(ctx: &mut Ctx, setup: &Setup, layers: &mut Layers) {
        let entries = setup.written.entries as f64;
        if let Some(&flag_s) = layers.get("core.preprocess.flag_s") {
            layers.insert(
                "core.preprocess.flag_entries_per_s".into(),
                entries / flag_s,
            );
        }
        let Some(reader) = ctx.tally.call(
            "probe ManifestReader::open",
            ManifestReader::open(&setup.dir),
        ) else {
            return;
        };
        // Decode + merge + materialise, and decode alone: the two ways the
        // passes read the dataset, with a sink that does nothing.
        let start = Instant::now();
        let merged = run_sink(&reader, CountSink::default());
        let merged_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let parallel = reader.run_parallel(CountSink::default());
        let parallel_s = start.elapsed().as_secs_f64();
        for (name, drained, seconds) in [
            ("merged", merged, merged_s),
            ("parallel", parallel, parallel_s),
        ] {
            if let Some(count) = ctx.tally.call("probe drain", drained) {
                ctx.tally
                    .check_eq("probe drain entries", count, setup.written.entries);
                layers.insert(
                    format!("tracestore.reader.{name}_drain_entries_per_s"),
                    count as f64 / seconds,
                );
            }
        }

        // Each sink of pass (ii) alone over an in-memory slice.
        let slice: Vec<TraceEntry> = reader.merged_entries().take(PROBE_SLICE).collect();
        fn alone<K: AnalysisSink>(slice: &[TraceEntry], mut sink: K) -> f64 {
            let start = Instant::now();
            for entry in slice {
                sink.consume(entry.clone());
            }
            std::hint::black_box(sink.finish());
            start.elapsed().as_nanos() as f64 / slice.len().max(1) as f64
        }
        for (name, ns) in [
            (
                "request_types",
                alone(&slice, RequestTypeSink::new(ANALYSIS_BUCKET)),
            ),
            ("popularity", alone(&slice, PopularitySink::new())),
            ("activity", alone(&slice, ActivityCountsSink::new())),
            ("entry_stats", alone(&slice, EntryStatsSink::new())),
        ] {
            layers.insert(format!("core.sinks.{name}_ns_per_entry"), ns);
        }
    }
}
