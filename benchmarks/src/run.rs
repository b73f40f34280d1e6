//! One workload in one process: set-up, timed repetitions for `--seconds`,
//! output checks, and (traced run only) the per-layer numbers.

use crate::host::{self, Scratch};
use crate::json::{self, metrics_object, object};
use crate::metrics::{self, END_TO_END, SPAN_SECONDS};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{Span, Tracer};
use serde::content::Content;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Repetitions every run makes even if `--seconds` is already used up: the
/// across-repetition checks need something to compare.
const MIN_REPS: usize = 3;

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub tiny: bool,
    pub scratch_root: PathBuf,
    pub out: Option<PathBuf>,
}

/// Attempted and failed program calls and output checks.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// `n` program calls that returned success.
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        eprintln!("FAILED: {what}");
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// One program call; its value if it succeeded.
    pub fn call<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.fail(format!("{what}: {error}"));
                None
            }
        }
    }

    /// One output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(got == want, || {
            format!("{what}: got {got:?}, want {want:?}")
        });
    }
}

/// What a workload gets to work with.
pub struct Ctx {
    pub seed: u64,
    pub tiny: bool,
    pub scratch: Scratch,
    pub tracer: Tracer,
    pub tally: Tally,
}

/// The clock of one repetition's timed section, cut into segments at fixed
/// points of the work (every 16 384 entries, every pass, …). The work is
/// deterministic, so segment `i` does the same work in every repetition.
pub struct Segments {
    start: Instant,
    last: Instant,
    durations_s: Vec<f64>,
}

impl Segments {
    /// Starts the timed section.
    pub fn start() -> Self {
        let now = Instant::now();
        Self {
            start: now,
            last: now,
            durations_s: Vec::new(),
        }
    }

    /// Ends the current segment here.
    pub fn cut(&mut self) {
        let now = Instant::now();
        self.durations_s.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    /// Ends the timed section: its wall time and its segments.
    pub fn finish(mut self) -> (f64, Vec<f64>) {
        self.cut();
        ((self.last - self.start).as_secs_f64(), self.durations_s)
    }
}

/// The time the repetitions' work takes undisturbed: for each segment its
/// fastest time in any repetition, summed. On a shared host a repetition of
/// seconds is rarely undisturbed from end to end; a segment of tens of
/// milliseconds often is. `None` unless all repetitions have the same
/// segments.
pub fn undisturbed_s(reps: &[Rep]) -> Option<f64> {
    let first = reps.first()?;
    if reps
        .iter()
        .any(|r| r.segments_s.len() != first.segments_s.len())
    {
        return None;
    }
    Some(
        (0..first.segments_s.len())
            .map(|i| {
                reps.iter()
                    .map(|r| r.segments_s[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum(),
    )
}

/// One timed repetition.
#[derive(Default)]
pub struct Rep {
    /// Wall time of the timed section.
    pub wall_s: f64,
    /// The same time, segment by segment (see [`Segments`]).
    pub segments_s: Vec<f64>,
    /// Trace entries carried through the workload's whole path.
    pub entries: u64,
    /// Counts that must repeat exactly from repetition to repetition. One
    /// named like a `PER_LAYER` metric is also that metric's value.
    pub counts: Vec<(&'static str, u64)>,
    /// Measurements only this kind of workload has (named as in
    /// `PER_LAYER`).
    pub native: Vec<(&'static str, f64)>,
    /// One answer-latency sample per window surfaced by a live `poll`.
    pub latencies_ms: Vec<f64>,
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

pub trait Workload {
    const NAME: &'static str;
    /// Name of the span that wraps one timed repetition.
    const REP_SPAN: &'static str;
    type Setup;

    /// The scale constants, for the result object.
    fn scale(tiny: bool) -> Vec<(&'static str, u64)>;
    /// Everything before the first timed repetition. Failures are tallied;
    /// `None` aborts the run.
    fn setup(ctx: &mut Ctx) -> Option<Self::Setup>;
    /// One timed repetition on fresh scratch directories.
    fn rep(ctx: &mut Ctx, setup: &Self::Setup) -> Option<Rep>;
    /// Traced run only: extra timed calls on the same data, splitting what
    /// one public call hides.
    fn probes(ctx: &mut Ctx, setup: &Self::Setup, layers: &mut Layers);
}

/// Layer metrics every workload derives the same way from the spans of
/// repetition `rep`.
fn span_layers(tracer: &Tracer, rep: u32, rep_span: &str, layers: &mut Layers) {
    let selfs = tracer.self_times();
    // (span, its self time) of every span called `name` in this repetition.
    let of_rep = |name: &str| -> Vec<(&Span, u64)> {
        let spans = tracer.spans().iter().zip(selfs.iter().copied());
        spans
            .filter(|(span, _)| span.name == name && span.rep == rep)
            .collect()
    };
    let busy_ns = |name: &str| of_rep(name).iter().map(|(s, _)| s.busy_ns).sum::<u64>();
    let busy_s = |name: &str| busy_ns(name) as f64 / 1e9;
    for span in SPAN_SECONDS {
        layers.insert(format!("{span}_s"), busy_s(span));
    }
    let run_self_ns: u64 = of_rep("node.run").iter().map(|&(_, own)| own).sum();
    layers.insert("node.run_self_s".into(), run_self_ns as f64 / 1e9);
    if let Some(&events) = layers.get("node.events") {
        layers.insert("node.ns_per_event".into(), run_self_ns as f64 / events);
    }
    let checkpoints = of_rep("core.service.checkpoint").len();
    layers.insert("core.service.checkpoints".into(), checkpoints as f64);
    let ingests: u64 = of_rep("core.service.ingest")
        .iter()
        .map(|(s, _)| s.calls)
        .sum();
    if ingests > 0 {
        layers.insert(
            "core.service.ingest_ns_per_entry".into(),
            busy_s("core.service.ingest") * 1e9 / ingests as f64,
        );
    }
    for call in ["core.service.checkpoint", "core.service.poll"] {
        let spans = of_rep(call);
        let each_ms: Vec<f64> = spans.iter().map(|(s, _)| s.busy_ns as f64 / 1e6).collect();
        for (p, suffix) in [(50.0, "p50_ms"), (99.0, "p99_ms")] {
            let value = percentile(&each_ms, p).unwrap_or(0.0);
            layers.insert(format!("{call}_{suffix}"), value);
        }
    }
    let rep_ns = busy_ns(rep_span);
    let rep_self_ns: u64 = of_rep(rep_span).iter().map(|&(_, own)| own).sum();
    if rep_ns > 0 {
        let covered = 100.0 * (rep_ns - rep_self_ns) as f64 / rep_ns as f64;
        layers.insert("bench.span_coverage_pct".into(), covered);
    }
}

fn content_f64s(values: &[f64]) -> Content {
    Content::Seq(values.iter().map(|&v| Content::F64(v)).collect())
}

/// What one run measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the contract's last line: every end-to-end metric, or
    /// in a traced run every per-layer metric.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The full result object: environment, scale, every repetition.
    pub detail: Content,
}

/// Runs workload `W` and prints its result; returns the process exit code.
pub fn drive<W: Workload>(args: &RunArgs) -> i32 {
    let outcome = match measure::<W>(args) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("{error}");
            return 2;
        }
    };
    if let Some(out) = &args.out {
        if let Err(error) = merge_into_set(out, W::NAME, outcome.detail.clone()) {
            eprintln!("cannot write {}: {error}", out.display());
            return 2;
        }
    }
    println!(
        "{}",
        json::to_line(object(vec![("detail", outcome.detail)]))
    );
    println!(
        "{}",
        json::to_line(object(vec![
            ("correct", Content::Bool(outcome.correct)),
            ("attempted", Content::U64(outcome.attempted)),
            ("failed", Content::U64(outcome.failed)),
            ("metrics", metrics_object(&outcome.metrics)),
        ]))
    );
    i32::from(!outcome.correct)
}

/// Set-up, timed repetitions, checks and (traced) probes of workload `W`.
pub fn measure<W: Workload>(args: &RunArgs) -> Result<Outcome, String> {
    let scratch =
        Scratch::create(&args.scratch_root).map_err(|e| format!("refusing to start: {e}"))?;
    let mut ctx = Ctx {
        seed: args.seed,
        tiny: args.tiny,
        scratch,
        tracer: Tracer::new(false),
        tally: Tally::default(),
    };

    // Set-up, several times: its time is a metric of its own, so that work
    // moved out of the timed section shows.
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take()); // never two set-ups' worth of memory at once
        let start = Instant::now();
        setup = W::setup(&mut ctx);
        setup_times.push(start.elapsed().as_secs_f64());
        if setup.is_none() {
            break;
        }
    }
    let peak_rss_reset = host::reset_peak_rss();

    // Timed repetitions for `--seconds`. The traced run traces every other
    // repetition; the difference between the two kinds is what tracing
    // costs.
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Vec<u32> = Vec::new();
    if let Some(setup) = &setup {
        let started = Instant::now();
        while reps.len() < MIN_REPS || started.elapsed().as_secs() < args.seconds {
            let index = reps.len() as u32;
            let trace_this = args.trace && index.is_multiple_of(2);
            ctx.tracer.set_enabled(trace_this);
            ctx.tracer.set_rep(index);
            let Some(rep) = W::rep(&mut ctx, setup) else {
                break;
            };
            if trace_this {
                traced.push(index);
            }
            reps.push(rep);
        }
        ctx.tracer.set_enabled(false);
    }

    // The work is deterministic: every repetition must report the counts
    // of the first.
    if let Some((first, rest)) = reps.split_first() {
        for (i, rep) in rest.iter().enumerate() {
            let what = format!("counts of repetition {}", i + 1);
            ctx.tally.check_eq(&what, &rep.counts, &first.counts);
        }
    }

    // The work is the same every time, so what differs between repetitions
    // is what the shared host did meanwhile. Throughput is taken over the
    // undisturbed time (fastest segment by segment), everything else from
    // the fastest repetition (the traced run: the fastest traced one, so
    // that the layer times add up to one repetition's wall time).
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.entries as f64 / r.wall_s).collect();
    let undisturbed = undisturbed_s(&reps);
    ctx.tally
        .check(undisturbed.is_some() || reps.is_empty(), || {
            "repetitions differ in their segments".into()
        });
    let undisturbed = undisturbed.unwrap_or(f64::NAN);
    let fastest_of = |want_traced: bool| {
        (0u32..)
            .zip(&reps)
            .filter(|(i, _)| traced.contains(i) == want_traced)
            .min_by(|a, b| a.1.wall_s.total_cmp(&b.1.wall_s))
    };
    let mut layers = Layers::new();
    let mut native_metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut latency_samples = 0;
    if let Some((_, rep)) = fastest_of(args.trace) {
        let counts = rep.counts.iter().map(|&(name, count)| (name, count as f64));
        let named = counts.chain(rep.native.iter().copied());
        layers.extend(named.map(|(name, value)| (name.to_string(), value)));
        if let Some(&events) = layers.get("node.events") {
            layers.insert("events_per_s".into(), events / undisturbed);
        }
        latency_samples = rep.latencies_ms.len();
        if latency_samples > 0 {
            for (p, name) in [
                (50.0, "answer_latency_p50_ms"),
                (90.0, "answer_latency_p90_ms"),
                (99.0, "core.service.answer_latency_p99_ms"),
            ] {
                let value = percentile(&rep.latencies_ms, p).unwrap_or(0.0);
                layers.insert(name.into(), value);
            }
            layers.insert("answer_latency_samples".into(), latency_samples as f64);
        }
        native_metrics = metrics::PER_LAYER
            .iter()
            .filter_map(|&(name, unit)| Some((name.to_string(), *layers.get(name)?, unit)))
            .collect();
    }

    if let (true, Some(setup)) = (args.trace, &setup) {
        if let Some((index, with)) = fastest_of(true) {
            span_layers(&ctx.tracer, index, W::REP_SPAN, &mut layers);
            if let Some((_, without)) = fastest_of(false) {
                let overhead = 100.0 * (with.wall_s - without.wall_s) / without.wall_s;
                layers.insert("bench.trace_overhead_pct".into(), overhead);
            }
        }
        W::probes(&mut ctx, setup, &mut layers);
    }

    let printed: Vec<(String, f64, &str)> = if args.trace {
        metrics::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = layers.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    } else {
        let end_to_end = [
            median(&setup_times).unwrap_or(0.0),
            reps.first().map_or(0.0, |r| r.entries as f64 / undisturbed),
            host::peak_rss_mib().unwrap_or(0.0),
        ];
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(&(name, unit), value)| (name.to_string(), value, unit))
            .collect()
    };
    let correct = ctx.tally.failed == 0 && reps.len() >= MIN_REPS;

    if args.trace {
        let path = args.scratch_root.join(format!("trace-{}.json", W::NAME));
        let trace = object(vec![
            ("workload", Content::Str(W::NAME.into())),
            ("seed", Content::U64(args.seed)),
            ("spans", ctx.tracer.to_content()),
        ]);
        std::fs::write(&path, json::to_line(trace))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
    }

    let u64s = |pairs: Vec<(&'static str, u64)>| {
        object(
            pairs
                .into_iter()
                .map(|(k, v)| (k, Content::U64(v)))
                .collect(),
        )
    };
    let scale = if args.tiny {
        "tiny (never compared)"
    } else {
        "full"
    };
    let tail = highest_supported_percentile(latency_samples);
    let mut detail = vec![
        ("workload", Content::Str(W::NAME.into())),
        ("seed", Content::U64(args.seed)),
        ("seconds", Content::U64(args.seconds)),
        ("trace", Content::Bool(args.trace)),
        ("scale", Content::Str(scale.into())),
        ("scale_constants", u64s(W::scale(args.tiny))),
    ];
    detail.extend(host::describe(&ctx.scratch));
    detail.extend([
        ("peak_rss_excludes_setup", Content::Bool(peak_rss_reset)),
        ("setup_times_s", content_f64s(&setup_times)),
        ("rep_wall_s", content_f64s(&walls)),
        ("rep_entries_per_s", content_f64s(&rates)),
        ("undisturbed_wall_s", Content::F64(undisturbed)),
        (
            "traced_reps",
            Content::Seq(traced.iter().map(|&r| Content::U64(u64::from(r))).collect()),
        ),
        (
            "counts",
            u64s(reps.first().map(|r| r.counts.clone()).unwrap_or_default()),
        ),
        (
            "answer_latency_highest_supported_percentile",
            tail.map_or(Content::Null, Content::F64),
        ),
        ("native_metrics", metrics_object(&native_metrics)),
        ("attempted", Content::U64(ctx.tally.attempted)),
        ("failed", Content::U64(ctx.tally.failed)),
        (
            "failures",
            Content::Seq(
                ctx.tally
                    .failures
                    .iter()
                    .cloned()
                    .map(Content::Str)
                    .collect(),
            ),
        ),
        ("metrics", metrics_object(&printed)),
    ]);
    Ok(Outcome {
        correct,
        attempted: ctx.tally.attempted.max(1),
        failed: ctx.tally.failed,
        metrics: printed,
        detail: object(detail),
    })
}

/// A set file holds one result object per workload; running the four
/// workloads with the same `--out` builds a complete set.
fn merge_into_set(path: &std::path::Path, workload: &str, detail: Content) -> Result<(), String> {
    let mut fields = match path.exists().then(|| json::read_file(path)) {
        None => Vec::new(),
        Some(Ok(Content::Map(fields))) => fields,
        Some(Ok(_)) => return Err("not a set of results".into()),
        Some(Err(error)) => return Err(error),
    };
    fields.retain(|(name, _)| name != workload);
    fields.push((workload.to_string(), detail));
    std::fs::write(path, json::to_line(Content::Map(fields))).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(segments_s: &[f64]) -> Rep {
        Rep {
            wall_s: segments_s.iter().sum(),
            segments_s: segments_s.to_vec(),
            ..Rep::default()
        }
    }

    #[test]
    fn undisturbed_time_is_the_sum_of_each_segments_fastest() {
        // The second repetition was disturbed in its first segment, the
        // first in its last: neither is undisturbed, their best parts are.
        let reps = [rep(&[1.0, 2.0, 9.0]), rep(&[5.0, 2.5, 3.0])];
        assert_eq!(undisturbed_s(&reps), Some(1.0 + 2.0 + 3.0));
        assert_eq!(undisturbed_s(&reps[..1]), Some(12.0));
        assert_eq!(undisturbed_s(&[]), None);
        // Repetitions cut differently did not do the same work.
        assert_eq!(undisturbed_s(&[rep(&[1.0, 2.0]), rep(&[3.0])]), None);
    }

    #[test]
    fn segments_cover_the_timed_section() {
        let mut segments = Segments::start();
        segments.cut();
        segments.cut();
        let (wall_s, durations) = segments.finish();
        assert_eq!(durations.len(), 3);
        assert!((durations.iter().sum::<f64>() - wall_s).abs() < 1e-9);
    }
}
