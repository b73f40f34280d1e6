//! The names and units the binary prints. `BENCHMARK.json` lists the same
//! names (a unit test holds the two together), `compare` reads the bounds
//! from there.

/// End-to-end metrics: printed by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("entries_per_s", "entries/s"),
    ("peak_rss_mib", "MiB"),
];

/// Layers whose spans turn into a `<span>_s` metric: the median over the
/// traced repetitions of the time spent in spans of that name.
pub const SPAN_SECONDS: &[&str] = &[
    "workload.build",
    "node.construct",
    "node.run",
    "core.service.open",
    "core.service.reopen",
    "core.service.ingest",
    "core.service.checkpoint",
    "core.service.poll",
    "core.service.replay",
    "core.service.finish",
    "tracestore.reader.open",
    "core.preprocess.flag",
    "core.sinks.pass",
    "core.netsize.estimate",
    "core.attacks.scan",
    "analysis.powerlaw_fit",
];

/// Per-layer metrics beyond [`SPAN_SECONDS`]: printed by every workload's
/// traced run, 0 for a layer the workload does not enter.
pub const PER_LAYER: &[(&str, &str)] = &[
    // What a user of one workload sees but another workload has no value
    // for; the contract wants every end-to-end metric on every workload, so
    // these are reported here.
    ("events_per_s", "events/s"),
    ("answer_latency_p50_ms", "ms"),
    ("answer_latency_p90_ms", "ms"),
    ("answer_latency_samples", "count"),
    ("restart_catchup_s", "s"),
    ("bytes_per_entry", "B"),
    // simulator
    ("node.run_self_s", "s"),
    ("node.ns_per_event", "ns"),
    ("node.events", "count"),
    ("node.observations", "count"),
    ("node.peak_pending", "count"),
    ("simnet.scheduler_ns_per_event", "ns"),
    // live service
    ("core.service.ingest_ns_per_entry", "ns"),
    ("core.service.checkpoints", "count"),
    ("core.service.checkpoint_p50_ms", "ms"),
    ("core.service.checkpoint_p99_ms", "ms"),
    ("core.service.poll_p50_ms", "ms"),
    ("core.service.poll_p99_ms", "ms"),
    ("core.service.replay_entries_per_s", "entries/s"),
    ("core.service.windows_emitted", "count"),
    ("core.service.windows_skipped", "count"),
    ("core.service.late_dropped", "count"),
    ("core.service.max_open_windows", "count"),
    ("core.service.answer_latency_p99_ms", "ms"),
    // storage under the service (counting `Storage`) and its probes
    ("tracestore.storage.fsyncs", "count"),
    ("tracestore.storage.fsync_s", "s"),
    ("tracestore.storage.dir_syncs", "count"),
    ("tracestore.storage.dir_sync_s", "s"),
    ("tracestore.storage.write_bytes", "B"),
    ("tracestore.storage.write_s", "s"),
    ("tracestore.storage.creates", "count"),
    ("tracestore.storage.renames", "count"),
    ("tracestore.storage.durable_write_ms", "ms"),
    ("tracestore.recover.recover_s", "s"),
    ("tracestore.recover.entries_recovered", "count"),
    ("tracestore.recover.segments_truncated", "count"),
    ("tracestore.writer.append_ns_per_entry", "ns"),
    ("tracestore.writer.finish_s", "s"),
    ("tracestore.tail.poll_entries_per_s", "entries/s"),
    ("tracestore.tail.frames", "count"),
    ("tracestore.window.consume_ns_per_entry", "ns"),
    ("tracestore.sketch.spacesaving_ns_per_entry", "ns"),
    // offline analysis
    ("tracestore.reader.merged_drain_entries_per_s", "entries/s"),
    (
        "tracestore.reader.parallel_drain_entries_per_s",
        "entries/s",
    ),
    ("core.preprocess.flag_entries_per_s", "entries/s"),
    ("core.preprocess.primary", "count"),
    ("core.sinks.request_types_ns_per_entry", "ns"),
    ("core.sinks.popularity_ns_per_entry", "ns"),
    ("core.sinks.activity_ns_per_entry", "ns"),
    ("core.sinks.entry_stats_ns_per_entry", "ns"),
    // the tracing itself
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_coverage_pct", "%"),
];

/// Name and unit of every per-layer metric, span-derived ones first.
pub fn per_layer() -> Vec<(String, &'static str)> {
    SPAN_SECONDS
        .iter()
        .map(|span| (format!("{span}_s"), "s"))
        .chain(
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name.to_string(), unit)),
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{as_seq, as_str, get, read_file};
    use crate::run::{measure, RunArgs, Workload};
    use crate::workloads::{
        analyze::Analyze, pipeline::Pipeline, service::Service, simulate::Simulate,
    };
    use serde::content::Content;
    use std::path::Path;

    fn benchmark_json() -> Content {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        read_file(&path).expect("BENCHMARK.json at the repo root")
    }

    /// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
    fn declared(benchmark: &Content, list: &str) -> Vec<(String, String)> {
        let field = |metric: &Content, key: &str| -> String {
            get(metric, key).and_then(as_str).expect(key).to_string()
        };
        as_seq(get(benchmark, list).expect(list))
            .expect(list)
            .iter()
            .map(|metric| (field(metric, "name"), field(metric, "unit")))
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_prints() {
        let benchmark = benchmark_json();
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&benchmark, "end_to_end"), owned(END_TO_END));
        let printed: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(name, unit)| (name, unit.to_string()))
            .collect();
        assert_eq!(declared(&benchmark, "per_layer"), printed);
        for (name, unit) in declared(&benchmark, "end_to_end").iter().chain(&printed) {
            assert!(well_formed(name), "metric name {name:?}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit:?} of {name}"
            );
        }
        let workloads: Vec<String> = as_seq(get(&benchmark, "workloads").expect("workloads"))
            .expect("workloads")
            .iter()
            .map(|w| get(w, "name").and_then(as_str).expect("name").to_string())
            .collect();
        assert_eq!(
            workloads,
            [Simulate::NAME, Pipeline::NAME, Service::NAME, Analyze::NAME]
        );
    }

    /// A whole run at `--tiny` scale, traced and not: every check passes and
    /// the printed names are exactly the declared ones.
    fn smoke<W: Workload>() {
        for trace in [false, true] {
            let args = RunArgs {
                workload: W::NAME.into(),
                seed: 78,
                seconds: 0,
                trace,
                tiny: true,
                scratch_root: crate::host::default_scratch_root(),
                out: None,
            };
            let outcome = measure::<W>(&args).expect("the run starts");
            assert!(outcome.correct, "{}: failed checks", W::NAME);
            assert_eq!(outcome.failed, 0);
            let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.0.as_str()).collect();
            let list = if trace { "per_layer" } else { "end_to_end" };
            let declared = declared(&benchmark_json(), list);
            let declared: Vec<&str> = declared.iter().map(|d| d.0.as_str()).collect();
            assert_eq!(printed, declared, "{} trace={trace}", W::NAME);
            assert!(outcome.metrics.iter().all(|m| m.1.is_finite()));
            if !trace {
                assert!(outcome.metrics.iter().all(|m| m.1 > 0.0), "never 0");
            }
        }
    }

    #[test]
    fn smoke_simulate() {
        smoke::<Simulate>();
    }

    #[test]
    fn smoke_pipeline() {
        smoke::<Pipeline>();
    }

    #[test]
    fn smoke_service() {
        smoke::<Service>();
    }

    #[test]
    fn smoke_analyze() {
        smoke::<Analyze>();
    }
}
