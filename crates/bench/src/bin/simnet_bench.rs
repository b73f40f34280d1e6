//! Simulator event-loop benchmark: vector-backed vs generated event sources.
//!
//! Runs the *same* scenario from the standard generator through the two ways
//! a [`Network`] can be fed and verifies they produce byte-identical monitor
//! traces (order-sensitive digest over every observation and connection
//! event):
//!
//! 1. `lazy-vectors`   — the scenario's request vectors pulled through
//!    per-process cursors (the `Network::new` path);
//! 2. `lazy-generated` — no request vectors at all: the workload is drawn
//!    lazily from the same RNG streams while the simulation runs
//!    (`build_scenario_lazy` + `Network::with_sources`).
//!
//! Reports the build/run wall-clock split, total events/sec and peak pending
//! events per feed, and asserts the pending set tracks concurrency
//! (O(active sources)) instead of the horizon.
//!
//! Every measurement is also emitted as a machine-readable
//! `BENCH_simnet.json` line. `--population <n>` and `--horizon-days <d>`
//! scale the scenario (the same flags `sec5c_visibility` takes), on top of
//! `IPFS_MON_SCALE`.

use ipfs_mon_bench::{print_header, scaled, HashingSink, ObsFlags, ScaleFlags};
use ipfs_mon_node::{Network, RunReport};
use ipfs_mon_simnet::time::SimDuration;
use ipfs_mon_workload::{build_scenario, build_scenario_lazy, ScenarioConfig};
use std::time::Instant;

struct FeedResult {
    name: &'static str,
    build_s: f64,
    run_s: f64,
    report: RunReport,
    digest: u64,
    observations: u64,
}

impl FeedResult {
    fn events_per_sec(&self) -> f64 {
        self.report.events_processed as f64 / (self.build_s + self.run_s).max(1e-9)
    }
}

/// Runs one feed three times and keeps the fastest build and run (the run is
/// deterministic, so repeats only shed scheduler noise from the host; the
/// digest is asserted identical across repeats).
fn measure(
    name: &'static str,
    config: &ScenarioConfig,
    build: impl Fn(&ScenarioConfig) -> Network,
) -> FeedResult {
    let mut best: Option<FeedResult> = None;
    for _ in 0..3 {
        let start = Instant::now();
        let mut network = build(config);
        let build_s = start.elapsed().as_secs_f64();
        let mut sink = HashingSink::new();
        let start = Instant::now();
        let report = network.run(&mut sink);
        let run_s = start.elapsed().as_secs_f64();
        let result = FeedResult {
            name,
            build_s,
            run_s,
            report,
            digest: sink.digest(),
            observations: sink.observations(),
        };
        best = Some(match best {
            None => result,
            Some(prev) => {
                assert_eq!(prev.digest, result.digest, "{name} must be deterministic");
                FeedResult {
                    build_s: prev.build_s.min(result.build_s),
                    run_s: prev.run_s.min(result.run_s),
                    ..result
                }
            }
        });
    }
    best.expect("three repetitions ran")
}

fn main() {
    let scale = ScaleFlags::from_args(scaled(3_000), 2);
    let (population, horizon_days) = (scale.population, scale.horizon_days);
    let mut config = ScenarioConfig::analysis_week(4242, population);
    config.horizon = SimDuration::from_days(horizon_days);
    let reporter = ObsFlags::from_args().start();

    print_header("simnet — event loop");
    println!(
        "  population {population}, horizon {horizon_days} d (instrumentation {})\n",
        if ipfs_mon_obs::is_enabled() {
            "on"
        } else {
            "off (obs-off build)"
        }
    );

    let vectors = measure("lazy-vectors", &config, |c| Network::new(build_scenario(c)));
    let generated = measure("lazy-generated", &config, |c| {
        let (scenario, sources) = build_scenario_lazy(c);
        Network::with_sources(scenario, sources)
    });

    println!(
        "  {:<16} {:>9} {:>9} {:>9} {:>14} {:>14}",
        "feed", "build", "run", "total", "events/sec", "peak pending"
    );
    for r in [&vectors, &generated] {
        println!(
            "  {:<16} {:>8.2}s {:>8.2}s {:>8.2}s {:>14.0} {:>14}",
            r.name,
            r.build_s,
            r.run_s,
            r.build_s + r.run_s,
            r.events_per_sec(),
            r.report.peak_pending,
        );
        println!(
            "BENCH_simnet.json {{\"mode\":\"{}\",\"population\":{},\"horizon_days\":{},\"build_s\":{:.4},\"run_s\":{:.4},\"events\":{},\"events_per_sec\":{:.0},\"peak_pending\":{},\"observations\":{}}}",
            r.name,
            population,
            horizon_days,
            r.build_s,
            r.run_s,
            r.report.events_processed,
            r.events_per_sec(),
            r.report.peak_pending,
            r.observations,
        );
    }

    assert_eq!(
        generated.digest, vectors.digest,
        "generated sources must reproduce the vector-backed trace digest"
    );
    assert_eq!(
        generated.report.events_processed,
        vectors.report.events_processed
    );
    assert_eq!(generated.observations, vectors.observations);
    println!(
        "\n  trace digests identical across both feeds ({} events, {} observations)",
        vectors.report.events_processed, vectors.observations
    );

    // Instrumentation-overhead datum: one line per build flavour. Running
    // the bench once normally and once with `--features obs-off` and
    // comparing the two `events_per_sec` values measures the cost of the
    // obs layer itself (acceptance bar: <= 5%).
    println!(
        "BENCH_simnet.json {{\"mode\":\"obs-overhead\",\"obs\":\"{}\",\"population\":{},\"horizon_days\":{},\"events_per_sec\":{:.0}}}",
        if ipfs_mon_obs::is_enabled() {
            "instrumented"
        } else {
            "off"
        },
        population,
        horizon_days,
        generated.events_per_sec(),
    );

    let events = generated.report.events_processed;
    let peak = generated.report.peak_pending;
    println!(
        "  peak pending: {peak} of {events} events ({:.4}%)",
        peak as f64 / events.max(1) as f64 * 100.0,
    );
    // The pending-set assertion is deterministic (event counts, not wall
    // clock); only skip it for trivially small runs.
    if events >= 100_000 {
        assert!(
            peak < (events / 10) as usize,
            "peak pending {peak} must stay far below total events {events}"
        );
        println!("  PASS: pending set tracks concurrency, not horizon");
    }

    // Emits the final `"done":true` heartbeat (a no-op without --obs).
    if let Some(reporter) = reporter {
        reporter.stop();
    }
}
