//! The repo benchmark. See `benchmarks/README.md`.
//!
//! `run --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]`
//! runs one workload in this process, checks its outputs, and prints every
//! metric by name with its unit as the last line of standard output;
//! `compare <a.json> <b.json>` holds two sets of runs against the bounds in
//! `BENCHMARK.json`.

#![forbid(unsafe_code)]

mod compare;
mod feed;
mod host;
mod json;
mod metrics;
mod run;
mod stats;
mod storage;
mod surface;
mod trace;
mod workloads;

use run::{drive, RunArgs};
use std::path::{Path, PathBuf};
use workloads::{analyze::Analyze, pipeline::Pipeline, service::Service, simulate::Simulate};

const USAGE: &str = "usage:
  run --workload <simulate|pipeline|service|analyze> [--seed <u64>] [--seconds <n>]
      [--trace <0|1>] [--tiny] [--scratch <dir>] [--out <set.json>]
  compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]";

/// Seed of a run that does not name one.
const DEFAULT_SEED: u64 = 77;
/// Run length of a run that does not name one (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: u64 = 15;

fn parse_run(mut args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        tiny: false,
        scratch_root: host::default_scratch_root(),
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => parsed.tiny = true,
            "--scratch" => parsed.scratch_root = PathBuf::from(value()?),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

fn run(args: &RunArgs) -> Result<i32, String> {
    match args.workload.as_str() {
        "simulate" => Ok(drive::<Simulate>(args)),
        "pipeline" => Ok(drive::<Pipeline>(args)),
        "service" => Ok(drive::<Service>(args)),
        "analyze" => Ok(drive::<Analyze>(args)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let outcome = match args.next().as_deref() {
        Some("run") => parse_run(args).and_then(|parsed| run(&parsed)),
        Some("compare") => {
            let rest: Vec<String> = args.collect();
            match rest.as_slice() {
                [a, b] => compare::compare(Path::new(a), Path::new(b), Path::new("BENCHMARK.json")),
                [a, b, flag, benchmark] if flag == "--benchmark" => {
                    compare::compare(Path::new(a), Path::new(b), Path::new(benchmark))
                }
                _ => Err("compare takes two set files".into()),
            }
        }
        _ => Err("expected `run` or `compare`".into()),
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
