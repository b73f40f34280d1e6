//! `compare <a.json> <b.json>`: two sets of runs, metric by metric, against
//! the bounds `BENCHMARK.json` fixes.

use crate::json::{self, as_seq, as_str, get};
use serde::content::Content;
use std::path::Path;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn declared_end_to_end(benchmark: &Content) -> Result<Vec<Declared>, String> {
    let list = get(benchmark, "end_to_end")
        .and_then(as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|metric| {
            let field = |name| get(metric, name);
            Ok(Declared {
                name: field("name")
                    .and_then(as_str)
                    .ok_or("metric without name")?
                    .into(),
                lower_is_better: field("better").and_then(as_str) == Some("lower"),
                bound: field("bound")
                    .and_then(Content::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

fn metric_value(set: &Content, workload: &str, group: &str, name: &str) -> Option<f64> {
    get(get(get(get(set, workload)?, group)?, name)?, "value")?.as_f64()
}

/// Prints one row per workload and metric; returns the process exit code:
/// non-zero if `b` is worse than `a` beyond a bound anywhere.
pub fn compare(a: &Path, b: &Path, benchmark: &Path) -> Result<i32, String> {
    let (set_a, set_b) = (json::read_file(a)?, json::read_file(b)?);
    let benchmark = json::read_file(benchmark)?;
    let declared = declared_end_to_end(&benchmark)?;
    let Content::Map(workloads) = &set_a else {
        return Err(format!("{} is not a set of results", a.display()));
    };
    let mut outside = 0;
    println!(
        "{:<10} {:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "b vs a", "bound"
    );
    for (workload, detail) in workloads {
        for metric in &declared {
            let (Some(va), Some(vb)) = (
                metric_value(&set_a, workload, "metrics", &metric.name),
                metric_value(&set_b, workload, "metrics", &metric.name),
            ) else {
                println!("{workload:<10} {:<34} missing in one set", metric.name);
                outside += 1;
                continue;
            };
            let worse = worsening(va, vb, metric.lower_is_better);
            let within = worse <= metric.bound;
            outside += i32::from(!within);
            println!(
                "{workload:<10} {:<34} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.1}%  {}",
                metric.name,
                100.0 * (vb - va) / va,
                100.0 * metric.bound,
                if within { "within" } else { "outside" }
            );
        }
        // What only this kind of workload measures has no bound in
        // `BENCHMARK.json`; shown so that a reader sees it move.
        if let Some(Content::Map(native)) = get(detail, "native_metrics") {
            for (name, _) in native {
                if let (Some(va), Some(vb)) = (
                    metric_value(&set_a, workload, "native_metrics", name),
                    metric_value(&set_b, workload, "native_metrics", name),
                ) {
                    let change = if va == 0.0 {
                        0.0
                    } else {
                        100.0 * (vb - va) / va
                    };
                    println!(
                        "{workload:<10} {name:<34} {va:>14.4} {vb:>14.4} {change:>+8.2}% {:>7}  {}",
                        "-",
                        if va == vb { "exact" } else { "" }
                    );
                }
            }
        }
        // Counts repeat exactly for one seed, and nothing may fail.
        for name in ["counts", "failed"] {
            let (in_a, in_b) = (
                get(detail, name),
                get(&set_b, workload).and_then(|d| get(d, name)),
            );
            if in_a != in_b {
                println!("{workload:<10} {name:<34} differ: {in_a:?} vs {in_b:?}  outside");
                outside += 1;
            }
        }
    }
    Ok(i32::from(outside > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
    }
}
