//! The registry's memory does not grow with the number of threads that have
//! touched a metric.
//!
//! A monitor service runs for months and its worker threads come and go, so
//! a per-thread cost that outlives the thread is a leak. This test runs
//! 2 000 short-lived threads strictly one after another, each bumping one
//! counter and recording one histogram sample, and checks both the totals
//! and the process's resident set. It is alone in its test binary so no
//! other test moves the RSS reading.

#![cfg(target_os = "linux")]

use ipfs_mon_obs as obs;

const THREADS: u64 = 2_000;

/// `VmRSS` of this process, in KiB.
fn resident_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|line| line.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS value in kB")
}

/// One short-lived thread: one counter bump, one histogram sample.
fn churn_once(counter: obs::Counter, histogram: obs::Histogram, value: u64) {
    std::thread::spawn(move || {
        counter.incr();
        histogram.record(value);
    })
    .join()
    .expect("churn thread");
}

#[test]
fn short_lived_threads_do_not_grow_the_registry() {
    let counter = obs::counter("test.churn.bumps");
    let histogram = obs::histogram("test.churn.samples");
    // One thread first, so whatever the first spawn sets up once (the
    // runtime's thread bookkeeping, a cached stack) is in the baseline.
    churn_once(counter, histogram, 0);
    let before = resident_kib();
    for i in 1..THREADS {
        churn_once(counter, histogram, i);
    }
    let grown = resident_kib().saturating_sub(before);

    let snapshot = obs::snapshot();
    assert_eq!(snapshot.counters["test.churn.bumps"], THREADS);
    let samples = &snapshot.histograms["test.churn.samples"];
    assert_eq!(samples.count, THREADS);
    assert_eq!(samples.sum, THREADS * (THREADS - 1) / 2);
    assert!(
        grown < 8 * 1024,
        "{THREADS} threads grew the resident set by {grown} KiB"
    );
}
