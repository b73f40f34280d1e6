//! What the benchmark knows about the entries it feeds to the service,
//! kept independently of the program: the lapped feed, per-window reference
//! counts, and the moment each window became sealable.

use crate::surface::{RequestType, SimDuration, SimTime, TraceEntry};
use std::time::Instant;

/// A base trace replayed `laps` times back to back, lap `l` shifted by
/// `l × span` so time keeps advancing. The base stays the only copy in
/// memory; lapped entries are made on demand.
pub struct LappedFeed {
    base: Vec<TraceEntry>,
    laps: u64,
    span_ms: u64,
}

impl LappedFeed {
    /// `base` must be in merged `(timestamp, monitor)` order. The lap span
    /// is the horizon, or one millisecond past the last entry if the trace
    /// overruns it, so every lap starts strictly after the previous one
    /// ended.
    pub fn new(base: Vec<TraceEntry>, laps: u64, horizon: SimDuration) -> Self {
        let last_ms = base.last().map_or(0, |e| e.timestamp.as_millis());
        Self {
            base,
            laps,
            span_ms: horizon.as_millis().max(last_ms + 1),
        }
    }

    pub fn len(&self) -> usize {
        self.base.len() * self.laps as usize
    }

    #[cfg(test)]
    pub fn base(&self) -> &[TraceEntry] {
        &self.base
    }

    /// Monitor of entry `index`, without building the entry.
    pub fn monitor_of(&self, index: usize) -> usize {
        self.base[index % self.base.len()].monitor
    }

    /// Entry `index` of the lapped feed.
    pub fn entry(&self, index: usize) -> TraceEntry {
        let lap = (index / self.base.len()) as u64;
        let mut entry = self.base[index % self.base.len()].clone();
        entry.timestamp = SimTime::from_millis(entry.timestamp.as_millis() + lap * self.span_ms);
        entry
    }
}

/// Reference counts of one window: what its `win-*.json` line must say.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCounts {
    pub entries: u64,
    pub want_have: u64,
    pub want_block: u64,
    pub cancel: u64,
}

/// Follows the fed entries the way the service's windowed sink will once
/// they are durable: tumbling windows of `window_ms`, sealable when the
/// minimum over monitors of the highest fed timestamp, minus the lateness
/// allowance, reaches the window's end.
pub struct WindowOracle {
    window_ms: u64,
    lateness_ms: u64,
    high_water: Vec<Option<u64>>,
    counts: Vec<WindowCounts>,
    /// When window `i` became sealable; taken (set back to `None`) when its
    /// line surfaces, so each window yields at most one latency sample.
    sealable_at: Vec<Option<Instant>>,
    next_sealable: u64,
    total: u64,
}

impl WindowOracle {
    pub fn new(monitors: usize, window: SimDuration, lateness: SimDuration) -> Self {
        Self {
            window_ms: window.as_millis(),
            lateness_ms: lateness.as_millis(),
            high_water: vec![None; monitors],
            counts: Vec::new(),
            sealable_at: Vec::new(),
            next_sealable: 0,
            total: 0,
        }
    }

    /// Counts one fed entry. Call after the `ingest` that carried it has
    /// returned: windows this entry makes sealable are stamped now.
    pub fn observe(&mut self, monitor: usize, timestamp: SimTime, request_type: RequestType) {
        let ms = timestamp.as_millis();
        let index = (ms / self.window_ms) as usize;
        if self.counts.len() <= index {
            self.counts.resize(index + 1, WindowCounts::default());
        }
        let counts = &mut self.counts[index];
        counts.entries += 1;
        match request_type {
            RequestType::WantHave => counts.want_have += 1,
            RequestType::WantBlock => counts.want_block += 1,
            RequestType::Cancel => counts.cancel += 1,
        }
        self.total += 1;
        if self.high_water[monitor] < Some(ms) {
            self.high_water[monitor] = Some(ms);
            self.stamp_sealable();
        }
    }

    fn watermark_ms(&self) -> Option<u64> {
        let mut min = u64::MAX;
        for high in &self.high_water {
            min = min.min((*high)?);
        }
        Some(min.saturating_sub(self.lateness_ms))
    }

    fn stamp_sealable(&mut self) {
        let Some(watermark) = self.watermark_ms() else {
            return;
        };
        if (self.next_sealable + 1) * self.window_ms > watermark {
            return;
        }
        let now = Instant::now();
        while (self.next_sealable + 1) * self.window_ms <= watermark {
            self.sealable_at.push(Some(now));
            self.next_sealable += 1;
        }
    }

    /// Windows sealable so far (a dense prefix `0..n`).
    #[cfg(test)]
    pub fn sealable(&self) -> u64 {
        self.next_sealable
    }

    /// Entries observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Reference counts per window, dense from window 0 through the last
    /// window that received an entry.
    pub fn counts(&self) -> &[WindowCounts] {
        &self.counts
    }

    /// The line of window `index` surfaced at `at`: the answer latency in
    /// milliseconds, if the window was stamped sealable and has not been
    /// taken or forgotten.
    pub fn surfaced(&mut self, index: u64, at: Instant) -> Option<f64> {
        let stamped = self.sealable_at.get_mut(index as usize)?.take()?;
        Some(at.duration_since(stamped).as_secs_f64() * 1e3)
    }

    /// Forgets the stamps of windows that are sealable but not surfaced:
    /// after a crash their answers come out of the replay, which the answer
    /// latency excludes.
    pub fn forget_pending(&mut self) {
        self.sealable_at.iter_mut().for_each(|s| *s = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::build_scenario;
    use crate::surface::{scenario_config, MonitorCollector, Network, TraceSource};

    /// Deterministic xorshift, so the tests need no extra dependency.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    #[test]
    fn sealable_matches_a_brute_force_watermark() {
        let (window, lateness) = (1_000u64, 250u64);
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut oracle = WindowOracle::new(
            2,
            SimDuration::from_millis(window),
            SimDuration::from_millis(lateness),
        );
        // A two-monitor feed with bounded disorder: each monitor's clock
        // advances at random and individual entries jitter backwards.
        let mut clocks = [0u64; 2];
        let mut fed: Vec<(usize, u64)> = Vec::new();
        for _ in 0..5_000 {
            let monitor = (rng.next() % 2) as usize;
            clocks[monitor] += rng.next() % 40;
            let ms = clocks[monitor].saturating_sub(rng.next() % 200);
            fed.push((monitor, ms));
            oracle.observe(monitor, SimTime::from_millis(ms), RequestType::WantHave);

            // Brute force: recompute both maxima over everything fed.
            let max_of = |m: usize| fed.iter().filter(|f| f.0 == m).map(|f| f.1).max();
            let expected = match (max_of(0), max_of(1)) {
                (Some(a), Some(b)) => a.min(b).saturating_sub(lateness) / window,
                _ => 0,
            };
            assert_eq!(oracle.sealable(), expected, "after {} entries", fed.len());
        }
        assert!(oracle.sealable() > 20, "the feed must seal many windows");
        assert_eq!(oracle.total(), 5_000);
        assert_eq!(
            oracle.counts().iter().map(|c| c.entries).sum::<u64>(),
            5_000
        );
    }

    #[test]
    fn each_window_yields_one_latency_sample() {
        let mut oracle =
            WindowOracle::new(1, SimDuration::from_millis(10), SimDuration::from_millis(0));
        oracle.observe(0, SimTime::from_millis(35), RequestType::Cancel);
        assert_eq!(oracle.sealable(), 3);
        let later = Instant::now();
        assert!(oracle.surfaced(0, later).is_some());
        assert!(oracle.surfaced(0, later).is_none(), "taken once");
        assert!(oracle.surfaced(3, later).is_none(), "not sealable yet");
        oracle.forget_pending();
        assert!(oracle.surfaced(1, later).is_none(), "forgotten by a crash");
    }

    #[test]
    fn lapped_feed_is_monotone_per_monitor_across_laps() {
        let config = scenario_config(150, 1);
        let (scenario, sources) = build_scenario(5, &config);
        let labels: Vec<String> = scenario.monitors.iter().map(|m| m.label.clone()).collect();
        let mut collector = MonitorCollector::new(labels);
        Network::with_sources(scenario, sources).run(&mut collector);
        let base: Vec<TraceEntry> = collector.into_dataset().merged_entries().collect();
        assert!(base.len() > 1_000, "base trace too small: {}", base.len());

        let laps = 3;
        let feed = LappedFeed::new(base, laps, config.horizon);
        let per_lap = feed.base().len();
        let mut last: [Option<u64>; 2] = [None; 2];
        for index in 0..feed.len() {
            let entry = feed.entry(index);
            assert_eq!(entry.monitor, feed.monitor_of(index));
            let ms = entry.timestamp.as_millis();
            if let Some(previous) = last[entry.monitor] {
                assert!(ms >= previous, "entry {index} goes back in time");
            }
            last[entry.monitor] = Some(ms);
        }
        // Across each lap boundary time moves strictly forward, for the
        // feed as a whole and so for each monitor.
        for lap in 1..laps as usize {
            let before = feed.entry(lap * per_lap - 1).timestamp;
            let after = feed.entry(lap * per_lap).timestamp;
            assert!(
                after > before,
                "lap {lap} does not start after lap {}",
                lap - 1
            );
        }
    }
}
