//! Simulated time.
//!
//! The simulation clock counts milliseconds from the start of a run. All
//! protocol timers that matter to the monitoring methodology — the 30 s
//! Bitswap re-broadcast period, the 5 s inter-monitor duplicate window, the
//! 31 s re-broadcast detection window, hourly rate buckets, daily activity
//! buckets — are expressed in this unit.

use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in milliseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1000)
    }

    /// Milliseconds since the start of the run.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Fractional seconds since the start of the run.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Duration elapsed since `earlier`; saturates to zero if `earlier` is in
    /// the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The index of the bucket of width `bucket` this instant falls into,
    /// e.g. the hour index for hourly rate series.
    pub fn bucket_index(self, bucket: SimDuration) -> u64 {
        assert!(bucket.0 > 0, "bucket width must be positive");
        self.0 / bucket.0
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60 * 1000)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400_000)
    }

    /// Creates a duration from fractional seconds (rounded to milliseconds).
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "duration must be non-negative"
        );
        SimDuration((secs * 1000.0).round() as u64)
    }

    /// Milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Multiplies the duration by an integer factor.
    pub const fn mul(self, factor: u64) -> Self {
        SimDuration(self.0 * factor)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total_secs = self.as_secs();
        let days = total_secs / 86_400;
        let hours = (total_secs % 86_400) / 3600;
        let mins = (total_secs % 3600) / 60;
        let secs = total_secs % 60;
        write!(f, "{days}d {hours:02}:{mins:02}:{secs:02}")
    }
}

impl std::fmt::Display for SimDuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_are_consistent() {
        assert_eq!(SimDuration::from_secs(30).as_millis(), 30_000);
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
        assert_eq!(SimTime::from_secs(5).as_millis(), 5000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
        // Saturating subtraction.
        assert_eq!(
            SimTime::from_secs(1) - SimTime::from_secs(5),
            SimDuration::ZERO
        );
        assert_eq!(
            SimTime::from_secs(5).since(SimTime::from_secs(1)),
            SimDuration::from_secs(4)
        );
    }

    #[test]
    fn bucket_index_hourly() {
        let hour = SimDuration::from_hours(1);
        assert_eq!(SimTime::from_secs(10).bucket_index(hour), 0);
        assert_eq!(SimTime::from_secs(3600).bucket_index(hour), 1);
        assert_eq!(SimTime::from_secs(3599).bucket_index(hour), 0);
        assert_eq!(
            (SimTime::ZERO + SimDuration::from_days(2)).bucket_index(hour),
            48
        );
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_bucket_panics() {
        SimTime::from_secs(1).bucket_index(SimDuration::ZERO);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.2345).as_millis(), 1235);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::ZERO
            + SimDuration::from_days(1)
            + SimDuration::from_hours(2)
            + SimDuration::from_mins(3)
            + SimDuration::from_secs(4);
        assert_eq!(t.to_string(), "1d 02:03:04");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
    }

    proptest! {
        #[test]
        fn add_then_since_roundtrip(start in 0u64..10_000_000, delta in 0u64..10_000_000) {
            let t0 = SimTime::from_millis(start);
            let d = SimDuration::from_millis(delta);
            prop_assert_eq!((t0 + d).since(t0), d);
            prop_assert_eq!((t0 + d) - t0, d);
        }

        #[test]
        fn bucket_index_is_monotone(a in 0u64..1_000_000, b in 0u64..1_000_000, w in 1u64..100_000) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let bucket = SimDuration::from_millis(w);
            prop_assert!(SimTime::from_millis(lo).bucket_index(bucket)
                <= SimTime::from_millis(hi).bucket_index(bucket));
        }
    }
}
