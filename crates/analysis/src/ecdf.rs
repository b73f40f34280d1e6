//! Empirical cumulative distribution functions and quantile–quantile data.
//!
//! Fig. 5 of the paper plots the ECDFs of the two popularity scores (RRP and
//! URP); Fig. 3 compares the distribution of monitor-connected peer IDs to the
//! uniform distribution with a QQ plot. This module provides both primitives.

/// An empirical cumulative distribution function over `f64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples (NaNs are dropped).
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs remain"));
        Self { sorted: samples }
    }

    /// Builds an ECDF from integer counts (the natural input for popularity
    /// scores).
    pub fn from_counts<I: IntoIterator<Item = u64>>(counts: I) -> Self {
        Self::new(counts.into_iter().map(|c| c as f64).collect())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns true if the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (`0 <= q <= 1`) using the nearest-rank method.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        Some(self.sorted[rank.min(self.sorted.len() - 1)])
    }

    /// The full `(x, F(x))` step curve, one point per distinct sample value.
    /// This is what gets plotted for Fig. 5.
    pub fn curve(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut points = Vec::new();
        let mut i = 0;
        while i < self.sorted.len() {
            let x = self.sorted[i];
            let mut j = i;
            while j < self.sorted.len() && self.sorted[j] == x {
                j += 1;
            }
            points.push((x, j as f64 / n));
            i = j;
        }
        points
    }
}

/// Data for a quantile–quantile plot of `samples` (assumed to lie in `[0, 1]`)
/// against the standard uniform distribution: pairs of
/// `(theoretical quantile, sample quantile)`. Points on the diagonal indicate
/// uniformity (the dashed line in Fig. 3).
pub fn qq_against_uniform(samples: &[f64], points: usize) -> Vec<(f64, f64)> {
    assert!(points >= 2, "need at least two quantile points");
    let ecdf = Ecdf::new(samples.to_vec());
    if ecdf.is_empty() {
        return Vec::new();
    }
    (0..points)
        .map(|i| {
            let q = i as f64 / (points - 1) as f64;
            // Uniform(0,1) theoretical quantile is q itself.
            (q, ecdf.quantile(q).expect("non-empty"))
        })
        .collect()
}

/// Maximum absolute deviation of the QQ points from the diagonal; a scalar
/// summary of how far from uniform the sample is (≈0 for uniform samples).
pub fn qq_uniform_deviation(samples: &[f64], points: usize) -> f64 {
    qq_against_uniform(samples, points)
        .iter()
        .map(|(t, s)| (t - s).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantiles_nearest_rank() {
        let ecdf = Ecdf::from_counts(1..=100u64);
        assert_eq!(ecdf.quantile(0.0), Some(1.0));
        assert_eq!(ecdf.quantile(0.5), Some(50.0));
        assert_eq!(ecdf.quantile(1.0), Some(100.0));
        assert_eq!(ecdf.quantile(0.999), Some(100.0));
    }

    #[test]
    fn empty_ecdf_behaviour() {
        let ecdf = Ecdf::new(vec![]);
        assert!(ecdf.is_empty());
        assert_eq!(ecdf.quantile(0.5), None);
        assert!(ecdf.curve().is_empty());
    }

    #[test]
    fn nan_samples_are_dropped() {
        let ecdf = Ecdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(ecdf.len(), 2);
    }

    #[test]
    fn curve_is_monotone_and_ends_at_one() {
        let ecdf = Ecdf::new(vec![5.0, 1.0, 3.0, 3.0, 2.0]);
        let curve = ecdf.curve();
        for pair in curve.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert!(pair[0].1 <= pair[1].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_samples_sit_on_the_diagonal() {
        // Deterministic, evenly spaced "samples" in [0,1].
        let samples: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
        let dev = qq_uniform_deviation(&samples, 101);
        assert!(dev < 0.01, "deviation {dev}");
    }

    #[test]
    fn skewed_samples_deviate_from_the_diagonal() {
        let samples: Vec<f64> = (0..10_000).map(|i| (i as f64 / 10_000.0).powi(4)).collect();
        let dev = qq_uniform_deviation(&samples, 101);
        assert!(dev > 0.3, "deviation {dev}");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn qq_needs_two_points() {
        qq_against_uniform(&[0.1], 1);
    }

    proptest! {
        #[test]
        fn quantile_is_a_sample(samples in proptest::collection::vec(-50.0f64..50.0, 1..100),
                                q in 0.0f64..1.0) {
            let ecdf = Ecdf::new(samples.clone());
            let value = ecdf.quantile(q).unwrap();
            prop_assert!(samples.contains(&value));
        }
    }
}
