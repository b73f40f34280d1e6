//! Deterministic randomness for reproducible simulations.
//!
//! Every experiment in the harness is seeded; the same seed yields the same
//! network, workload, and traces. `SimRng` wraps a [`rand::rngs::StdRng`] and
//! adds labelled sub-stream derivation so that independent components (churn,
//! content catalog, request processes, …) draw from independent streams and
//! adding draws to one component does not perturb the others.

use ipfs_mon_types::sha256;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded random number generator with labelled sub-stream derivation.
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit experiment seed.
    pub fn new(seed: u64) -> Self {
        let mut key = [0u8; 32];
        key[..8].copy_from_slice(&seed.to_be_bytes());
        Self {
            seed,
            inner: StdRng::from_seed(sha256::sha256(&key)),
        }
    }

    /// The experiment seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator for the given component label.
    ///
    /// The derived stream depends only on `(seed, label)`, so components stay
    /// decoupled: drawing more numbers for "churn" never changes the values
    /// drawn for "catalog".
    pub fn derive(&self, label: &str) -> SimRng {
        let mut input = Vec::with_capacity(8 + label.len());
        input.extend_from_slice(&self.seed.to_be_bytes());
        input.extend_from_slice(label.as_bytes());
        let digest = sha256::sha256(&input);
        let sub_seed = u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"));
        Self {
            seed: sub_seed,
            inner: StdRng::from_seed(digest),
        }
    }

    /// Derives an independent generator for a numbered entity (e.g. node 17).
    pub fn derive_indexed(&self, label: &str, index: u64) -> SimRng {
        self.derive(&format!("{label}/{index}"))
    }

    /// Samples an exponentially distributed duration with the given mean, in
    /// fractional units (commonly seconds). Used by Poisson request processes
    /// and churn models.
    pub fn sample_exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "mean must be positive");
        // Inverse CDF; `gen` returns [0,1), guard against ln(0).
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Samples a Pareto-distributed value with scale `x_min` and shape
    /// `alpha`. Used for heavy-tailed session lengths and file sizes.
    pub fn sample_pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0);
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        x_min / u.powf(1.0 / alpha)
    }

    /// Samples a log-normally distributed value with the given parameters of
    /// the underlying normal distribution.
    pub fn sample_lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.sample_standard_normal()).exp()
    }

    /// Samples a standard normal (Box–Muller transform).
    pub fn sample_standard_normal(&mut self) -> f64 {
        let u1: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.inner.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Chooses an index according to the given non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn sample_weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weights must not be empty");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut target = self.inner.gen_range(0.0..total);
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..50).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derived_streams_are_independent_of_parent_usage() {
        let mut parent = SimRng::new(7);
        let mut child_before = parent.derive("churn");
        // Consume from the parent — must not affect the derived stream.
        for _ in 0..10 {
            parent.next_u64();
        }
        let mut child_after = parent.derive("churn");
        for _ in 0..20 {
            assert_eq!(child_before.next_u64(), child_after.next_u64());
        }
    }

    #[test]
    fn derived_labels_differ() {
        let parent = SimRng::new(7);
        let mut a = parent.derive("catalog");
        let mut b = parent.derive("requests");
        assert_ne!(a.next_u64(), b.next_u64());
        let mut c = parent.derive_indexed("node", 1);
        let mut d = parent.derive_indexed("node", 2);
        assert_ne!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(11);
        let n = 20_000;
        let mean = 30.0;
        let sum: f64 = (0..n).map(|_| rng.sample_exponential(mean)).sum();
        let sample_mean = sum / n as f64;
        assert!(
            (sample_mean - mean).abs() < mean * 0.05,
            "sample mean {sample_mean} far from {mean}"
        );
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut rng = SimRng::new(12);
        for _ in 0..1000 {
            assert!(rng.sample_pareto(5.0, 1.5) >= 5.0);
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::new(13);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.sample_standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(14);
        let weights = [0.0, 3.0, 1.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.sample_weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "weights must not be empty")]
    fn weighted_index_empty_panics() {
        SimRng::new(1).sample_weighted_index(&[]);
    }

    #[test]
    fn lognormal_is_positive() {
        let mut rng = SimRng::new(15);
        for _ in 0..1000 {
            assert!(rng.sample_lognormal(0.0, 2.0) > 0.0);
        }
    }
}
