//! Content-popularity models.
//!
//! The workload generator needs to decide *which* catalog item each request
//! asks for. The paper finds that the measured popularity distributions are
//! highly skewed (over 80 % of CIDs are requested by a single peer) but — per
//! the Clauset–Shalizi–Newman test — **not** power-law distributed. To let the
//! experiments reproduce both the skew and the non-power-law shape, this
//! module offers two weight models: Zipf (the gateway workload's) and a
//! log-normal head with a flattened tail (the node workload's, and the paper
//! default). The default does not reproduce the paper's rejection yet: the
//! Fig. 5 golden (`IPFS_MON_SCALE=0.2`) prints `p=0.317 rejected=false` for
//! RRP and `p=0.533 rejected=false` for URP. Calibrating the workload is
//! ROADMAP open item 2.

use ipfs_mon_simnet::rng::SimRng;

/// How popularity weights are assigned to catalog items.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PopularityModel {
    /// Zipf weights `1 / rank^s`.
    Zipf {
        /// Zipf exponent (1.0 is the classic harmonic profile).
        exponent: f64,
    },
    /// The default for reproducing the paper: a log-normal head combined with
    /// a large uniform-weight tail of barely requested items. Heavily skewed,
    /// but not yet rejected by the power-law test (see the module doc).
    SkewedMixture {
        /// Fraction of items in the popular (log-normal) head.
        head_fraction: f64,
        /// `σ` of the head's log-normal weights.
        sigma: f64,
    },
}

impl PopularityModel {
    /// The model used by the Fig. 5 reproduction.
    pub fn paper_default() -> Self {
        PopularityModel::SkewedMixture {
            head_fraction: 0.12,
            sigma: 1.8,
        }
    }
}

/// A sampler that picks catalog indices according to a popularity model.
#[derive(Debug, Clone)]
pub struct PopularitySampler {
    /// Cumulative weights for binary-search sampling.
    cumulative: Vec<f64>,
}

impl PopularitySampler {
    /// Builds a sampler over `items` catalog entries.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero.
    pub fn new(model: PopularityModel, items: usize, rng: &mut SimRng) -> Self {
        assert!(items > 0, "catalog must not be empty");
        let mut weights = vec![0.0f64; items];
        match model {
            PopularityModel::Zipf { exponent } => {
                for (rank, w) in weights.iter_mut().enumerate() {
                    *w = 1.0 / ((rank + 1) as f64).powf(exponent);
                }
            }
            PopularityModel::SkewedMixture {
                head_fraction,
                sigma,
            } => {
                let head = ((items as f64) * head_fraction.clamp(0.0, 1.0)).round() as usize;
                for (i, w) in weights.iter_mut().enumerate() {
                    if i < head.max(1) {
                        *w = rng.sample_lognormal(2.0, sigma);
                    } else {
                        // A flat, barely-requested tail: most CIDs end up with
                        // zero or one observed request.
                        *w = 0.05;
                    }
                }
            }
        }
        let mut cumulative = Vec::with_capacity(items);
        let mut acc = 0.0;
        for w in weights {
            acc += w.max(1e-12);
            cumulative.push(acc);
        }
        Self { cumulative }
    }

    /// Number of catalog items covered.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Returns true if the sampler covers no items.
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Samples one catalog index.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        use rand::Rng;
        let total = *self.cumulative.last().expect("non-empty");
        let target = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= target)
    }

    /// The normalized weight of item `index`.
    pub fn weight(&self, index: usize) -> f64 {
        let total = *self.cumulative.last().expect("non-empty");
        let prev = if index == 0 {
            0.0
        } else {
            self.cumulative[index - 1]
        };
        (self.cumulative[index] - prev) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_counts(model: PopularityModel, items: usize, draws: usize, seed: u64) -> Vec<u64> {
        let mut rng = SimRng::new(seed);
        let sampler = PopularitySampler::new(model, items, &mut rng);
        let mut counts = vec![0u64; items];
        for _ in 0..draws {
            counts[sampler.sample(&mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let counts = request_counts(PopularityModel::Zipf { exponent: 1.0 }, 1000, 50_000, 1);
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[999]);
        // Harmonic sum for 1000 items ≈ 7.49, so rank 1 gets ≈ 13 % of draws.
        let share = counts[0] as f64 / 50_000.0;
        assert!((share - 0.133).abs() < 0.02, "share {share}");
    }

    #[test]
    fn skewed_mixture_is_heavily_skewed() {
        let counts = request_counts(PopularityModel::paper_default(), 5_000, 20_000, 3);
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = sorted.iter().take(500).sum();
        let total: u64 = sorted.iter().sum();
        assert!(
            top_decile as f64 / total as f64 > 0.5,
            "top 10% of items should receive most requests"
        );
        // Majority of items see at most one request — the paper's ">80% of
        // CIDs requested by one peer" regime.
        let rare = counts.iter().filter(|&&c| c <= 1).count();
        assert!(rare as f64 / counts.len() as f64 > 0.5, "rare {rare}");
    }

    #[test]
    fn weights_are_normalized() {
        let mut rng = SimRng::new(4);
        let sampler = PopularitySampler::new(PopularityModel::Zipf { exponent: 1.2 }, 50, &mut rng);
        let total: f64 = (0..50).map(|i| sampler.weight(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(sampler.weight(0) > sampler.weight(49));
    }

    #[test]
    fn sample_indices_in_range() {
        let mut rng = SimRng::new(5);
        let sampler = PopularitySampler::new(PopularityModel::paper_default(), 37, &mut rng);
        for _ in 0..1000 {
            assert!(sampler.sample(&mut rng) < 37);
        }
    }

    #[test]
    #[should_panic(expected = "catalog must not be empty")]
    fn empty_catalog_panics() {
        let mut rng = SimRng::new(6);
        PopularitySampler::new(PopularityModel::Zipf { exponent: 1.0 }, 0, &mut rng);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = request_counts(PopularityModel::paper_default(), 100, 1000, 7);
        let b = request_counts(PopularityModel::paper_default(), 100, 1000, 7);
        assert_eq!(a, b);
    }
}
