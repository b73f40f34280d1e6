//! Order statistics over timing samples.

/// The `p`-th percentile (0 < p ≤ 100) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `p` % of the samples at or below
/// it. `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median: mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The highest of the 50th, 90th and 99th percentiles that still has at
/// least ten samples beyond it, or `None` when even the median has not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(5.0));
        assert_eq!(percentile(&samples, 90.0), Some(9.0));
        assert_eq!(percentile(&samples, 99.0), Some(10.0));
        assert_eq!(percentile(&samples, 100.0), Some(10.0));
        assert_eq!(percentile(&samples, 0.001), Some(1.0));
        assert_eq!(percentile(&[7.5], 90.0), Some(7.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 1 000 samples: the 99th percentile is sample 990, ten lie beyond.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        // 999 samples: rank ceil(989.01) = 990, only nine beyond.
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }
}
