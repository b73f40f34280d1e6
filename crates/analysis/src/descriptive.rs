//! Basic descriptive statistics used throughout the experiment reports.

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median (nearest rank).
    pub median: f64,
}

/// Computes summary statistics. Returns `None` for an empty sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let count = samples.len();
    let mean = samples.iter().sum::<f64>() / count as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in summaries"));
    Some(Summary {
        count,
        mean,
        std_dev: var.sqrt(),
        min: sorted[0],
        max: sorted[count - 1],
        median: sorted[(count - 1) / 2],
    })
}

/// Streaming single-pass summary: mean/variance by Welford's algorithm,
/// min/max exactly. Use this for sources too large to materialize (e.g.
/// scores streamed out of a tracestore segment); when the full sample fits in
/// memory, [`summarize`] additionally provides the median.
///
/// NaN samples are skipped (and excluded from `count`) — a stream cannot be
/// pre-validated the way [`summarize`]'s slice can, and poisoning every
/// statistic over one bad sample would make the summary useless. Returns
/// `None` when no non-NaN sample remains.
pub fn summarize_stream<I: IntoIterator<Item = f64>>(samples: I) -> Option<StreamSummary> {
    let mut count = 0usize;
    let mut mean = 0.0f64;
    let mut m2 = 0.0f64;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for x in samples {
        if x.is_nan() {
            continue;
        }
        count += 1;
        let delta = x - mean;
        mean += delta / count as f64;
        m2 += delta * (x - mean);
        min = min.min(x);
        max = max.max(x);
    }
    if count == 0 {
        return None;
    }
    Some(StreamSummary {
        count,
        mean,
        std_dev: (m2 / count as f64).sqrt(),
        min,
        max,
    })
}

/// Summary statistics computable in one streaming pass (no median — that
/// needs the full sample; see [`Summary`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.0);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(summarize(&[]).is_none());
    }
}
