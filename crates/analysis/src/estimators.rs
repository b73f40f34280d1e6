//! Network-size estimators (Sec. IV-C of the paper).
//!
//! Two estimators turn monitor peer sets into an estimate of the total number
//! of nodes `N`:
//!
//! * **Two-monitor capture–recapture** (eq. 1): model monitor 1's peers as
//!   marked balls in an urn and monitor 2's peers as a second draw; the MLE is
//!   `N ≈ |P₁|·|P₂| / |P₁ ∩ P₂|`.
//! * **Committee occupancy / coupon-collector with group drawings** (eq. 3):
//!   with `r` monitors of `w` connections each observing `m` distinct peers in
//!   total, solve `N − N·(1 − m/N)^{1/r} − w = 0` for `N`.
//!
//! Both assume peer sets are (approximately) uniform independent draws from
//! the population — the paper validates this with the Fig. 3 QQ plot and
//! discusses the biases that remain.

/// Errors produced by the estimators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EstimateError {
    /// The monitors share no peers, so the population is unbounded from the
    /// data's point of view.
    EmptyOverlap,
    /// Input counts are inconsistent (e.g. overlap larger than a peer set,
    /// or fewer distinct peers than one monitor's draw).
    InconsistentCounts,
    /// The numerical root search did not converge.
    NoConvergence,
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::EmptyOverlap => write!(f, "monitor peer sets do not overlap"),
            EstimateError::InconsistentCounts => write!(f, "inconsistent input counts"),
            EstimateError::NoConvergence => write!(f, "root search did not converge"),
        }
    }
}

impl std::error::Error for EstimateError {}

/// Two-monitor capture–recapture estimate (eq. 1):
/// `N ≈ |P₁| · |P₂| / |P₁ ∩ P₂|`.
pub fn two_monitor_estimate(
    peers_m1: usize,
    peers_m2: usize,
    overlap: usize,
) -> Result<f64, EstimateError> {
    if overlap == 0 {
        return Err(EstimateError::EmptyOverlap);
    }
    if overlap > peers_m1 || overlap > peers_m2 {
        return Err(EstimateError::InconsistentCounts);
    }
    Ok(peers_m1 as f64 * peers_m2 as f64 / overlap as f64)
}

/// Committee-occupancy estimate (eq. 3) for `r` monitors with `w` connections
/// each and `m` distinct peers observed in total: solves
/// `N − N·(1 − m/N)^{1/r} − w = 0` by bisection.
pub fn committee_estimate(m: usize, r: usize, w: f64) -> Result<f64, EstimateError> {
    if r == 0 || m == 0 || w <= 0.0 {
        return Err(EstimateError::InconsistentCounts);
    }
    let m_f = m as f64;
    let r_f = r as f64;
    // A single monitor (or all monitors seeing the same peers) gives no
    // information beyond "N >= m".
    if m_f <= w {
        return if r == 1 {
            Ok(m_f)
        } else {
            Err(EstimateError::InconsistentCounts)
        };
    }
    // More distinct peers than r*w draws is impossible.
    if m_f > r_f * w + 1e-9 {
        return Err(EstimateError::InconsistentCounts);
    }
    if r == 1 {
        return Ok(m_f);
    }

    let f = |n: f64| -> f64 { n - n * (1.0 - m_f / n).powf(1.0 / r_f) - w };

    // Bracket the root: just above m the function is ≈ m − w > 0; for large N
    // it tends to m/r − w < 0 (m < r·w).
    let mut lo = m_f * (1.0 + 1e-9);
    let mut hi = m_f * 2.0;
    let mut expansions = 0;
    while f(hi) > 0.0 {
        hi *= 2.0;
        expansions += 1;
        if expansions > 200 {
            return Err(EstimateError::NoConvergence);
        }
    }
    if f(lo) < 0.0 {
        // Degenerate: the root is (numerically) at m itself.
        return Ok(m_f);
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if f(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) / hi < 1e-12 {
            break;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Expected number of distinct peers observed by `r` monitors of `w`
    /// connections each in a population of `n` (the forward model of eq. 2/3).
    /// The estimator must invert it.
    fn expected_distinct(n: f64, r: usize, w: f64) -> f64 {
        if n <= 0.0 {
            return 0.0;
        }
        let w = w.min(n);
        n * (1.0 - (1.0 - w / n).powi(r as i32))
    }

    #[test]
    fn two_monitor_exact_case() {
        // 5000-node population, both monitors see half of it, overlap 1250 →
        // estimate 2500*2500/1250 = 5000.
        let n = two_monitor_estimate(2500, 2500, 1250).unwrap();
        assert!((n - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn two_monitor_error_cases() {
        assert_eq!(
            two_monitor_estimate(10, 10, 0).unwrap_err(),
            EstimateError::EmptyOverlap
        );
        assert_eq!(
            two_monitor_estimate(10, 10, 11).unwrap_err(),
            EstimateError::InconsistentCounts
        );
    }

    #[test]
    fn committee_matches_two_monitor_closed_form() {
        // With r = 2 and both monitors holding w connections, eq. 3 and the
        // capture-recapture estimate agree: if overlap = 2w - m, then
        // N = w^2 / (2w - m).
        let w = 3000.0;
        let m = 5000usize; // overlap = 1000
        let committee = committee_estimate(m, 2, w).unwrap();
        let capture = two_monitor_estimate(3000, 3000, 1000).unwrap();
        assert!(
            (committee - capture).abs() / capture < 0.01,
            "committee {committee} vs capture {capture}"
        );
    }

    #[test]
    fn committee_inverts_forward_model() {
        for &(n, r, w) in &[
            (10_000.0, 2, 6000.0),
            (14_000.0, 3, 5000.0),
            (50_000.0, 4, 9000.0),
        ] {
            let m = expected_distinct(n, r, w).round() as usize;
            let est = committee_estimate(m, r, w).unwrap();
            assert!(
                (est - n).abs() / n < 0.02,
                "n={n} r={r} w={w}: estimate {est}"
            );
        }
    }

    #[test]
    fn committee_error_cases() {
        assert!(committee_estimate(0, 2, 10.0).is_err());
        assert!(committee_estimate(10, 0, 10.0).is_err());
        assert!(committee_estimate(10, 2, 0.0).is_err());
        // m > r*w impossible.
        assert!(committee_estimate(100, 2, 10.0).is_err());
        // r >= 2 but no new peers beyond one draw: inconsistent.
        assert!(committee_estimate(10, 2, 10.0).is_err());
    }

    #[test]
    fn single_monitor_estimate_is_its_peer_count() {
        assert_eq!(committee_estimate(4321, 1, 4321.0).unwrap(), 4321.0);
    }

    #[test]
    fn expected_distinct_saturates_at_population() {
        assert!(expected_distinct(1000.0, 10, 900.0) <= 1000.0);
        assert_eq!(expected_distinct(0.0, 3, 10.0), 0.0);
        assert!((expected_distinct(1000.0, 1, 400.0) - 400.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn committee_estimate_is_consistent(n in 2_000.0f64..100_000.0, r in 2usize..6, frac in 0.2f64..0.9) {
            let w = n * frac / r as f64 * 1.5;
            let w = w.min(n * 0.95);
            let m = expected_distinct(n, r, w);
            prop_assume!(m > w + 1.0);
            let est = committee_estimate(m.round() as usize, r, w).unwrap();
            prop_assert!((est - n).abs() / n < 0.05, "n={}, est={}", n, est);
        }

        #[test]
        fn two_monitor_estimate_at_least_union(p1 in 1usize..10_000, p2 in 1usize..10_000, k in 1usize..5_000) {
            prop_assume!(k <= p1 && k <= p2);
            let est = two_monitor_estimate(p1, p2, k).unwrap();
            let union = (p1 + p2 - k) as f64;
            prop_assert!(est >= union - 1e-9);
        }
    }
}
