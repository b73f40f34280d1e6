//! Content-popularity analysis (Sec. IV-D / V-E).
//!
//! Two scores are computed per CID over a given period:
//!
//! * **Raw request popularity (RRP)** — the total number of requests observed
//!   for the CID ("on the wire" behaviour, relevant for cache simulations and
//!   Bitswap tuning);
//! * **Unique request popularity (URP)** — the number of distinct peers that
//!   requested the CID (a proxy for popularity among distinct users).
//!
//! Both are computed on the unified, deduplicated trace. The paper finds both
//! distributions heavily skewed yet rejects the power-law hypothesis with the
//! Clauset–Shalizi–Newman test; [`popularity_report`] reproduces exactly that
//! pipeline.

use crate::trace::UnifiedTrace;
use ipfs_mon_analysis::{goodness_of_fit, Ecdf, GoodnessOfFit};
use ipfs_mon_types::{Cid, PeerId};
use std::collections::{HashMap, HashSet};

/// Popularity scores for every CID observed in a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PopularityScores {
    /// Raw request popularity per CID.
    pub rrp: HashMap<Cid, u64>,
    /// Unique request popularity per CID.
    pub urp: HashMap<Cid, u64>,
}

impl PopularityScores {
    /// Number of distinct CIDs observed.
    pub fn cid_count(&self) -> usize {
        self.rrp.len()
    }

    /// The `k` most popular CIDs by the given score (`true` = URP).
    pub fn top_k(&self, k: usize, by_urp: bool) -> Vec<(Cid, u64)> {
        let map = if by_urp { &self.urp } else { &self.rrp };
        rank_top_k(map.iter().map(|(c, &v)| (c.clone(), v)).collect(), k)
    }

    /// ECDF of the RRP scores.
    pub fn rrp_ecdf(&self) -> Ecdf {
        Ecdf::from_counts(self.rrp.values().copied())
    }

    /// ECDF of the URP scores.
    pub fn urp_ecdf(&self) -> Ecdf {
        Ecdf::from_counts(self.urp.values().copied())
    }

    /// Fraction of CIDs requested by exactly one distinct peer (the paper
    /// reports > 80 %).
    pub fn single_requester_fraction(&self) -> f64 {
        if self.urp.is_empty() {
            return 0.0;
        }
        let singles = self.urp.values().filter(|&&v| v == 1).count();
        singles as f64 / self.urp.len() as f64
    }
}

/// The first `k` of `counts` ranked by count descending, key ascending — the
/// one ranking rule of every top-K report over exact counts. Keys are
/// distinct, so the order is total and the result independent of the input
/// order.
pub(crate) fn rank_top_k<K: Ord>(mut counts: Vec<(K, u64)>, k: usize) -> Vec<(K, u64)> {
    let rank = |a: &(K, u64), b: &(K, u64)| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0));
    if k < counts.len() {
        // Only the first `k` need sorting.
        if k > 0 {
            counts.select_nth_unstable_by(k - 1, rank);
        }
        counts.truncate(k);
    }
    counts.sort_unstable_by(rank);
    counts
}

/// Incremental per-CID score aggregation shared by the in-memory
/// [`popularity_scores`] and [`crate::sinks::PopularitySink`]: per CID, the
/// request count and the set of requesters, under one key.
#[derive(Debug, Clone, Default)]
pub(crate) struct ScoreAccumulator {
    scores: HashMap<Cid, (u64, HashSet<PeerId>)>,
}

impl ScoreAccumulator {
    pub(crate) fn add(&mut self, cid: &Cid, peer: PeerId) {
        self.add_requests(cid, 1, [peer]);
    }

    /// Accounts `requests` requests for `cid` that came from `peers` — the
    /// one aggregation rule, whether the requests arrive one entry at a time
    /// or counted per chunk.
    pub(crate) fn add_requests(
        &mut self,
        cid: &Cid,
        requests: u64,
        peers: impl IntoIterator<Item = PeerId>,
    ) {
        let (count, requesters) = self.scores.entry(cid.clone()).or_default();
        *count += requests;
        requesters.extend(peers);
    }

    /// Merges another accumulator: request counts add, requester sets union —
    /// both independent of how the entries were partitioned, which is what
    /// makes the popularity scores safe to compute per monitor and combine.
    pub(crate) fn merge(&mut self, other: Self) {
        for (cid, (requests, peers)) in other.scores {
            self.add_requests(&cid, requests, peers);
        }
    }

    pub(crate) fn finish(self) -> PopularityScores {
        let mut rrp = HashMap::with_capacity(self.scores.len());
        let mut urp = HashMap::with_capacity(self.scores.len());
        for (cid, (requests, peers)) in self.scores {
            urp.insert(cid.clone(), peers.len() as u64);
            rrp.insert(cid, requests);
        }
        PopularityScores { rrp, urp }
    }
}

/// Computes RRP and URP from the primary (deduplicated, re-broadcast-free)
/// requests of a unified trace.
pub fn popularity_scores(trace: &UnifiedTrace) -> PopularityScores {
    let mut accumulator = ScoreAccumulator::default();
    for entry in trace.primary_requests() {
        accumulator.add(&entry.cid, entry.peer);
    }
    accumulator.finish()
}

/// Full popularity analysis: scores, ECDF curves and power-law tests for both
/// metrics.
#[derive(Debug, Clone)]
pub struct PopularityReport {
    /// Number of distinct CIDs.
    pub cid_count: usize,
    /// ECDF curve of RRP, as `(score, cumulative probability)` points.
    pub rrp_curve: Vec<(f64, f64)>,
    /// ECDF curve of URP.
    pub urp_curve: Vec<(f64, f64)>,
    /// Fraction of CIDs with a single distinct requester.
    pub single_requester_fraction: f64,
    /// Power-law goodness-of-fit result for RRP (`None` if too few samples).
    pub rrp_power_law: Option<GoodnessOfFit>,
    /// Power-law goodness-of-fit result for URP.
    pub urp_power_law: Option<GoodnessOfFit>,
}

/// Runs the complete Fig. 5 analysis on a unified trace. `bootstrap` controls
/// the number of goodness-of-fit replicates (the paper's threshold `p < 0.1`
/// is applied).
pub fn popularity_report(trace: &UnifiedTrace, bootstrap: usize, seed: u64) -> PopularityReport {
    let scores = popularity_scores(trace);
    // The bootstrap draws from its samples by index; sorted, it sees the
    // same input every run instead of the hash map's iteration order.
    let sorted_samples = |scores: &HashMap<Cid, u64>| -> Vec<f64> {
        let mut counts: Vec<u64> = scores.values().copied().collect();
        counts.sort_unstable();
        counts.into_iter().map(|v| v as f64).collect()
    };
    let rrp_samples = sorted_samples(&scores.rrp);
    let urp_samples = sorted_samples(&scores.urp);
    PopularityReport {
        cid_count: scores.cid_count(),
        rrp_curve: scores.rrp_ecdf().curve(),
        urp_curve: scores.urp_ecdf().curve(),
        single_requester_fraction: scores.single_requester_fraction(),
        rrp_power_law: goodness_of_fit(&rrp_samples, bootstrap, 40, seed),
        urp_power_law: goodness_of_fit(&urp_samples, bootstrap, 40, seed.wrapping_add(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EntryFlags, TraceEntry};
    use ipfs_mon_bitswap::RequestType;
    use ipfs_mon_simnet::time::SimTime;
    use ipfs_mon_types::{Country, Multiaddr, Multicodec, Transport};

    fn entry(peer: u64, cid: u8, rtype: RequestType, flags: EntryFlags) -> TraceEntry {
        TraceEntry {
            timestamp: SimTime::from_secs(peer),
            peer: PeerId::derived(5, peer),
            address: Multiaddr::new(1, 4001, Transport::Tcp, Country::Us),
            request_type: rtype,
            cid: Cid::new_v1(Multicodec::Raw, &[cid]),
            monitor: 0,
            flags,
        }
    }

    #[test]
    fn rrp_counts_requests_and_urp_counts_peers() {
        let trace = UnifiedTrace {
            entries: vec![
                entry(1, 1, RequestType::WantHave, EntryFlags::default()),
                entry(2, 1, RequestType::WantHave, EntryFlags::default()),
                entry(2, 1, RequestType::WantBlock, EntryFlags::default()),
                entry(3, 2, RequestType::WantHave, EntryFlags::default()),
            ],
        };
        let scores = popularity_scores(&trace);
        let cid1 = Cid::new_v1(Multicodec::Raw, &[1]);
        let cid2 = Cid::new_v1(Multicodec::Raw, &[2]);
        assert_eq!(scores.rrp[&cid1], 3);
        assert_eq!(scores.urp[&cid1], 2, "peer 2 counted once");
        assert_eq!(scores.rrp[&cid2], 1);
        assert_eq!(scores.cid_count(), 2);
        assert_eq!(scores.single_requester_fraction(), 0.5);
    }

    #[test]
    fn cancels_and_flagged_entries_are_excluded() {
        let dup = EntryFlags {
            inter_monitor_duplicate: true,
            rebroadcast: false,
        };
        let rebroadcast = EntryFlags {
            inter_monitor_duplicate: false,
            rebroadcast: true,
        };
        let trace = UnifiedTrace {
            entries: vec![
                entry(1, 1, RequestType::WantHave, EntryFlags::default()),
                entry(1, 1, RequestType::WantHave, dup),
                entry(1, 1, RequestType::WantHave, rebroadcast),
                entry(1, 1, RequestType::Cancel, EntryFlags::default()),
            ],
        };
        let scores = popularity_scores(&trace);
        let cid1 = Cid::new_v1(Multicodec::Raw, &[1]);
        assert_eq!(scores.rrp[&cid1], 1);
        assert_eq!(scores.urp[&cid1], 1);
    }

    #[test]
    fn top_k_is_ordered() {
        let mut entries = Vec::new();
        for peer in 0..10u64 {
            entries.push(entry(peer, 1, RequestType::WantHave, EntryFlags::default()));
        }
        for peer in 0..3u64 {
            entries.push(entry(
                peer + 100,
                2,
                RequestType::WantHave,
                EntryFlags::default(),
            ));
        }
        let scores = popularity_scores(&UnifiedTrace { entries });
        let top = scores.top_k(2, true);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1, 10);
        assert_eq!(top[1].1, 3);
    }

    #[test]
    fn report_on_skewed_trace_rejects_power_law() {
        // Build a trace whose URP distribution is a narrow log-normal-like
        // body (clearly not a power law): many CIDs with mid-range counts.
        let mut entries = Vec::new();
        let mut rng_state = 1u64;
        let mut next = || {
            // xorshift for determinism without pulling in rand here
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for cid in 0..200u8 {
            let requesters = 20 + next() % 30;
            for peer in 0..requesters {
                entries.push(entry(
                    peer * 1000 + cid as u64,
                    cid,
                    RequestType::WantHave,
                    EntryFlags::default(),
                ));
            }
        }
        let report = popularity_report(&UnifiedTrace { entries }, 40, 7);
        assert_eq!(report.cid_count, 200);
        let urp = report.urp_power_law.expect("enough samples to fit");
        assert!(urp.rejected, "p = {}", urp.p_value);
    }

    #[test]
    fn report_is_identical_from_run_to_run() {
        // A heavy-tailed URP distribution over a mixed body, so the bootstrap
        // p-value lies strictly between 0 and 1 and depends on every draw.
        let mut entries = Vec::new();
        let mut rng_state = 9u64;
        let mut next = || {
            rng_state ^= rng_state << 13;
            rng_state ^= rng_state >> 7;
            rng_state ^= rng_state << 17;
            rng_state
        };
        for cid in 0..=255u8 {
            let u = (next() % 10_000 + 1) as f64 / 10_000.0;
            let requesters = (2.0 * u.powf(-1.0 / 1.3)) as u64 + next() % 3;
            for peer in 0..requesters.min(400) {
                entries.push(entry(
                    peer * 1000 + cid as u64,
                    cid,
                    RequestType::WantHave,
                    EntryFlags::default(),
                ));
            }
        }
        let trace = UnifiedTrace { entries };
        let first = popularity_report(&trace, 60, 11);
        let second = popularity_report(&trace, 60, 11);
        let p_value = first
            .urp_power_law
            .as_ref()
            .expect("enough samples")
            .p_value;
        assert!(p_value > 0.0 && p_value < 1.0, "p = {p_value}");
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }

    #[test]
    fn empty_trace_produces_empty_report() {
        let report = popularity_report(&UnifiedTrace::default(), 10, 1);
        assert_eq!(report.cid_count, 0);
        assert!(report.rrp_curve.is_empty());
        assert!(report.rrp_power_law.is_none());
        assert_eq!(report.single_requester_fraction, 0.0);
    }
}
