//! Client-version modelling.
//!
//! Fig. 4 of the paper shows the transition of observed request types from
//! `WANT_BLOCK` (pre-v0.5 clients) to `WANT_HAVE` (v0.5+ clients) over the
//! months following the v0.5 release: users gradually upgraded their nodes.
//! This module models that adoption: each node gets an upgrade instant drawn
//! from an adoption curve; before it the node speaks the legacy protocol,
//! after it the modern one.

use ipfs_mon_bitswap::ProtocolVersion;
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_simnet::time::{SimDuration, SimTime};

/// Per-node protocol upgrade schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpgradeSchedule {
    /// The instant the node switches from legacy to modern Bitswap. `None`
    /// means the node never upgrades within the simulated horizon.
    pub upgrade_at: Option<SimTime>,
}

impl UpgradeSchedule {
    /// A node that has always spoken the modern protocol.
    pub fn always_modern() -> Self {
        Self {
            upgrade_at: Some(SimTime::ZERO),
        }
    }

    /// A node that never upgrades.
    pub fn never() -> Self {
        Self { upgrade_at: None }
    }

    /// The protocol the node speaks at `now`.
    pub fn protocol_at(&self, now: SimTime) -> ProtocolVersion {
        match self.upgrade_at {
            Some(at) if now >= at => ProtocolVersion::Modern,
            _ => ProtocolVersion::Legacy,
        }
    }
}

/// A population-level adoption curve for the v0.5 upgrade.
///
/// The release happens at `release_at`. A fraction `eventual_adoption` of
/// nodes upgrades at some point; each upgrading node's delay after the release
/// is exponentially distributed with mean `mean_upgrade_delay` (fast adopters
/// upgrade within days, stragglers take months), which reproduces the gradual
/// crossover visible in Fig. 4.
#[derive(Debug, Clone, Copy)]
pub struct AdoptionCurve {
    /// When the WANT_HAVE-capable release ships.
    pub release_at: SimTime,
    /// Fraction of the population that eventually upgrades, in `[0, 1]`.
    pub eventual_adoption: f64,
    /// Mean delay between release and an upgrading node's upgrade.
    pub mean_upgrade_delay: SimDuration,
}

impl AdoptionCurve {
    /// The curve used by the Fig. 4 experiment: release after 1.5 months of a
    /// 5.5-month window, 95 % eventual adoption, mean delay of 3 weeks.
    pub fn fig4_default() -> Self {
        Self {
            release_at: SimTime::ZERO + SimDuration::from_days(45),
            eventual_adoption: 0.95,
            mean_upgrade_delay: SimDuration::from_days(21),
        }
    }

    /// Everyone already upgraded (steady-state experiments such as the 2021
    /// analysis week).
    pub fn fully_adopted() -> Self {
        Self {
            release_at: SimTime::ZERO,
            eventual_adoption: 1.0,
            mean_upgrade_delay: SimDuration::ZERO,
        }
    }

    /// Samples one node's upgrade schedule.
    pub fn sample(&self, rng: &mut SimRng) -> UpgradeSchedule {
        use rand::Rng;
        if !rng.gen_bool(self.eventual_adoption.clamp(0.0, 1.0)) {
            return UpgradeSchedule::never();
        }
        if self.mean_upgrade_delay == SimDuration::ZERO {
            return UpgradeSchedule {
                upgrade_at: Some(self.release_at),
            };
        }
        let delay_secs = rng.sample_exponential(self.mean_upgrade_delay.as_secs_f64());
        UpgradeSchedule {
            upgrade_at: Some(self.release_at + SimDuration::from_secs_f64(delay_secs)),
        }
    }

    /// Expected fraction of the population on the modern protocol at `now`
    /// (ignoring sampling noise). Useful for validating the simulated curve.
    pub fn expected_adoption_at(&self, now: SimTime) -> f64 {
        if now < self.release_at {
            return 0.0;
        }
        if self.mean_upgrade_delay == SimDuration::ZERO {
            return self.eventual_adoption;
        }
        let t = now.since(self.release_at).as_secs_f64();
        let mean = self.mean_upgrade_delay.as_secs_f64();
        self.eventual_adoption * (1.0 - (-t / mean).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_switches_protocol_at_upgrade_time() {
        let s = UpgradeSchedule {
            upgrade_at: Some(SimTime::from_secs(100)),
        };
        assert_eq!(
            s.protocol_at(SimTime::from_secs(99)),
            ProtocolVersion::Legacy
        );
        assert_eq!(
            s.protocol_at(SimTime::from_secs(100)),
            ProtocolVersion::Modern
        );
        assert_eq!(
            UpgradeSchedule::never().protocol_at(SimTime::from_secs(1_000_000)),
            ProtocolVersion::Legacy
        );
        assert_eq!(
            UpgradeSchedule::always_modern().protocol_at(SimTime::ZERO),
            ProtocolVersion::Modern
        );
    }

    #[test]
    fn adoption_curve_is_monotone_and_bounded() {
        let curve = AdoptionCurve::fig4_default();
        let mut last = 0.0;
        for day in 0..180 {
            let now = SimTime::ZERO + SimDuration::from_days(day);
            let f = curve.expected_adoption_at(now);
            assert!(f >= last - 1e-12, "monotone");
            assert!((0.0..=1.0).contains(&f));
            last = f;
        }
        assert_eq!(
            curve.expected_adoption_at(SimTime::ZERO + SimDuration::from_days(44)),
            0.0
        );
        assert!(curve.expected_adoption_at(SimTime::ZERO + SimDuration::from_days(170)) > 0.85);
    }

    #[test]
    fn sampled_adoption_tracks_expectation() {
        let curve = AdoptionCurve::fig4_default();
        let parent = SimRng::new(42);
        let n = 5000;
        let schedules: Vec<UpgradeSchedule> = (0..n)
            .map(|i| {
                let mut rng = parent.derive_indexed("upgrade", i);
                curve.sample(&mut rng)
            })
            .collect();
        let probe = SimTime::ZERO + SimDuration::from_days(90);
        let modern = schedules
            .iter()
            .filter(|s| s.protocol_at(probe) == ProtocolVersion::Modern)
            .count() as f64
            / n as f64;
        let expected = curve.expected_adoption_at(probe);
        assert!(
            (modern - expected).abs() < 0.05,
            "sampled {modern} vs expected {expected}"
        );
    }

    #[test]
    fn fully_adopted_curve_upgrades_everyone_immediately() {
        let curve = AdoptionCurve::fully_adopted();
        let mut rng = SimRng::new(1);
        for _ in 0..50 {
            let s = curve.sample(&mut rng);
            assert_eq!(s.protocol_at(SimTime::ZERO), ProtocolVersion::Modern);
        }
    }
}
