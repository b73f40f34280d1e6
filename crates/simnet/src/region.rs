//! Geography and latency model.
//!
//! Stands in for two pieces of real-world infrastructure used in the paper:
//! the MaxMind GeoIP database (mapping peer addresses to countries for
//! Table II) and the Internet itself (inter-peer latency, which determines how
//! far apart duplicate broadcasts arrive at different monitors and therefore
//! exercises the 5 s deduplication window).

use crate::rng::SimRng;
use crate::time::SimDuration;
use ipfs_mon_types::{Country, Multiaddr};

/// A weighted mix of countries from which simulated peers draw their
/// location.
#[derive(Debug, Clone)]
pub struct CountryMix {
    entries: Vec<(Country, f64)>,
}

impl CountryMix {
    /// Builds a mix from `(country, weight)` pairs. Weights need not sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or all weights are zero/negative.
    pub fn new(entries: Vec<(Country, f64)>) -> Self {
        assert!(!entries.is_empty(), "country mix must not be empty");
        assert!(
            entries.iter().any(|(_, w)| *w > 0.0),
            "country mix needs at least one positive weight"
        );
        Self { entries }
    }

    /// The activity mix reported in Table II of the paper: US 45.65 %,
    /// NL 13.85 %, DE 12.72 %, CA 7.61 %, FR 6.64 %, others < 13.60 %.
    pub fn paper_table2() -> Self {
        Self::new(vec![
            (Country::Us, 45.65),
            (Country::Nl, 13.85),
            (Country::De, 12.72),
            (Country::Ca, 7.61),
            (Country::Fr, 6.64),
            (Country::Gb, 3.2),
            (Country::Cn, 2.6),
            (Country::Sg, 2.2),
            (Country::Pl, 1.9),
            (Country::Jp, 1.6),
            (Country::Other, 2.03),
        ])
    }

    /// A uniform mix over all known countries, useful for stress tests.
    pub fn uniform() -> Self {
        Self::new(Country::all().iter().map(|&c| (c, 1.0)).collect())
    }

    /// Samples a country according to the weights.
    pub fn sample(&self, rng: &mut SimRng) -> Country {
        let weights: Vec<f64> = self.entries.iter().map(|(_, w)| w.max(0.0)).collect();
        self.entries[rng.sample_weighted_index(&weights)].0
    }

    /// Samples an address located in a country drawn from this mix.
    pub fn sample_address(&self, rng: &mut SimRng) -> Multiaddr {
        let country = self.sample(rng);
        Multiaddr::random_in_country(rng, country)
    }

    /// The normalized weight of each country, as fractions summing to 1.
    pub fn normalized(&self) -> Vec<(Country, f64)> {
        let total: f64 = self.entries.iter().map(|(_, w)| w.max(0.0)).sum();
        self.entries
            .iter()
            .map(|&(c, w)| (c, w.max(0.0) / total))
            .collect()
    }
}

/// Latency model between countries.
///
/// Latencies are sampled as `base + jitter`, where the base depends on whether
/// the two endpoints are in the same country, the same continent-ish group, or
/// on different continents. The absolute values are coarse, but they produce
/// realistic *spreads* between the arrival times of the same broadcast at two
/// monitors, which is what the preprocessing windows (5 s, 31 s) react to.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Mean one-way latency between peers in the same country.
    pub same_country_ms: f64,
    /// Mean one-way latency within the same region group.
    pub same_region_ms: f64,
    /// Mean one-way latency across region groups.
    pub cross_region_ms: f64,
    /// Multiplicative jitter bound (e.g. 0.3 = ±30 %).
    pub jitter: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            same_country_ms: 20.0,
            same_region_ms: 45.0,
            cross_region_ms: 130.0,
            jitter: 0.35,
        }
    }
}

/// Coarse region groups for latency purposes.
fn region_group(country: Country) -> u8 {
    match country {
        Country::Us | Country::Ca => 0, // North America
        Country::Nl | Country::De | Country::Fr | Country::Gb | Country::Pl => 1, // Europe
        Country::Cn | Country::Sg | Country::Jp => 2, // Asia
        Country::Other => 3,
        _ => 3,
    }
}

impl LatencyModel {
    /// The mean one-way latency between two countries, in milliseconds.
    fn base_ms(&self, from: Country, to: Country) -> f64 {
        if from == to && from != Country::Other {
            self.same_country_ms
        } else if region_group(from) == region_group(to) && region_group(from) != 3 {
            self.same_region_ms
        } else {
            self.cross_region_ms
        }
    }

    /// Samples the one-way latency of a message between two countries.
    pub fn sample(&self, rng: &mut SimRng, from: Country, to: Country) -> SimDuration {
        jittered(self.base_ms(from, to), self.jitter, rng)
    }

    /// Mean latency (without jitter) between two countries.
    pub fn mean(&self, from: Country, to: Country) -> SimDuration {
        SimDuration::from_millis(self.base_ms(from, to).round() as u64)
    }

    /// Precomputes the full country×country base-latency matrix so the
    /// handler hot path indexes a flat table instead of re-deriving the
    /// country-pair mean on every sample.
    pub fn table(&self) -> LatencyTable {
        let n = Country::all()
            .iter()
            .map(|&c| c as usize)
            .max()
            .expect("country list is non-empty")
            + 1;
        let mut base_ms = vec![0.0f64; n * n];
        for &from in Country::all() {
            for &to in Country::all() {
                base_ms[from as usize * n + to as usize] = self.base_ms(from, to);
            }
        }
        LatencyTable {
            n,
            base_ms,
            jitter: self.jitter,
        }
    }
}

/// Applies the multiplicative jitter draw shared by [`LatencyModel::sample`]
/// and [`LatencyTable::sample`]; both must consume exactly one standard
/// normal so the two entry points are stream-compatible.
fn jittered(base: f64, jitter: f64, rng: &mut SimRng) -> SimDuration {
    let jitter_factor = 1.0 + jitter * (2.0 * rng.sample_standard_normal().tanh());
    let ms = (base * jitter_factor.max(0.1)).max(1.0);
    SimDuration::from_millis(ms.round() as u64)
}

/// Flat country×country base-latency matrix built by [`LatencyModel::table`].
///
/// Sampling draws the identical jitter factor as [`LatencyModel::sample`], so
/// for the same generator state the two produce bit-identical durations — the
/// table is a pure lookup optimization, not a model change.
#[derive(Debug, Clone)]
pub struct LatencyTable {
    n: usize,
    base_ms: Vec<f64>,
    jitter: f64,
}

impl LatencyTable {
    /// Samples the one-way latency between two countries using the
    /// precomputed base mean.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng, from: Country, to: Country) -> SimDuration {
        jittered(
            self.base_ms[from as usize * self.n + to as usize],
            self.jitter,
            rng,
        )
    }

    /// Mean latency (without jitter) between two countries.
    #[inline]
    pub fn mean(&self, from: Country, to: Country) -> SimDuration {
        SimDuration::from_millis(self.base_ms[from as usize * self.n + to as usize].round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_mix_matches_paper_ranking() {
        let mix = CountryMix::paper_table2();
        let norm = mix.normalized();
        let us = norm.iter().find(|(c, _)| *c == Country::Us).unwrap().1;
        let nl = norm.iter().find(|(c, _)| *c == Country::Nl).unwrap().1;
        let de = norm.iter().find(|(c, _)| *c == Country::De).unwrap().1;
        assert!(us > nl && nl > de, "ranking US > NL > DE");
        assert!((us - 0.4565).abs() < 0.02, "US share ≈ 45.65%: {us}");
        let total: f64 = norm.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampling_follows_weights() {
        let mix = CountryMix::new(vec![(Country::Us, 3.0), (Country::De, 1.0)]);
        let mut rng = SimRng::new(5);
        let mut us = 0;
        let n = 20_000;
        for _ in 0..n {
            if mix.sample(&mut rng) == Country::Us {
                us += 1;
            }
        }
        let share = us as f64 / n as f64;
        assert!((share - 0.75).abs() < 0.02, "share {share}");
    }

    #[test]
    fn sample_address_uses_sampled_country() {
        let mix = CountryMix::new(vec![(Country::Jp, 1.0)]);
        let mut rng = SimRng::new(6);
        for _ in 0..10 {
            assert_eq!(mix.sample_address(&mut rng).country, Country::Jp);
        }
    }

    #[test]
    #[should_panic(expected = "country mix must not be empty")]
    fn empty_mix_panics() {
        CountryMix::new(vec![]);
    }

    #[test]
    fn latency_ordering_same_lt_region_lt_cross() {
        let model = LatencyModel::default();
        let same = model.mean(Country::De, Country::De);
        let region = model.mean(Country::De, Country::Fr);
        let cross = model.mean(Country::De, Country::Us);
        assert!(same < region && region < cross);
    }

    #[test]
    fn sampled_latency_is_positive_and_bounded() {
        let model = LatencyModel::default();
        let mut rng = SimRng::new(7);
        for _ in 0..2000 {
            let lat = model.sample(&mut rng, Country::Us, Country::Cn);
            assert!(lat.as_millis() >= 1);
            assert!(lat.as_millis() < 1000, "latency {lat} too large");
        }
    }

    #[test]
    fn latency_table_matches_model_bit_for_bit() {
        let model = LatencyModel::default();
        let table = model.table();
        let mut rng_model = SimRng::new(31);
        let mut rng_table = SimRng::new(31);
        for &from in Country::all() {
            for &to in Country::all() {
                assert_eq!(table.mean(from, to), model.mean(from, to));
                for _ in 0..20 {
                    assert_eq!(
                        table.sample(&mut rng_table, from, to),
                        model.sample(&mut rng_model, from, to),
                        "{from:?} -> {to:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_mix_covers_all_countries() {
        let mix = CountryMix::uniform();
        let mut rng = SimRng::new(8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            seen.insert(mix.sample(&mut rng));
        }
        assert_eq!(seen.len(), Country::all().len());
    }
}
