//! Content-catalog generation.
//!
//! Produces the set of content items that exists "on the network" during a
//! run: file DAGs, directories and typed single blocks, with a multicodec mix
//! matching Table I of the paper, a configurable fraction of unresolvable
//! items (CIDs with no providers — the paper observes that many popular-by-RRP
//! CIDs cannot be resolved at all), and initial providers drawn from the node
//! population.

use ipfs_mon_blockstore::{build_file, build_typed_item};
use ipfs_mon_node::ContentSpec;
use ipfs_mon_simnet::rng::SimRng;
use ipfs_mon_types::Multicodec;

/// Relative frequency of each multicodec among catalog items.
///
/// Note: Table I reports *request* shares, which are driven by both the
/// catalog mix and popularity; the defaults below yield request shares close
/// to the paper's once the popularity model is applied.
#[derive(Debug, Clone)]
pub struct MulticodecMix {
    /// `(codec, weight)` entries.
    pub entries: Vec<(Multicodec, f64)>,
}

impl MulticodecMix {
    /// A mix approximating the paper's Table I request shares:
    /// DagProtobuf ≈ 86 %, Raw ≈ 13 %, DagCBOR ≈ 0.4 %, traces of GitRaw,
    /// EthereumTx and other codecs.
    pub fn paper_table1() -> Self {
        Self {
            entries: vec![
                (Multicodec::DagProtobuf, 86.21),
                (Multicodec::Raw, 13.42),
                (Multicodec::DagCbor, 0.37),
                (Multicodec::GitRaw, 0.002),
                (Multicodec::EthereumTx, 0.0006),
                (Multicodec::DagJson, 0.0005),
                (Multicodec::Libp2pKey, 0.0004),
            ],
        }
    }

    /// Samples a codec according to the weights.
    pub fn sample(&self, rng: &mut SimRng) -> Multicodec {
        let weights: Vec<f64> = self.entries.iter().map(|(_, w)| *w).collect();
        self.entries[rng.sample_weighted_index(&weights)].0
    }
}

/// Configuration of the content catalog.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// Number of content items.
    pub items: usize,
    /// Multicodec mix.
    pub codec_mix: MulticodecMix,
    /// Fraction of items that have no providers at all (unresolvable CIDs).
    pub unresolvable_fraction: f64,
    /// Maximum number of initial providers per resolvable item (at least one
    /// is always assigned).
    pub max_providers: usize,
    /// Mean logical size of file items in bytes (sizes are Pareto-distributed
    /// around this mean, so most files are small and a few are huge).
    pub mean_file_size: u64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self {
            items: 2_000,
            codec_mix: MulticodecMix::paper_table1(),
            unresolvable_fraction: 0.25,
            max_providers: 5,
            mean_file_size: 512 * 1024,
        }
    }
}

/// Generates the content catalog for a population of `node_count` nodes.
pub fn generate_catalog(
    config: &CatalogConfig,
    node_count: usize,
    rng: &mut SimRng,
) -> Vec<ContentSpec> {
    use rand::Rng;
    assert!(node_count > 0, "need at least one node to host content");
    let mut catalog = Vec::with_capacity(config.items);
    for _item in 0..config.items {
        let codec = config.codec_mix.sample(rng);
        let seed = rng.gen::<u64>();
        let dag = match codec {
            Multicodec::DagProtobuf | Multicodec::Raw => {
                // File-like content: Pareto-distributed logical size. Small
                // files import as a single raw leaf (codec Raw roots), larger
                // ones get a DagProtobuf root, which is how the two dominant
                // codecs of Table I arise naturally.
                let shape = 1.3;
                let x_min = config.mean_file_size as f64 * (shape - 1.0) / shape;
                let size = rng
                    .sample_pareto(x_min.max(1024.0), shape)
                    .min(64.0 * 1024.0 * 1024.0);
                let mut dag = build_file(seed, size as u64, 256 * 1024, 174);
                match codec {
                    Multicodec::Raw if dag.root.codec() != Multicodec::Raw => {
                        // Force a raw single-block item when the mix asked for raw.
                        dag = build_typed_item(Multicodec::Raw, seed, size as u64);
                    }
                    Multicodec::DagProtobuf if dag.root.codec() != Multicodec::DagProtobuf => {
                        // Small single-chunk files import as bare raw leaves;
                        // wrap them in a UnixFS-style dag-pb node so the root
                        // carries the requested codec (as `ipfs add` does by
                        // default).
                        dag = ipfs_mon_blockstore::build_directory(&[("file".to_string(), &dag)]);
                    }
                    _ => {}
                }
                dag
            }
            other => {
                let size = rng.gen_range(128..16_384);
                build_typed_item(other, seed, size)
            }
        };
        let unresolvable = rng.gen_bool(config.unresolvable_fraction.clamp(0.0, 1.0));
        let initial_providers = if unresolvable {
            Vec::new()
        } else {
            let count = rng.gen_range(1..=config.max_providers.max(1));
            (0..count).map(|_| rng.gen_range(0..node_count)).collect()
        };
        catalog.push(ContentSpec {
            dag,
            initial_providers,
        });
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(items: usize, unresolvable: f64, seed: u64) -> Vec<ContentSpec> {
        let config = CatalogConfig {
            items,
            unresolvable_fraction: unresolvable,
            ..CatalogConfig::default()
        };
        let mut rng = SimRng::new(seed);
        generate_catalog(&config, 100, &mut rng)
    }

    #[test]
    fn generates_requested_number_of_items() {
        let catalog = catalog(500, 0.2, 1);
        assert_eq!(catalog.len(), 500);
    }

    #[test]
    fn codec_mix_is_dominated_by_dagpb_and_raw() {
        let catalog = catalog(2_000, 0.0, 2);
        let dagpb = catalog
            .iter()
            .filter(|c| c.dag.root.codec() == Multicodec::DagProtobuf)
            .count() as f64;
        let raw = catalog
            .iter()
            .filter(|c| c.dag.root.codec() == Multicodec::Raw)
            .count() as f64;
        let total = catalog.len() as f64;
        assert!(
            (dagpb + raw) / total > 0.97,
            "file codecs dominate: {}",
            (dagpb + raw) / total
        );
        assert!(dagpb > raw, "DagProtobuf should outweigh Raw");
    }

    #[test]
    fn unresolvable_fraction_is_respected() {
        let catalog = catalog(4_000, 0.3, 3);
        let unresolvable = catalog.iter().filter(|c| c.is_unresolvable()).count() as f64;
        let frac = unresolvable / catalog.len() as f64;
        assert!((frac - 0.3).abs() < 0.03, "fraction {frac}");
    }

    #[test]
    fn providers_are_valid_node_indices() {
        let catalog = catalog(1_000, 0.1, 4);
        for item in &catalog {
            for &p in &item.initial_providers {
                assert!(p < 100);
            }
            if !item.is_unresolvable() {
                assert!(!item.initial_providers.is_empty());
                assert!(item.initial_providers.len() <= 5);
            }
        }
    }

    #[test]
    fn roots_are_distinct() {
        let catalog = catalog(1_000, 0.0, 5);
        let mut roots: Vec<_> = catalog.iter().map(|c| c.dag.root.clone()).collect();
        let before = roots.len();
        roots.sort();
        roots.dedup();
        assert_eq!(roots.len(), before);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = catalog(100, 0.2, 42);
        let b = catalog(100, 0.2, 42);
        let roots_a: Vec<_> = a.iter().map(|c| c.dag.root.clone()).collect();
        let roots_b: Vec<_> = b.iter().map(|c| c.dag.root.clone()).collect();
        assert_eq!(roots_a, roots_b);
    }
}
