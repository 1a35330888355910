//! Single-table catalogs for blocking-then-matching experiments.
//!
//! The pair generators in `crate::world` emit pre-paired examples — the
//! shape supervised training consumes. Catalog-scale matching starts one
//! step earlier: a flat pile of offer records with *no* pairing, where a
//! blocking stage must propose candidate pairs and a matcher scores them.
//! [`generate_catalog`] renders such a pile from any [`EntityWorld`]:
//! every entity contributes a variable number of offers (alternating the
//! two sources' renderers), and ground-truth entity ids are derived the
//! same way the paper labels its corpora — as the transitive closure
//! ([`cluster_from_matches`]) of the within-entity match edges, not by
//! leaking the generator's entity index directly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::clusters::cluster_from_matches;
use crate::domains::products::{OfferSchema, ProductWorld, COMPUTERS};
use crate::record::Record;
use crate::world::EntityWorld;

/// Size and seeding knobs for [`generate_catalog`].
#[derive(Debug, Clone)]
pub struct CatalogSpec {
    /// Catalog name.
    pub name: String,
    /// Number of underlying entities.
    pub entities: usize,
    /// Minimum offers rendered per entity (≥ 1).
    pub min_offers: usize,
    /// Maximum offers rendered per entity (≥ `min_offers`).
    pub max_offers: usize,
    /// Master seed; the catalog is a pure function of spec fields.
    pub seed: u64,
}

impl CatalogSpec {
    /// A spec with 2–6 offers per entity, useful in tests and benches.
    pub fn quick(name: &str, entities: usize) -> Self {
        Self {
            name: name.to_string(),
            entities,
            min_offers: 2,
            max_offers: 6,
            seed: 7,
        }
    }
}

/// A flat pile of offer records with transitive-closure entity labels.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Catalog name.
    pub name: String,
    /// The offer records, in shuffled order (clusters are not contiguous).
    pub records: Vec<Record>,
    /// Dense cluster label per record, from [`cluster_from_matches`].
    pub cluster_of: Vec<usize>,
    /// Number of distinct clusters (single-offer entities are singletons).
    pub num_clusters: usize,
}

impl Catalog {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the catalog has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Every true matching pair `(i, j)` with `i < j`: all unordered pairs
    /// of records sharing a cluster. This is the denominator for blocking
    /// recall.
    pub fn true_pairs(&self) -> Vec<(usize, usize)> {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.num_clusters];
        for (i, &c) in self.cluster_of.iter().enumerate() {
            members[c].push(i);
        }
        let mut pairs = Vec::with_capacity(self.num_true_pairs());
        for group in &members {
            for a in 0..group.len() {
                for b in a + 1..group.len() {
                    pairs.push((group[a], group[b]));
                }
            }
        }
        pairs
    }

    /// `Σ C(k, 2)` over cluster sizes `k` — the count [`Self::true_pairs`]
    /// returns, without materializing it.
    pub fn num_true_pairs(&self) -> usize {
        let mut sizes = vec![0usize; self.num_clusters];
        for &c in &self.cluster_of {
            sizes[c] += 1;
        }
        sizes.iter().map(|&k| k * (k - 1) / 2).sum()
    }
}

/// Renders a catalog from a world and a spec.
///
/// Each entity gets `min_offers..=max_offers` offers, alternating the two
/// sources' renderers (offer 0 from `render_left`, offer 1 from
/// `render_right`, ...). Labels come from the transitive closure of the
/// chain edges linking consecutive offers of one entity, so every entity's
/// offers collapse into exactly one cluster. Record order is shuffled so
/// cluster membership carries no positional signal.
///
/// # Panics
///
/// Panics if `entities == 0`, `min_offers == 0`, or
/// `max_offers < min_offers`.
pub fn generate_catalog<W: EntityWorld>(world: &W, spec: &CatalogSpec) -> Catalog {
    assert!(spec.entities > 0, "need at least one entity");
    assert!(spec.min_offers >= 1, "need at least one offer per entity");
    assert!(
        spec.max_offers >= spec.min_offers,
        "max_offers {} < min_offers {}",
        spec.max_offers,
        spec.min_offers
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);

    let mut records = Vec::new();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for e in 0..spec.entities {
        let entity = world.make_entity(e, &mut rng);
        let offers = rng.gen_range(spec.min_offers..=spec.max_offers);
        let base = records.len();
        for k in 0..offers {
            let rec = if k % 2 == 0 {
                world.render_left(&entity, &mut rng)
            } else {
                world.render_right(&entity, &mut rng)
            };
            records.push(rec);
            if k > 0 {
                edges.push((base + k - 1, base + k));
            }
        }
    }

    // Shuffle, remapping the match edges through the same permutation.
    let n = records.len();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    // `perm[new] = old`; invert to map old positions to new ones.
    let mut new_of = vec![0usize; n];
    for (new, &old) in perm.iter().enumerate() {
        new_of[old] = new;
    }
    let mut shuffled: Vec<Option<Record>> = records.into_iter().map(Some).collect();
    let records: Vec<Record> =
        perm.iter().map(|&old| shuffled[old].take().expect("permutation visits each index once")).collect();
    let edges: Vec<(usize, usize)> =
        edges.into_iter().map(|(a, b)| (new_of[a], new_of[b])).collect();

    let (cluster_of, num_clusters) = cluster_from_matches(n, &edges);
    Catalog {
        name: spec.name.clone(),
        records,
        cluster_of,
        num_clusters,
    }
}

/// A WDC-computers product catalog — the default corpus for the blocking
/// bench and tests.
pub fn product_catalog(spec: &CatalogSpec) -> Catalog {
    let world = ProductWorld::new(COMPUTERS, OfferSchema::Wdc);
    generate_catalog(&world, spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_sizes_and_labels_are_consistent() {
        let spec = CatalogSpec::quick("test", 50);
        let cat = product_catalog(&spec);
        assert!(cat.len() >= 50 * spec.min_offers);
        assert!(cat.len() <= 50 * spec.max_offers);
        assert_eq!(cat.cluster_of.len(), cat.len());
        // Chain edges collapse each entity's offers into one cluster.
        assert_eq!(cat.num_clusters, 50);
        assert!(cat.cluster_of.iter().all(|&c| c < cat.num_clusters));
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let spec = CatalogSpec::quick("det", 20);
        let a = product_catalog(&spec);
        let b = product_catalog(&spec);
        assert_eq!(a.records, b.records);
        assert_eq!(a.cluster_of, b.cluster_of);
        let c = product_catalog(&CatalogSpec { seed: 99, ..spec });
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn true_pairs_are_canonical_and_count_matches() {
        let cat = product_catalog(&CatalogSpec::quick("pairs", 30));
        let pairs = cat.true_pairs();
        assert_eq!(pairs.len(), cat.num_true_pairs());
        for &(i, j) in &pairs {
            assert!(i < j, "pair ({i}, {j}) not canonical");
            assert_eq!(cat.cluster_of[i], cat.cluster_of[j]);
        }
        // Every cross-cluster pair is absent by construction: spot-check the
        // complement count. C(n,2) pairs total, true pairs within clusters.
        let n = cat.len();
        assert!(pairs.len() < n * (n - 1) / 2);
    }

    #[test]
    fn single_offer_entities_become_singletons() {
        let world = ProductWorld::new(COMPUTERS, OfferSchema::Wdc);
        let spec = CatalogSpec {
            name: "singles".into(),
            entities: 10,
            min_offers: 1,
            max_offers: 1,
            seed: 3,
        };
        let cat = generate_catalog(&world, &spec);
        assert_eq!(cat.len(), 10);
        assert_eq!(cat.num_clusters, 10);
        assert!(cat.true_pairs().is_empty());
    }

    #[test]
    fn matching_offers_share_surface_tokens() {
        // Blocking relies on co-cluster offers sharing tokens (brand, model
        // code). Verify the generator preserves that signal.
        let cat = product_catalog(&CatalogSpec::quick("overlap", 40));
        let token_sets: Vec<std::collections::HashSet<String>> = cat
            .records
            .iter()
            .map(|r| r.text().to_lowercase().split_whitespace().map(str::to_string).collect())
            .collect();
        let mut shared = 0usize;
        let pairs = cat.true_pairs();
        for &(i, j) in &pairs {
            if token_sets[i].intersection(&token_sets[j]).count() >= 2 {
                shared += 1;
            }
        }
        assert!(
            shared as f64 >= 0.95 * pairs.len() as f64,
            "only {shared}/{} true pairs share ≥2 tokens",
            pairs.len()
        );
    }
}
