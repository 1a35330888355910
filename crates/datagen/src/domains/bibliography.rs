//! The dblp-scholar analog: bibliographic records from two citation indexes.
//!
//! The left source ("dblp") is clean and complete; the right source
//! ("scholar") truncates titles, abbreviates author names to initials,
//! abbreviates venues, and sometimes drops the year — the classic noise
//! profile of that benchmark. The entity-ID classes are `(venue, year)`
//! combinations, exactly the auxiliary target the paper chose, and the
//! venue distribution is heavily Zipf-skewed to reproduce the dataset's
//! extreme LRID (4.5, the highest in Table 1).

use rand::rngs::StdRng;
use rand::Rng;

use crate::record::Record;
use crate::textgen::{person_name, zipf_index};
use crate::world::EntityWorld;

const VENUES: &[(&str, &str)] = &[
    ("sigmod conference on management of data", "sigmod"),
    ("vldb very large data bases", "vldb"),
    ("icde international conference on data engineering", "icde"),
    ("edbt extending database technology", "edbt"),
    ("kdd knowledge discovery and data mining", "kdd"),
    ("cikm information and knowledge management", "cikm"),
    ("www world wide web conference", "www"),
    ("acl computational linguistics", "acl"),
];

const TOPIC_WORDS: &[&str] = &[
    "entity", "matching", "resolution", "query", "optimization", "indexing", "distributed",
    "streaming", "learning", "neural", "graph", "schema", "integration", "deduplication",
    "approximate", "join", "transaction", "storage", "parallel", "adaptive", "scalable",
    "probabilistic", "crowdsourced", "semantic", "embedding", "transformer",
];

/// A canonical bibliographic entity.
#[derive(Debug, Clone)]
pub struct Paper {
    /// Full title words.
    pub title: Vec<String>,
    /// `(first, last)` author names.
    pub authors: Vec<(String, String)>,
    /// Index into `VENUES`.
    pub venue: usize,
    /// Publication year.
    pub year: u32,
}

/// Number of distinct `(venue, year)` classes the world can emit.
pub fn venue_year_classes() -> usize {
    VENUES.len() * YEARS
}

const YEARS: usize = 12;
const FIRST_YEAR: u32 = 1999;

/// The bibliographic world.
pub struct BibliographyWorld {
    /// Zipf exponent over venues (drives LRID).
    pub venue_skew: f64,
}

impl Default for BibliographyWorld {
    fn default() -> Self {
        Self { venue_skew: 1.6 }
    }
}

impl BibliographyWorld {
    /// The `(venue, year)` class of an entity — used as its entity-ID label
    /// instead of the entity index, matching the paper's auxiliary task.
    pub fn venue_year_class(paper: &Paper) -> usize {
        paper.venue * YEARS + (paper.year - FIRST_YEAR) as usize
    }
}

impl EntityWorld for BibliographyWorld {
    type Entity = Paper;

    fn make_entity(&self, _idx: usize, rng: &mut StdRng) -> Paper {
        let title_len = rng.gen_range(5..9);
        let title = (0..title_len)
            .map(|_| TOPIC_WORDS[rng.gen_range(0..TOPIC_WORDS.len())].to_string())
            .collect();
        let authors = (0..rng.gen_range(1..4)).map(|_| person_name(rng)).collect();
        Paper {
            title,
            authors,
            venue: zipf_index(VENUES.len(), self.venue_skew, rng),
            year: FIRST_YEAR + zipf_index(YEARS, 0.7, rng) as u32,
        }
    }

    fn render_left(&self, p: &Paper, rng: &mut StdRng) -> Record {
        // DBLP style: full everything; minor title reordering noise.
        let mut title = p.title.clone();
        if title.len() > 2 && rng.gen_bool(0.2) {
            let i = rng.gen_range(0..title.len() - 1);
            title.swap(i, i + 1);
        }
        let authors = p
            .authors
            .iter()
            .map(|(f, l)| format!("{f} {l}"))
            .collect::<Vec<_>>()
            .join(" , ");
        Record::new(vec![
            ("title", title.join(" ")),
            ("authors", authors),
            ("venue", VENUES[p.venue].0.to_string()),
            ("year", p.year.to_string()),
        ])
    }

    fn render_right(&self, p: &Paper, rng: &mut StdRng) -> Record {
        // Scholar style: truncated title, initials, abbreviated venue,
        // sometimes missing year.
        let keep = rng.gen_range((p.title.len() / 2).max(2)..=p.title.len());
        let title = p.title[..keep].join(" ");
        let authors = p
            .authors
            .iter()
            .map(|(f, l)| format!("{} {l}", &f[..1]))
            .collect::<Vec<_>>()
            .join(" , ");
        let year = if rng.gen_bool(0.8) {
            p.year.to_string()
        } else {
            "-".to_string()
        };
        Record::new(vec![
            ("title", title),
            ("authors", authors),
            ("venue", VENUES[p.venue].1.to_string()),
            ("year", year),
        ])
    }

    fn family_key(&self, p: &Paper) -> String {
        // Hard negatives: same venue (shared venue vocabulary in both
        // records) — the matcher must read titles/authors.
        VENUES[p.venue].1.to_string()
    }
}

/// Relabels a generated dataset's classes from entity indices to
/// `(venue, year)` combinations. Used by the dblp-scholar constructor.
pub fn relabel_venue_year(
    ds: &mut crate::record::Dataset,
    entities: &[Paper],
) {
    for p in ds
        .train
        .iter_mut()
        .chain(ds.valid.iter_mut())
        .chain(ds.test.iter_mut())
    {
        p.left_class = BibliographyWorld::venue_year_class(&entities[p.left_class]);
        p.right_class = BibliographyWorld::venue_year_class(&entities[p.right_class]);
    }
    ds.num_classes = venue_year_classes();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::dataset_stats;
    use crate::world::{generate, WorldSpec};
    use rand::SeedableRng;

    #[test]
    fn scholar_side_is_noisier_than_dblp_side() {
        let world = BibliographyWorld::default();
        let mut rng = StdRng::seed_from_u64(0);
        let p = world.make_entity(0, &mut rng);
        let left = world.render_left(&p, &mut rng);
        let right = world.render_right(&p, &mut rng);
        // Scholar title is a prefix-truncation, so never longer.
        assert!(right.get("title").unwrap().len() <= left.get("title").unwrap().len());
        // Scholar venue is the abbreviation.
        assert!(right.get("venue").unwrap().len() < left.get("venue").unwrap().len());
    }

    #[test]
    fn venue_year_class_is_injective_per_combo() {
        let a = Paper {
            title: vec![],
            authors: vec![],
            venue: 2,
            year: FIRST_YEAR + 3,
        };
        let b = Paper {
            title: vec![],
            authors: vec![],
            venue: 3,
            year: FIRST_YEAR + 3,
        };
        assert_ne!(
            BibliographyWorld::venue_year_class(&a),
            BibliographyWorld::venue_year_class(&b)
        );
        assert!(BibliographyWorld::venue_year_class(&a) < venue_year_classes());
    }

    #[test]
    fn venue_skew_produces_high_lrid() {
        let world = BibliographyWorld::default();
        let mut spec = WorldSpec::quick("dblp", 60, 80, 160);
        // Pair-sampling skew concentrates pairs on popular entities, whose
        // venue-year combos then dominate the class distribution.
        spec.class_skew = 1.4;
        let mut ds = generate(&world, &spec);
        // Rebuild the entity list deterministically to relabel.
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let entities: Vec<Paper> = (0..spec.classes)
            .map(|i| world.make_entity(i, &mut rng))
            .collect();
        relabel_venue_year(&mut ds, &entities);
        ds.validate().unwrap();
        let stats = dataset_stats(&ds);
        assert!(
            stats.lrid > 1.0,
            "venue-year classes should be strongly imbalanced, lrid = {}",
            stats.lrid
        );
    }
}
