//! The three Magellan analogs: baby products, bikes, and books.
//!
//! Each mirrors its original's schema and auxiliary entity-ID target
//! (paper §4.1.3): baby products predict the *category*, bikes the *brand*,
//! and books the *publisher*. A relabeling helper converts the generator's
//! entity-index classes into those attribute classes.

use rand::rngs::StdRng;
use rand::Rng;

use crate::perturb::{perturb_text, PerturbConfig};
use crate::record::{Dataset, Record};
use crate::textgen::{person_name, pick, zipf_index};
use crate::world::EntityWorld;

// ----- baby products ---------------------------------------------------------

const BABY_BRANDS: &[&str] = &[
    "graco", "chicco", "britax", "evenflo", "fisher price", "skip hop", "munchkin", "medela",
    "avent", "summer infant", "babybjorn", "uppababy",
];

const BABY_CATEGORIES: &[&str] = &[
    "stroller", "car seat", "crib", "high chair", "baby monitor", "bottle set", "play yard",
    "diaper bag", "swing", "bouncer", "carrier", "bath tub",
];

const BABY_COLORS: &[&str] = &[
    "pink", "blue", "grey", "mint", "lavender", "cream", "navy", "sage",
];

/// A canonical baby-product entity.
#[derive(Debug, Clone)]
pub struct BabyProduct {
    /// Brand name.
    pub brand: String,
    /// Category index into `BABY_CATEGORIES` (the entity-ID target).
    pub category: usize,
    /// Model name.
    pub model: String,
    /// Color.
    pub color: String,
    /// Retailer SKU.
    pub sku: String,
}

/// The baby-products world (Babies 'R' Us vs Buy Buy Baby).
#[derive(Default)]
pub struct BabyWorld;

impl BabyWorld {
    /// Number of category classes.
    pub fn classes() -> usize {
        BABY_CATEGORIES.len()
    }
}

impl EntityWorld for BabyWorld {
    type Entity = BabyProduct;

    fn make_entity(&self, _idx: usize, rng: &mut StdRng) -> BabyProduct {
        BabyProduct {
            brand: pick(BABY_BRANDS, rng).to_string(),
            category: zipf_index(BABY_CATEGORIES.len(), 0.8, rng),
            model: crate::textgen::model_code(rng),
            color: pick(BABY_COLORS, rng).to_string(),
            sku: format!("{}", rng.gen_range(100_000..999_999)),
        }
    }

    fn render_left(&self, p: &BabyProduct, rng: &mut StdRng) -> Record {
        let cfg = PerturbConfig::default();
        let title = format!(
            "{} {} {} {}",
            p.brand, p.model, BABY_CATEGORIES[p.category], p.color
        );
        Record::new(vec![
            ("title", perturb_text(&title, &cfg, rng)),
            ("SKU", p.sku.clone()),
            ("colors", p.color.clone()),
            ("category", BABY_CATEGORIES[p.category].to_string()),
        ])
    }

    fn render_right(&self, p: &BabyProduct, rng: &mut StdRng) -> Record {
        let cfg = PerturbConfig::default();
        let title = format!(
            "{} {} {} for babies {}",
            p.brand, BABY_CATEGORIES[p.category], p.model, p.color
        );
        Record::new(vec![
            ("title", perturb_text(&title, &cfg, rng)),
            ("ext_id", format!("{}", rng.gen_range(10_000..99_999))),
            ("colors", p.color.clone()),
            ("category", BABY_CATEGORIES[p.category].to_string()),
        ])
    }

    fn family_key(&self, p: &BabyProduct) -> String {
        format!("{} {}", p.brand, BABY_CATEGORIES[p.category])
    }
}

// ----- bikes --------------------------------------------------------------------

const BIKE_BRANDS: &[&str] = &[
    "hero", "bajaj", "honda", "yamaha", "tvs", "royal enfield", "suzuki", "ktm", "kawasaki",
    "mahindra", "harley davidson",
];

const BIKE_MODELS: &[&str] = &[
    "splendor", "pulsar", "shine", "fz", "apache", "classic", "gixxer", "duke", "ninja",
    "centuro", "street", "passion", "unicorn", "karizma",
];

const BIKE_COLORS: &[&str] = &["black", "red", "blue", "silver", "white", "grey", "green"];

/// A canonical bike-resale entity.
#[derive(Debug, Clone)]
pub struct Bike {
    /// Brand index into `BIKE_BRANDS` (the entity-ID target).
    pub brand: usize,
    /// Model line.
    pub model: String,
    /// Engine displacement (cc).
    pub cc: u32,
    /// Color.
    pub color: String,
    /// Asking price (rupees).
    pub price: u32,
    /// Odometer reading (km).
    pub km: u32,
}

/// The bike-resale world (Bikedekho vs Bikewale).
#[derive(Default)]
pub struct BikeWorld;

impl BikeWorld {
    /// Number of brand classes.
    pub fn classes() -> usize {
        BIKE_BRANDS.len()
    }
}

impl EntityWorld for BikeWorld {
    type Entity = Bike;

    fn make_entity(&self, _idx: usize, rng: &mut StdRng) -> Bike {
        Bike {
            brand: zipf_index(BIKE_BRANDS.len(), 1.1, rng),
            model: pick(BIKE_MODELS, rng).to_string(),
            cc: [100, 125, 150, 200, 220, 350, 500][rng.gen_range(0..7)],
            color: pick(BIKE_COLORS, rng).to_string(),
            price: rng.gen_range(15..220) * 1000,
            km: rng.gen_range(1..90) * 1000,
        }
    }

    fn render_left(&self, b: &Bike, rng: &mut StdRng) -> Record {
        let cfg = PerturbConfig {
            ops: 1.0,
            noise_prob: 0.3,
        };
        Record::new(vec![
            (
                "bike_name",
                perturb_text(
                    &format!("{} {} {}cc", BIKE_BRANDS[b.brand], b.model, b.cc),
                    &cfg,
                    rng,
                ),
            ),
            ("color", b.color.clone()),
            ("price", format!("{}", b.price)),
            ("km_driven", format!("{}", b.km)),
        ])
    }

    fn render_right(&self, b: &Bike, rng: &mut StdRng) -> Record {
        let cfg = PerturbConfig {
            ops: 1.0,
            noise_prob: 0.3,
        };
        // The second listing rounds the odometer and may restate the price.
        let km = (b.km / 5000) * 5000;
        let price = b.price + rng.gen_range(0..3) * 500;
        Record::new(vec![
            (
                "bike_name",
                perturb_text(
                    &format!("{} {} {} model", BIKE_BRANDS[b.brand], b.model, b.cc),
                    &cfg,
                    rng,
                ),
            ),
            ("color", b.color.clone()),
            ("price", format!("{}", price)),
            ("km_driven", format!("{}", km.max(1000))),
        ])
    }

    fn family_key(&self, b: &Bike) -> String {
        BIKE_BRANDS[b.brand].to_string()
    }
}

// ----- books --------------------------------------------------------------------

const PUBLISHERS: &[&str] = &[
    "penguin", "random house", "harper collins", "simon schuster", "macmillan", "hachette",
    "oxford press", "dover", "vintage", "scholastic", "tor", "orbit", "gale", "norton",
    "bloomsbury", "wiley",
];

const BOOK_SUBJECTS: &[&str] = &[
    "autobiography", "history", "cooking", "algorithms", "gardening", "philosophy", "poetry",
    "economics", "astronomy", "painting", "travel", "chess", "architecture", "mythology",
];

const BOOK_FORMATS: &[&str] = &["paperback", "hardcover", "audiobook", "ebook"];

/// A canonical book entity.
#[derive(Debug, Clone)]
pub struct Book {
    /// Subject keyword.
    pub subject: String,
    /// Author name.
    pub author: (String, String),
    /// Publisher index into `PUBLISHERS` (the entity-ID target).
    pub publisher: usize,
    /// Page count.
    pub pages: u32,
    /// Format.
    pub format: String,
}

/// The books world (Goodreads vs Barnes & Noble).
#[derive(Default)]
pub struct BookWorld;

impl BookWorld {
    /// Number of publisher classes.
    pub fn classes() -> usize {
        PUBLISHERS.len()
    }
}

impl EntityWorld for BookWorld {
    type Entity = Book;

    fn make_entity(&self, _idx: usize, rng: &mut StdRng) -> Book {
        Book {
            subject: pick(BOOK_SUBJECTS, rng).to_string(),
            author: person_name(rng),
            publisher: zipf_index(PUBLISHERS.len(), 1.2, rng),
            pages: rng.gen_range(90..900),
            format: pick(BOOK_FORMATS, rng).to_string(),
        }
    }

    fn render_left(&self, b: &Book, rng: &mut StdRng) -> Record {
        let cfg = PerturbConfig {
            ops: 1.0,
            noise_prob: 0.2,
        };
        let title = format!(
            "the {} of {} {}",
            b.subject, b.author.0, b.author.1
        );
        Record::new(vec![
            ("title", perturb_text(&title, &cfg, rng)),
            ("page_count", b.pages.to_string()),
            ("publisher", PUBLISHERS[b.publisher].to_string()),
            ("format", b.format.clone()),
        ])
    }

    fn render_right(&self, b: &Book, rng: &mut StdRng) -> Record {
        let cfg = PerturbConfig {
            ops: 1.0,
            noise_prob: 0.2,
        };
        // The other catalog flips the title pattern and re-counts pages.
        let title = format!(
            "{} {} a {}",
            b.author.0, b.author.1, b.subject
        );
        let pages = b.pages + rng.gen_range(0..40);
        Record::new(vec![
            ("title", perturb_text(&title, &cfg, rng)),
            ("page_count", pages.to_string()),
            ("publisher", PUBLISHERS[b.publisher].to_string()),
            ("format", b.format.clone()),
        ])
    }

    fn family_key(&self, b: &Book) -> String {
        b.subject.clone()
    }
}

// ----- attribute-class relabeling ---------------------------------------------

/// Replaces entity-index classes with an attribute-derived class per entity
/// (category / brand / publisher), matching the paper's Magellan setup.
///
/// `class_of` maps an entity index to its attribute class; `num_classes` is
/// the attribute-class count.
pub fn relabel_by_attribute(
    ds: &mut Dataset,
    class_of: &[usize],
    num_classes: usize,
) {
    for p in ds
        .train
        .iter_mut()
        .chain(ds.valid.iter_mut())
        .chain(ds.test.iter_mut())
    {
        p.left_class = class_of[p.left_class];
        p.right_class = class_of[p.right_class];
    }
    ds.num_classes = num_classes;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{generate, WorldSpec};
    use rand::SeedableRng;

    #[test]
    fn baby_schemas_match_magellan() {
        let w = BabyWorld;
        let mut rng = StdRng::seed_from_u64(0);
        let e = w.make_entity(0, &mut rng);
        let l = w.render_left(&e, &mut rng);
        let r = w.render_right(&e, &mut rng);
        assert!(l.get("SKU").is_some());
        assert!(r.get("ext_id").is_some());
        assert_eq!(l.get("category"), r.get("category"));
    }

    #[test]
    fn bike_right_side_rounds_odometer() {
        let w = BikeWorld;
        let mut rng = StdRng::seed_from_u64(1);
        let e = w.make_entity(0, &mut rng);
        let r = w.render_right(&e, &mut rng);
        let km: u32 = r.get("km_driven").unwrap().parse().unwrap();
        assert_eq!(km % 1000, 0);
    }

    #[test]
    fn book_sides_share_publisher() {
        let w = BookWorld;
        let mut rng = StdRng::seed_from_u64(2);
        let e = w.make_entity(0, &mut rng);
        let l = w.render_left(&e, &mut rng);
        let r = w.render_right(&e, &mut rng);
        assert_eq!(l.get("publisher"), r.get("publisher"));
    }

    #[test]
    fn relabel_by_attribute_shrinks_class_space() {
        let w = BikeWorld;
        let spec = WorldSpec::quick("bikes", 30, 20, 40);
        let mut ds = generate(&w, &spec);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let entities: Vec<Bike> = (0..spec.classes).map(|i| w.make_entity(i, &mut rng)).collect();
        let class_of: Vec<usize> = entities.iter().map(|b| b.brand).collect();
        relabel_by_attribute(&mut ds, &class_of, BikeWorld::classes());
        ds.validate().unwrap();
        assert_eq!(ds.num_classes, BIKE_BRANDS.len());
    }

    #[test]
    fn every_magellan_world_generates_valid_data() {
        generate(&BabyWorld, &WorldSpec::quick("baby", 12, 10, 25)).validate().unwrap();
        generate(&BikeWorld, &WorldSpec::quick("bikes", 12, 10, 25)).validate().unwrap();
        generate(&BookWorld, &WorldSpec::quick("books", 12, 10, 25)).validate().unwrap();
    }
}
