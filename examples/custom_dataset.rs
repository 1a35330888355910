//! Bring your own data: define a custom entity domain, generate a labeled
//! dataset from it, compare EMBA against JointBERT, and inspect the
//! statistics the paper's Table 1 reports.
//!
//! ```sh
//! cargo run --release --example custom_dataset
//! ```

use emba::core::{run_experiment, ExperimentConfig, ModelKind, PretrainCache, TrainConfig};
use emba::datagen::{dataset_stats, generate, EntityWorld, PerturbConfig, Record, WorldSpec};
use emba::datagen::{perturb_text, textgen};
use rand::rngs::StdRng;
use rand::Rng;

/// A custom domain: pharmaceutical products listed by two pharmacy chains.
struct PharmacyWorld;

struct Drug {
    name: String,
    strength: String,
    form: String,
    count: u32,
    maker: String,
}

impl EntityWorld for PharmacyWorld {
    type Entity = Drug;

    fn make_entity(&self, _idx: usize, rng: &mut StdRng) -> Drug {
        const NAMES: &[&str] = &[
            "ibuprofen", "paracetamol", "amoxicillin", "loratadine", "omeprazole", "cetirizine",
            "metformin", "atorvastatin", "lisinopril", "sertraline",
        ];
        const MAKERS: &[&str] = &["pharmaco", "medigen", "healix", "curalabs", "vitacore"];
        const FORMS: &[&str] = &["tablets", "capsules", "syrup", "gel"];
        Drug {
            name: textgen::pick(NAMES, rng).to_string(),
            strength: format!("{}mg", [50, 100, 200, 250, 400, 500][rng.gen_range(0..6)]),
            form: textgen::pick(FORMS, rng).to_string(),
            count: [10, 20, 30, 60, 90][rng.gen_range(0..5)],
            maker: textgen::pick(MAKERS, rng).to_string(),
        }
    }

    fn render_left(&self, d: &Drug, rng: &mut StdRng) -> Record {
        let cfg = PerturbConfig::default();
        Record::new(vec![
            (
                "product",
                perturb_text(
                    &format!("{} {} {} pack of {}", d.name, d.strength, d.form, d.count),
                    &cfg,
                    rng,
                ),
            ),
            ("manufacturer", d.maker.clone()),
        ])
    }

    fn render_right(&self, d: &Drug, rng: &mut StdRng) -> Record {
        let cfg = PerturbConfig::default();
        // The second chain uses a different layout and sometimes omits the
        // manufacturer.
        Record::new(vec![(
            "description",
            perturb_text(
                &format!("{} {} x{} {} {}", d.maker, d.name, d.count, d.strength, d.form),
                &cfg,
                rng,
            ),
        )])
    }

    fn family_key(&self, d: &Drug) -> String {
        d.name.clone() // hard negatives: same drug, different strength/pack
    }
}

fn main() {
    let spec = WorldSpec {
        name: "pharmacy".to_string(),
        classes: 40,
        train_pos: 60,
        train_neg: 140,
        valid_pos: 10,
        valid_neg: 20,
        test_pos: 25,
        test_neg: 60,
        class_skew: 0.5,
        hard_negative_frac: 0.7,
        seed: 123,
    };
    let dataset = generate(&PharmacyWorld, &spec);
    let stats = dataset_stats(&dataset);
    println!(
        "dataset {}: {} pos / {} neg training pairs, {} classes, LRID {:.3}, {} test pairs",
        stats.name, stats.pos_pairs, stats.neg_pairs, stats.classes, stats.lrid, stats.test_size
    );

    let cfg = ExperimentConfig {
        vocab_size: 768,
        max_len: 48,
        train: TrainConfig {
            epochs: 10,
            batch_size: 8,
            lr: 1e-3,
            patience: 5,
            ..TrainConfig::default()
        },
        mlm_epochs: 6,
        runs: 2,
        ..ExperimentConfig::default()
    };
    for kind in [ModelKind::JointBert, ModelKind::Emba] {
        let result = run_experiment(kind, &dataset, &cfg, &mut PretrainCache::new());
        println!(
            "{:10} EM F1 {:.1} ± {:.1}   entity-ID acc1/acc2/F1: {}",
            result.model,
            100.0 * result.f1_mean,
            100.0 * result.f1_std,
            match (result.id_acc1, result.id_acc2, result.id_f1) {
                (Some(a), Some(b), Some(f)) =>
                    format!("{:.1} / {:.1} / {:.1}", 100.0 * a, 100.0 * b, 100.0 * f),
                _ => "-".to_string(),
            }
        );
    }
}
