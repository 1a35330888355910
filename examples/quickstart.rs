//! Quickstart: train EMBA on a synthetic WDC-computers dataset and match a
//! pair of product offers.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use emba::core::{
    match_metrics, train_single, CatalogScorer, ExperimentConfig, ModelKind, PretrainCache,
    TrainConfig, Trainer,
};
use emba::datagen::{build, DatasetId, Record, Scale, WdcCategory, WdcSize};
use emba::tensor::backend::{self, BackendKind};

fn main() {
    // 1. A benchmark dataset: the synthetic analog of WDC computers (small),
    //    scaled for a quick run. Seeded — rerunning reproduces everything.
    let dataset = build(
        DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
        Scale(0.2),
        42,
    );
    let (pos, neg) = dataset.train_balance();
    println!(
        "dataset {}: {} train pairs ({pos} matches / {neg} non-matches), {} test pairs, {} entity classes",
        dataset.name,
        dataset.train.len(),
        dataset.test.len(),
        dataset.num_classes
    );

    // 2. Train EMBA: WordPiece fitting, then dual-objective fine-tuning of
    //    a miniature BERT (Eq. 3 of the paper). `mlm_epochs > 0` would
    //    pre-train the backbone with MLM first; at this scale it does not
    //    pay for its time (results/PR21_one_trainer.md).
    let cfg = ExperimentConfig {
        vocab_size: 1024,
        max_len: 64,
        train: TrainConfig {
            epochs: 10,
            batch_size: 8,
            lr: 1e-3,
            patience: 5,
            ..TrainConfig::default()
        },
        mlm_epochs: 0,
        runs: 1,
        ..ExperimentConfig::default()
    };
    println!("\ntraining EMBA (a miniature BERT, from scratch; about a minute)...");
    let cache = &mut PretrainCache::new();
    let (trained, report) =
        train_single(ModelKind::Emba, &dataset, &cfg, 0, cache, &mut Trainer::quiet())
            .expect("a trainer without a store performs no I/O");
    println!(
        "test F1 = {:.1}  (precision {:.1}, recall {:.1});  {:.0} pairs/s train, {:.0} pairs/s inference",
        100.0 * report.test.matching.f1,
        100.0 * report.test.matching.precision,
        100.0 * report.test.matching.recall,
        report.train_pairs_per_sec,
        report.infer_pairs_per_sec,
    );
    if let Some(ids) = report.test.ids {
        println!(
            "auxiliary entity-ID tasks: acc1 {:.1}, acc2 {:.1}, F1 {:.1}",
            100.0 * ids.acc1,
            100.0 * ids.acc2,
            100.0 * ids.f1
        );
    }

    // 3. Match a hand-written pair — the paper's CompactFlash case study:
    //    same specs, different brands, so this must be a NON-match.
    let sandisk = Record::new(vec![(
        "title",
        "sandisk sdcfh-004g-a11 dfm 4gb 50p cf compactflash card ultra 30mb/s 100x retail",
    )]);
    let transcend = Record::new(vec![(
        "title",
        "transcend ts4gcf300 bri 4gb 50p cf compactflash card 300x retail",
    )]);
    let non_match = trained.predict(&sandisk, &transcend).prob;
    println!(
        "\ncase study (sandisk vs transcend CF card): match probability {non_match:.3} -> {}",
        if non_match >= 0.5 { "MATCH" } else { "NON-MATCH" }
    );

    // 4. And a true match: two offers of the same drive.
    let offer_a = Record::new(vec![(
        "title",
        "buy online samsung 850 evo 1tb ssd in india samsung 850 evo 1tb ssd mz-75e1t0bw",
    )]);
    let offer_b = Record::new(vec![(
        "title",
        "samsung 1tb 850 evo mz-75e1t0bw scan uk 1tb samsung 850 evo ssd 520mb/s",
    )]);
    let is_match = trained.predict(&offer_a, &offer_b).prob;
    println!(
        "same samsung drive from two shops: match probability {is_match:.3} -> {}",
        if is_match >= 0.5 { "MATCH" } else { "NON-MATCH" }
    );

    // 5. The same test split with the linear layers in int8: post-training
    //    quantization, nothing retrained.
    let pairs: Vec<(&Record, &Record)> = dataset.test.iter().map(|ex| (&ex.left, &ex.right)).collect();
    let gold: Vec<bool> = dataset.test.iter().map(|ex| ex.is_match).collect();
    let probs_under = |kind: BackendKind| -> Vec<f64> {
        let _backend = backend::install(kind);
        trained.predict_batch(&pairs).iter().map(|p| p.prob).collect()
    };
    let f1_of = |probs: &[f64]| {
        let preds: Vec<bool> = probs.iter().map(|&p| p > 0.5).collect();
        match_metrics(&preds, &gold).f1
    };
    let (f32_probs, int8_probs) = (probs_under(BackendKind::F32), probs_under(BackendKind::Int8));
    let (f32_f1, int8_f1) = (f1_of(&f32_probs), f1_of(&int8_probs));
    let max_dp = f32_probs.iter().zip(&int8_probs).fold(0f64, |m, (a, b)| m.max((a - b).abs()));
    println!(
        "int8 ({}) against f32 on the test split: F1 {:.1} vs {:.1}, max |dp| {max_dp:.2e}",
        BackendKind::Int8.label(),
        100.0 * int8_f1,
        100.0 * f32_f1,
    );

    // 6. What a server would answer. `match_catalog`, `CatalogScorer` and
    //    `ServeEngine` encode each record on its own (`[CLS] D [SEP]`, so one
    //    encoding serves every pair the record is in) and pair the encodings
    //    in the AOA head; training and `predict` above encode the pair
    //    jointly (`[CLS] D1 [SEP] D2 [SEP]`, the paper's input). A BERT
    //    backbone attends across the pair, so the two disagree — measured
    //    here, not fixed (EXPERIMENTS.md, "The split path on a trained model").
    let mut split = CatalogScorer::new(&trained, 2 * pairs.len());
    let split_probs: Vec<f64> = pairs.iter().map(|(l, r)| f64::from(split.score(l, r))).collect();
    let split_metrics = {
        let preds: Vec<bool> = split_probs.iter().map(|&p| p > 0.5).collect();
        match_metrics(&preds, &gold)
    };
    let moved: Vec<f64> = f32_probs.iter().zip(&split_probs).map(|(a, b)| (a - b).abs()).collect();
    let flips = f32_probs.iter().zip(&split_probs).filter(|(a, b)| (**a > 0.5) != (**b > 0.5)).count();
    println!(
        "split path (what match_catalog / ServeEngine score) on the same {} pairs: F1 {:.1} \
         (precision {:.1}, recall {:.1}) vs {:.1} joint; mean |dp| {:.3}, max {:.2}, {flips} decisions flipped",
        split_probs.len(),
        100.0 * split_metrics.f1,
        100.0 * split_metrics.precision,
        100.0 * split_metrics.recall,
        100.0 * f32_f1,
        moved.iter().sum::<f64>() / moved.len() as f64,
        moved.iter().fold(0f64, |m, &d| m.max(d)),
    );

    // The front door doubles as a gate (scripts/tier1.sh runs it): a model
    // that learned nothing scores F1 = 0 and rates both pairs at the base rate,
    // and int8 on a trained model must track f32. The |dp| bound is this
    // model's: it reads 2.96e-2 on its least certain pair, 1.5e-3 on average
    // (DESIGN.md §6k, "The |Δp| bound is per model").
    assert!(report.test.matching.f1 > 0.0, "EMBA learned nothing: test F1 = 0");
    assert!(
        is_match > non_match,
        "the samsung match ({is_match:.3}) must outscore the sandisk/transcend non-match ({non_match:.3})"
    );
    assert!(f32_f1 > 0.0, "f32 test F1 = 0: the int8 comparison would be vacuous");
    assert!(max_dp <= 5e-2, "int8 moved a match probability by {max_dp:.2e} (> 5e-2)");
    assert!(
        (int8_f1 - f32_f1).abs() <= 0.005,
        "int8 moved test F1 from {f32_f1:.4} to {int8_f1:.4} (> 0.005)"
    );
    // The split path's numbers are reported, not gated: only that they are
    // numbers, over the pairs the joint path scored.
    assert_eq!(split_probs.len(), f32_probs.len(), "the two paths scored different pair sets");
    assert!(
        split_probs.iter().all(|p| p.is_finite()) && split_metrics.f1.is_finite(),
        "the split path produced a non-finite probability or F1"
    );
}
