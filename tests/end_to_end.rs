//! End-to-end integration tests spanning all workspace crates: dataset
//! generation → tokenization → model training → evaluation → explanation.

use emba::core::{
    evaluate, run_experiment, train_single, ExperimentConfig, ModelKind, PretrainCache,
    TrainConfig, TrainReport, TrainedMatcher, Trainer,
};
use emba::datagen::{build, dataset_stats, Dataset, DatasetId, Scale, WdcCategory, WdcSize};
use emba::explain::{analyze, explain, LimeConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        vocab_size: 512,
        max_len: 48,
        train: TrainConfig {
            epochs: 3,
            batch_size: 4,
            lr: 1e-3,
            patience: 3,
            ..TrainConfig::default()
        },
        mlm_epochs: 1,
        runs: 1,
        ..ExperimentConfig::default()
    }
}

/// One quiet EMBA (SB) run with a fresh pre-training cache.
fn train_emba_sb(ds: &Dataset, cfg: &ExperimentConfig, seed: u64) -> (TrainedMatcher, TrainReport) {
    let cache = &mut PretrainCache::new();
    train_single(ModelKind::EmbaSb, ds, cfg, seed, cache, &mut Trainer::quiet()).unwrap()
}

#[test]
fn emba_trains_on_every_dataset_family() {
    // One representative of each generator family.
    for id in [
        DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
        DatasetId::AbtBuy,
        DatasetId::DblpScholar,
        DatasetId::Bikes,
    ] {
        let ds = build(id, Scale::TEST, 21);
        let (trained, report) = train_emba_sb(&ds, &quick_cfg(), 0);
        assert!(
            report.test.matching.f1.is_finite(),
            "{}: non-finite F1",
            ds.name
        );
        assert!(report.test.ids.is_some(), "{}: missing aux metrics", ds.name);
        // The trained model predicts probabilities on raw records.
        let p = trained.predict(&ds.test[0].left, &ds.test[0].right);
        assert!((0.0..=1.0).contains(&p.prob), "{}: prob {}", ds.name, p.prob);
    }
}

#[test]
fn multitask_and_single_task_models_coexist_on_one_dataset() {
    let ds = build(
        DatasetId::Wdc(WdcCategory::Shoes, WdcSize::Small),
        Scale::TEST,
        5,
    );
    let mut cache = PretrainCache::new();
    for kind in [ModelKind::EmbaSb, ModelKind::Ditto, ModelKind::DeepMatcher] {
        let r = run_experiment(kind, &ds, &quick_cfg(), &mut cache);
        assert_eq!(r.id_acc1.is_some(), kind.is_multitask(), "{}", kind.name());
        assert!(r.f1_mean >= 0.0 && r.f1_mean <= 1.0);
    }
    // DITTO and EMBA-SB use different backbones, so only one checkpoint per
    // (backbone, dataset) pair lands in the cache.
    assert_eq!(cache.len(), 2);
}

#[test]
fn pretrain_cache_makes_runs_reproducible() {
    let ds = build(
        DatasetId::Wdc(WdcCategory::Cameras, WdcSize::Small),
        Scale::TEST,
        9,
    );
    let cfg = quick_cfg();
    let (_, a) = train_emba_sb(&ds, &cfg, 7);
    let (_, b) = train_emba_sb(&ds, &cfg, 7);
    assert_eq!(a.test.matching.f1, b.test.matching.f1);
    assert_eq!(a.valid_f1, b.valid_f1);
}

#[test]
fn evaluation_is_deterministic_after_training() {
    let ds = build(
        DatasetId::Wdc(WdcCategory::Watches, WdcSize::Small),
        Scale::TEST,
        3,
    );
    let (trained, _) = train_emba_sb(&ds, &quick_cfg(), 1);
    let pipe = &trained.pipeline;
    let test = pipe.encode_split(&ds.test);
    let mut r1 = StdRng::seed_from_u64(0);
    let mut r2 = StdRng::seed_from_u64(99); // eval ignores rng in eval mode
    let a = evaluate(trained.model.as_ref(), &test, &mut r1);
    let b = evaluate(trained.model.as_ref(), &test, &mut r2);
    assert_eq!(a.matching.f1, b.matching.f1);
}

#[test]
fn explanations_run_against_trained_models() {
    let ds = build(
        DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small),
        Scale::TEST,
        13,
    );
    let (trained, _) = train_emba_sb(&ds, &quick_cfg(), 2);
    let pair = &ds.test[0];

    let lime = explain(
        &trained,
        &pair.left,
        &pair.right,
        &LimeConfig {
            samples: 30,
            ..LimeConfig::default()
        },
    );
    assert!(!lime.words.is_empty());
    assert!(lime.words.iter().all(|w| w.weight.is_finite()));

    let analysis = analyze(&trained, &pair.left, &pair.right);
    assert!(analysis.attention.is_some());
    assert!(analysis.gamma.is_some());
}

#[test]
fn dataset_statistics_reflect_the_generated_data() {
    let ds = build(
        DatasetId::Wdc(WdcCategory::Computers, WdcSize::Medium),
        Scale::TEST,
        2,
    );
    let stats = dataset_stats(&ds);
    let (pos, neg) = ds.train_balance();
    assert_eq!(stats.pos_pairs, pos);
    assert_eq!(stats.neg_pairs, neg);
    assert_eq!(stats.test_size, ds.test.len());
    assert!(stats.lrid >= 0.0);
}

#[test]
fn fasttext_variant_skips_mlm_but_trains() {
    let ds = build(
        DatasetId::Wdc(WdcCategory::Shoes, WdcSize::Small),
        Scale::TEST,
        17,
    );
    let mut cfg = quick_cfg();
    cfg.mlm_epochs = 5; // would be expensive if not skipped for fastText
    let r = run_experiment(ModelKind::EmbaFt, &ds, &cfg, &mut PretrainCache::new());
    assert!(r.f1_mean.is_finite());
    assert!(r.train_pairs_per_sec > 0.0);
}
