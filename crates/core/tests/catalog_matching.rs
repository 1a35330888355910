//! End-to-end properties of the catalog-matching pipeline: the cached
//! encode-once scoring path must agree with the pre-paired `predict` path,
//! scoring through [`CatalogScorer`] must be symmetric and cache-state
//! independent, and [`match_catalog`] must hit the blocking-recall floor
//! with the expected cache behaviour on catalogs with known clusters.
//!
//! Equivalence against `predict` runs on the fastText backbone
//! (`ModelKind::EmbaFt`): its per-token embeddings ignore segment ids and
//! positions, so standalone record encodings factorize *exactly* out of
//! the joint `[CLS] D1 [SEP] D2 [SEP]` pass and the two paths are directly
//! comparable. BERT backbones attend across the pair by design, so for
//! them the tests pin the split path's internal consistency (cold vs warm
//! cache bit-identity, batched vs single-pair bit-identity) instead.

use emba_core::blocking::{blocking_recall, BlockingConfig, BlockingIndex};
use emba_core::{
    match_catalog, record_hash, CatalogMatchConfig, CatalogScorer, Matcher, ModelKind, PairScorer,
    PipelineConfig, TextPipeline, TrainedMatcher,
};
use emba_datagen::{product_catalog, CatalogSpec, Record};
use emba_nn::{BertConfig, GraphStamp};
use emba_tensor::{BackendKind, Graph, Tensor};
use emba_tokenizer::{TrainConfig, WordPieceTokenizer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An untrained (randomly initialized) matcher over the given corpus — the
/// split-vs-joint equivalences are architectural, so weights need not be
/// trained.
fn matcher_over(kind: ModelKind, records: &[Record], max_len: usize) -> TrainedMatcher {
    let corpus: Vec<String> = records.iter().map(|r| r.text()).collect();
    let refs: Vec<&str> = corpus.iter().map(String::as_str).collect();
    let tok = WordPieceTokenizer::train(
        &refs,
        &TrainConfig {
            vocab_size: 512,
            min_pair_freq: 2,
        },
    );
    let pipeline = TextPipeline::from_tokenizer(
        tok,
        PipelineConfig {
            vocab_size: 512,
            max_len,
            ..Default::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(5);
    let model = kind.build(&pipeline, 4, 0.5, 0.1, &mut rng);
    TrainedMatcher {
        pipeline,
        model,
        dropout: 0.1,
        pos_fraction: 0.5,
    }
}

/// A random product-ish record from one generator seed (the vendored
/// proptest has no tuple strategies; structure comes from a seeded RNG).
fn record_from_seed(seed: u64) -> Record {
    const WORDS: &[&str] = &[
        "samsung", "sandisk", "evo", "ultra", "ssd", "card", "128gb", "1tb", "sata", "nvme",
        "pro", "extreme", "drive", "internal", "memory", "retail",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..10);
    let title: Vec<&str> = (0..n).map(|_| WORDS[rng.gen_range(0..WORDS.len())]).collect();
    Record::new(vec![
        ("title", title.join(" ")),
        ("code", format!("mz{}", rng.gen_range(100..9999))),
    ])
}

/// Scores `(a, b)` through the split path in exactly `predict`'s
/// orientation (no hash canonicalization), one pair per call.
fn split_score(trained: &TrainedMatcher, a: &Record, b: &Record) -> f32 {
    let ids_a = trained.pipeline.encode_single_record(a);
    let ids_b = trained.pipeline.encode_single_record(b);
    let g = Graph::new();
    let encs = trained
        .model
        .encode_records_standalone(&g, GraphStamp::next(), &[&ids_a, &ids_b])
        .expect("AOA matcher has a split path");
    g.recycle();
    let g = Graph::new();
    let prob = trained
        .model
        .score_encoded_pairs(&g, GraphStamp::next(), &[(&encs[0], &encs[1])])
        .expect("AOA matcher has a split path")[0];
    g.recycle();
    prob
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite: the cached encode-once path reproduces the pre-paired
    /// `predict` path within 1e-5 on random records (fastText backbone,
    /// where the factorization is exact).
    #[test]
    fn split_path_matches_predict_on_random_records(
        seeds in proptest::collection::vec(any::<u64>(), 2..8),
    ) {
        let records: Vec<Record> = seeds.iter().copied().map(record_from_seed).collect();
        let trained = matcher_over(ModelKind::EmbaFt, &records, 256);
        for pair in records.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let joint = trained.predict(a, b).prob;
            let split = f64::from(split_score(&trained, a, b));
            prop_assert!(
                (joint - split).abs() <= 1e-5,
                "predict {joint} vs split {split} for {a:?} / {b:?}"
            );
        }
    }
}

/// Satellite: `score(a, b)` and `score(b, a)` agree bit-for-bit through the
/// cached path (the scorer canonicalizes the asymmetric AOA orientation by
/// record hash).
#[test]
fn cached_scoring_is_symmetric() {
    let records: Vec<Record> = (100..112u64).map(record_from_seed).collect();
    for kind in [ModelKind::EmbaFt, ModelKind::EmbaSb] {
        let trained = matcher_over(kind, &records, 64);
        let mut scorer = CatalogScorer::new(&trained, 64);
        for pair in records.chunks(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let ab = scorer.score(a, b);
            let ba = scorer.score(b, a);
            assert_eq!(
                ab.to_bits(),
                ba.to_bits(),
                "{}: score(a,b)={ab} != score(b,a)={ba}",
                trained.model.name()
            );
        }
    }
}

/// Satellite: cold-cache and warm-cache scoring are bit-identical — the
/// cache returns the same tensors it stored, and scoring is deterministic.
#[test]
fn cold_and_warm_cache_scores_are_bit_identical() {
    let records: Vec<Record> = (200..210u64).map(record_from_seed).collect();
    // BERT-small exercises the real transformer backbone here.
    let trained = matcher_over(ModelKind::EmbaSb, &records, 48);
    let mut scorer = CatalogScorer::new(&trained, 64);
    let pairs: Vec<(&Record, &Record)> = records
        .iter()
        .zip(records.iter().skip(1))
        .collect();
    let cold: Vec<u32> = pairs.iter().map(|(a, b)| scorer.score(a, b).to_bits()).collect();
    let hits_after_cold = scorer.cache().hits();
    let warm: Vec<u32> = pairs.iter().map(|(a, b)| scorer.score(a, b).to_bits()).collect();
    assert_eq!(cold, warm, "warm-cache scores diverged from cold-cache scores");
    assert!(
        scorer.cache().hits() > hits_after_cold,
        "warm pass never hit the cache"
    );
}

/// A poisoned encoding is scored (so the NaN surfaces) but never becomes
/// cache-resident: a healthy model scored afterwards through the same
/// scorer gets exactly what a fresh scorer would give it. Two poisons: every
/// element of the first parameter, and one element of the first feed-forward
/// bias — a single NaN per row of the next linear's input, which an int8
/// quantizer whose min/max pass drops NaN would launder into finite outputs.
#[test]
fn poisoned_encodings_surface_as_nan_and_stay_out_of_the_cache() {
    let records: Vec<Record> = (300..306u64).map(record_from_seed).collect();
    let healthy = matcher_over(ModelKind::EmbaSb, &records, 48);
    let hidden = BertConfig::small(512).hidden;
    for one_element in [false, true] {
        let mut poisoned = matcher_over(ModelKind::EmbaSb, &records, 48);
        let mut done = false;
        poisoned.model.visit_mut(&mut |p| {
            let (rows, cols) = p.value.shape();
            if !done && (!one_element || (rows == 1 && cols > hidden)) {
                done = true;
                let mut data = p.value.data().to_vec();
                data[..if one_element { 1 } else { rows * cols }].fill(f32::NAN);
                p.value = Tensor::from_vec(rows, cols, data);
            }
        });
        assert!(done, "no parameter to poison");
        poisoned_pass_is_visible_and_leaves_no_trace(&records, &healthy, &poisoned);
    }
}

fn poisoned_pass_is_visible_and_leaves_no_trace(records: &[Record], healthy: &TrainedMatcher, poisoned: &TrainedMatcher) {
    let ids: Vec<Vec<usize>> = records
        .iter()
        .map(|r| healthy.pipeline.encode_single_record(r))
        .collect();
    let keys: Vec<u64> = ids.iter().map(|v| record_hash(v)).collect();
    let run = |scorer: &mut PairScorer, model: &dyn Matcher| -> Vec<u32> {
        let resolved = scorer.resolve(model, keys.iter().copied().zip(&ids), |v| v);
        let pairs = keys.iter().copied().zip(keys.iter().copied().skip(1));
        let (probs, _) = scorer.score(model, &resolved, pairs);
        probs.into_iter().map(f32::to_bits).collect()
    };

    // Under both backends: the int8 path must not launder a NaN row into
    // finite outputs on its way through the quantizer. On two lanes the
    // misses and the pairs split in halves, so both lanes encode and score
    // poison.
    for backend in [BackendKind::F32, BackendKind::Int8] {
        for two_lanes in [false, true] {
            let scorer_for = || if two_lanes { PairScorer::two_lanes(64, backend) } else { PairScorer::new(64, backend) };
            let mut scorer = scorer_for();
            let bad = run(&mut scorer, poisoned.model.as_ref());
            assert!(bad.iter().all(|&p| f32::from_bits(p).is_nan()), "{backend:?}, two lanes {two_lanes}: poison hidden: {bad:?}");
            assert_eq!(scorer.cache().len(), 0, "{backend:?}, two lanes {two_lanes}: a non-finite encoding became resident");

            let after = run(&mut scorer, healthy.model.as_ref());
            let fresh = run(&mut scorer_for(), healthy.model.as_ref());
            assert_eq!(after, fresh, "{backend:?}, two lanes {two_lanes}: the poisoned pass leaked into later scores");
            assert!(after.iter().all(|&p| f32::from_bits(p).is_finite()));
            assert_eq!(scorer.cache().len(), keys.len());
        }
    }
}

/// `match_catalog` runs each window on two lanes; a one-lane [`PairScorer`]
/// driven over the same windows must give the same probabilities, bit for
/// bit, and the same encode and cache counts. The cache holds half the
/// catalog, so it rotates and evicts along the way.
#[test]
fn two_lanes_match_one_lane_bits_and_cache_counters() {
    let cat = product_catalog(&CatalogSpec::quick("lanes", 40));
    let trained = matcher_over(ModelKind::EmbaSb, &cat.records, 48);
    let model = trained.model.as_ref();
    let ids: Vec<Vec<usize>> = cat.records.iter().map(|r| trained.pipeline.encode_single_record(r)).collect();
    let keys: Vec<u64> = ids.iter().map(|v| record_hash(v)).collect();
    for backend in [BackendKind::F32, BackendKind::Int8] {
        let cfg = CatalogMatchConfig { cache_capacity: cat.len() / 2, score_chunk: 16, backend, ..Default::default() };
        let (scored, report) = match_catalog(&trained, &cat.records, &cfg);

        let candidates = BlockingIndex::build(&cat.records, &cfg.blocking).candidates(&cfg.blocking);
        let mut one_lane = PairScorer::new(cfg.cache_capacity, backend);
        let (mut probs, mut encodes, mut split_windows) = (Vec::new(), 0, 0);
        for window in candidates.chunks(cfg.score_chunk) {
            let records = window.iter().flat_map(|&(i, j)| [(keys[i], i), (keys[j], j)]);
            let resolved = one_lane.resolve(model, records, |i| &ids[i][..]);
            encodes += resolved.misses as u64;
            split_windows += usize::from(resolved.misses >= 2 && window.len() >= 2);
            probs.extend(one_lane.score(model, &resolved, window.iter().map(|&(i, j)| (keys[i], keys[j]))).0);
        }
        assert!(split_windows >= 2, "{backend:?}: only {split_windows} windows split both steps");
        assert_eq!(
            scored.iter().map(|p| p.prob.to_bits()).collect::<Vec<_>>(),
            probs.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "{backend:?}: two lanes changed a probability"
        );
        assert_eq!(
            (report.encodes, report.cache_hits, report.cache_misses),
            (encodes, one_lane.cache().hits(), one_lane.cache().misses()),
            "{backend:?}: two lanes changed the cache's course"
        );
    }
}

/// A record with no content tokens encodes to `[0, h]`, and a pair with such
/// a side pools to a zero row: its probability is the match head at zero,
/// `sigmoid(bias)` — 0.5 on an untrained head, which `match_catalog` counts as
/// a match at its default 0.5 threshold. Pinned, not endorsed (DESIGN.md
/// "Scoring pipeline").
#[test]
fn an_empty_side_scores_as_the_match_heads_bias() {
    let records: Vec<Record> = (400..404u64).map(record_from_seed).collect();
    let trained = matcher_over(ModelKind::EmbaSb, &records, 48);
    let ids = trained.pipeline.encode_single_record(&records[0]);
    let g = Graph::new();
    let encs = trained
        .model
        .encode_records_standalone(&g, GraphStamp::next(), &[&ids, &[]])
        .expect("AOA matcher has a split path");
    g.recycle();
    let (full, empty) = (&encs[0], &encs[1]);
    assert_eq!(empty.shape(), (0, full.cols()));
    let g = Graph::new();
    let probs = trained
        .model
        .score_encoded_pairs(&g, GraphStamp::next(), &[(full, empty), (empty, full), (empty, empty), (full, full)])
        .expect("AOA matcher has a split path");
    g.recycle();
    assert_eq!(probs[..3], [0.5, 0.5, 0.5]);
    assert!(probs[3].is_finite() && probs[3] != 0.5);
}

/// Tentpole end-to-end: blocking recall on a catalog with known clusters,
/// cache amortization, and batched-vs-single scoring agreement.
#[test]
fn match_catalog_hits_recall_floor_with_cache_reuse() {
    emba_trace::metrics::reset();
    let cat = product_catalog(&CatalogSpec::quick("e2e", 150));
    let trained = matcher_over(ModelKind::EmbaFt, &cat.records, 96);
    let cfg = CatalogMatchConfig {
        cache_capacity: 2 * cat.len(),
        ..Default::default()
    };
    let (scored, report) = match_catalog(&trained, &cat.records, &cfg);

    // Candidates are canonical and deduplicated.
    let mut seen = std::collections::HashSet::new();
    for p in &scored {
        assert!(p.i < p.j, "non-canonical pair ({}, {})", p.i, p.j);
        assert!(seen.insert((p.i, p.j)), "duplicate pair ({}, {})", p.i, p.j);
        assert!(p.prob.is_finite() && (0.0..=1.0).contains(&p.prob));
    }

    // Blocking recall on the known clusters.
    let candidates: Vec<(usize, usize)> = scored.iter().map(|p| (p.i, p.j)).collect();
    let recall = blocking_recall(&candidates, &cat.true_pairs());
    assert!(recall >= 0.95, "blocking recall {recall:.3} below floor");

    // Encode-once accounting: every record encoded at most once (the cache
    // holds the whole catalog), and far fewer encodes than scored pairs.
    assert_eq!(report.scored_pairs, report.candidate_pairs);
    assert!(report.encodes <= cat.len() as u64, "records re-encoded");
    assert!(report.cache_hit_rate > 0.0, "cache never hit");
    assert!(
        report.encodes_per_pair < 1.0,
        "no amortization: {:.2} encodes per pair",
        report.encodes_per_pair
    );

    // Batched scoring agrees bit-for-bit with scoring the same pair alone
    // in the same orientation.
    for p in scored.iter().step_by(scored.len() / 5 + 1) {
        let single = split_score(&trained, &cat.records[p.i], &cat.records[p.j]);
        assert_eq!(
            p.prob.to_bits(),
            single.to_bits(),
            "pair ({}, {}): batched {} vs single {}",
            p.i,
            p.j,
            p.prob,
            single
        );
    }

    // The metrics registry carries the catalog section.
    let snap = emba_trace::metrics::snapshot();
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .value
    };
    assert_eq!(counter("catalog.candidate_pairs"), report.candidate_pairs as u64);
    assert_eq!(counter("catalog.scored_pairs"), report.scored_pairs as u64);
    assert_eq!(counter("catalog.encodes"), report.encodes);
    assert!(snap.histograms.iter().any(|h| h.name == "catalog.score_batch_ns"));
    assert!(snap.gauges.iter().any(|g| g.name == "catalog.cache.hit_rate"));
    emba_trace::metrics::reset();
}

/// The recall/candidate-count tradeoff is monotone in the shared-key
/// threshold through the public `match_catalog` configuration too.
#[test]
fn recall_tradeoff_is_monotone_in_min_shared() {
    let cat = product_catalog(&CatalogSpec::quick("trade", 120));
    let trained = matcher_over(ModelKind::EmbaFt, &cat.records, 96);
    let truth = cat.true_pairs();
    let mut prev_candidates = usize::MAX;
    let mut prev_recall = f64::INFINITY;
    for min_shared in [1usize, 2, 4] {
        let cfg = CatalogMatchConfig {
            blocking: BlockingConfig {
                min_shared,
                ..Default::default()
            },
            cache_capacity: 2 * cat.len(),
            ..Default::default()
        };
        let (scored, report) = match_catalog(&trained, &cat.records, &cfg);
        let candidates: Vec<(usize, usize)> = scored.iter().map(|p| (p.i, p.j)).collect();
        let recall = blocking_recall(&candidates, &truth);
        assert!(report.candidate_pairs <= prev_candidates);
        assert!(recall <= prev_recall);
        prev_candidates = report.candidate_pairs;
        prev_recall = recall;
    }
}
