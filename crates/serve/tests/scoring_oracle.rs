//! One differential oracle over every client of the encode-once scoring
//! path (ROADMAP 3(d), first slice).
//!
//! For seeded random records whose token lengths span several
//! `BUCKET_WIDTH` buckets inside one window, four routes to a probability
//! must agree **bit-for-bit** under one backend:
//!
//! 1. the raw split path, one pair per graph
//!    (`encode_records_standalone` + `score_encoded_pairs`);
//! 2. [`CatalogScorer::score`];
//! 3. [`match_catalog`];
//! 4. [`ServeCore`].
//!
//! Routes 2–4 go through one `PairScorer` and launch each stage as a single
//! grouped call over whatever shares the window, so agreement with route 1
//! is exactly the composition independence that launch policy relies on.
//! Int8 must additionally stay within [`INT8_BOUND`] of f32.
//!
//! A second oracle runs the routes under every SIMD tier this CPU supports
//! and holds their probabilities bit-equal across tiers, f32 and int8 alike:
//! a new kernel tier leaves every probability, and so every golden file of
//! the end-to-end benchmark, as it was.
//!
//! The model is `ModelKind::EmbaSb`: a real transformer backbone, so
//! attention, layer norm and the GEMM tile edges are all in play — including
//! records of a handful of tokens encoded alone (route 2 from its second
//! pair on), whose projections are GEMMs of fewer rows than one tile.

mod common;

use common::matcher_over;
use emba_core::batching::BUCKET_WIDTH;
use emba_core::blocking::BlockingConfig;
use emba_core::{
    match_catalog, record_hash, CatalogMatchConfig, CatalogScorer, Checkpoint, ModelKind,
    TrainedMatcher,
};
use emba_datagen::Record;
use emba_nn::GraphStamp;
use emba_serve::{MatchOutcome, ServeConfig, ServeCore};
use emba_tensor::{backend, simd, BackendKind, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest accepted |int8 − f32| on one pair. The documented 5e-3 (DESIGN.md
/// §6k) is for trained weights; randomly initialised ones sit closer to the
/// decision boundary, where `benchmark/README.md` measured up to 1.4e-2 and
/// gates at this value.
const INT8_BOUND: f32 = 2.5e-2;

const WORDS: &[&str] = &[
    "samsung", "sandisk", "evo", "ultra", "ssd", "card", "128gb", "1tb", "sata", "nvme", "pro",
    "extreme", "drive", "internal", "memory", "retail",
];

/// Record `k` of a case: `1 + 5k` title words, so consecutive records land
/// in different length buckets whatever the seed picks for the words. The
/// shared brand gives blocking a key every pair has in common.
fn record(rng: &mut StdRng, k: usize) -> Record {
    let title: Vec<&str> = (0..1 + 5 * k)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect();
    Record::new(vec![
        ("brand", "acme".to_string()),
        ("title", title.join(" ")),
        ("code", format!("mz{}", rng.gen_range(100..9999))),
    ])
}

/// Route 1: the pair alone, in the given orientation.
fn raw_split(trained: &TrainedMatcher, kind: BackendKind, a: &[usize], b: &[usize]) -> f32 {
    let _backend = backend::install(kind);
    let g = Graph::new();
    let encs = trained
        .model
        .encode_records_standalone(&g, GraphStamp::next(), &[a, b])
        .expect("EmbaSb has a split path");
    g.recycle();
    let g = Graph::new();
    let prob = trained
        .model
        .score_encoded_pairs(&g, GraphStamp::next(), &[(&encs[0], &encs[1])])
        .expect("EmbaSb has a split path")[0];
    g.recycle();
    prob
}

/// Every pair `(i, j)`, `i < j`, through the four routes under `kind`.
/// Returns the agreed probabilities in `match_catalog`'s order.
fn four_routes(trained: &TrainedMatcher, records: &[Record], kind: BackendKind) -> Vec<f32> {
    let ids: Vec<Vec<usize>> = records
        .iter()
        .map(|r| trained.pipeline.encode_single_record(r))
        .collect();

    // All pairs, one window.
    let cfg = CatalogMatchConfig {
        blocking: BlockingConfig {
            min_shared: 1,
            max_posting: usize::MAX,
            ..Default::default()
        },
        backend: kind,
        ..Default::default()
    };
    let (scored, report) = match_catalog(trained, records, &cfg);
    let n = records.len();
    assert_eq!(
        scored.len(),
        n * (n - 1) / 2,
        "blocking must emit every pair"
    );
    assert!(
        scored.len() <= cfg.score_chunk,
        "the case must fit one window"
    );
    assert_eq!(report.encodes, n as u64);

    let mut scorer = CatalogScorer::with_backend(trained, 2 * n, kind);
    let serve_cfg = ServeConfig {
        max_batch: scored.len(),
        backend: kind,
        ..Default::default()
    };
    // The core owns its matcher: hand it a checkpoint-restored twin.
    let twin = Checkpoint::capture(trained, ModelKind::EmbaSb, 4)
        .restore()
        .expect("a fresh checkpoint restores");
    let mut core = ServeCore::new(twin, serve_cfg).expect("EmbaSb has a split path");
    for (id, p) in scored.iter().enumerate() {
        let (a, b) = (records[p.i].clone(), records[p.j].clone());
        assert!(core.enqueue(id as u64, a, b, 0, u64::MAX).is_empty());
    }
    let served = core.drain(0);
    assert_eq!(served.len(), scored.len());

    for (p, reply) in scored.iter().zip(&served) {
        let tag = format!("{kind:?} pair ({}, {})", p.i, p.j);
        let raw = raw_split(trained, kind, &ids[p.i], &ids[p.j]);
        assert_eq!(
            p.prob.to_bits(),
            raw.to_bits(),
            "{tag}: match_catalog {} raw {raw}",
            p.prob
        );
        let cached = scorer.score(&records[p.i], &records[p.j]);
        assert_eq!(
            cached.to_bits(),
            raw.to_bits(),
            "{tag}: CatalogScorer {cached} raw {raw}"
        );
        match reply.outcome {
            MatchOutcome::Scored { prob, .. } => {
                assert_eq!(
                    prob.to_bits(),
                    raw.to_bits(),
                    "{tag}: served {prob} raw {raw}"
                )
            }
            ref other => panic!("{tag}: served {other:?}"),
        }
    }
    scored.iter().map(|p| p.prob).collect()
}

#[test]
fn every_simd_tier_scores_the_same_bits() {
    let mut rng = StdRng::seed_from_u64(27);
    let mut records: Vec<Record> = (0..6).map(|k| record(&mut rng, k)).collect();
    let trained = matcher_over(ModelKind::EmbaSb, &records, 64);
    records.sort_by_key(|r| record_hash(&trained.pipeline.encode_single_record(r)));
    let runs = simd::on_every_tier(|_| {
        [BackendKind::F32, BackendKind::Int8].map(|kind| {
            let probs = four_routes(&trained, &records, kind);
            probs.iter().map(|p| p.to_bits()).collect::<Vec<u32>>()
        })
    });
    let (_, portable) = &runs[0];
    for (tier, probs) in &runs {
        assert_eq!(probs[0], portable[0], "f32 on {tier:?} differs from the portable tier");
        assert_eq!(probs[1], portable[1], "int8 on {tier:?} differs from the portable tier");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn every_scoring_route_agrees_bit_for_bit(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut records: Vec<Record> = (0..6).map(|k| record(&mut rng, k)).collect();
        let trained = matcher_over(ModelKind::EmbaSb, &records, 64);
        // `CatalogScorer` orients a pair by record hash and `match_catalog`
        // by index; sorting by hash makes the two orientations coincide.
        records.sort_by_key(|r| record_hash(&trained.pipeline.encode_single_record(r)));

        let buckets: std::collections::HashSet<usize> = records
            .iter()
            .map(|r| trained.pipeline.encode_single_record(r).len().div_ceil(BUCKET_WIDTH))
            .collect();
        prop_assert!(buckets.len() >= 3, "lengths span only {} buckets", buckets.len());

        let f32_probs = four_routes(&trained, &records, BackendKind::F32);
        let int8_probs = four_routes(&trained, &records, BackendKind::Int8);
        for (q, f) in int8_probs.iter().zip(&f32_probs) {
            prop_assert!((q - f).abs() <= INT8_BOUND, "int8 {q} vs f32 {f}");
        }
    }
}
