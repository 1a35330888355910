//! The catalog-matching driver: blocking → encoding cache → batched AOA
//! scoring.
//!
//! [`match_catalog`] turns the per-pair inference cost structure inside
//! out. The pre-paired [`TrainedMatcher::predict_batch`] path re-runs the
//! full backbone for every pair (`O(pairs)` backbone forwards); here every
//! record is encoded standalone **once** (`O(records)`), the resulting
//! token tensors live in a bounded [`EncodingCache`], and each candidate
//! pair emitted by the [`crate::blocking`] index costs only the
//! attention-over-attention module plus the match head over two cached
//! encodings. The lookup → encode-misses → score sequence itself is
//! [`PairScorer`]'s; this module only walks the candidate list in windows
//! of `score_chunk` pairs (the memory bound) and hands each one to a
//! two-lane scorer ([`PairScorer::two_lanes`]), so each window's encode and
//! score run on two threads with one-lane results; the records are
//! tokenized on the same two lanes.
//!
//! Stage latencies land in the `catalog.*` histograms, candidate/encode
//! counts in the matching counters, and the cache exports its hit rate as
//! a gauge — all through the [`emba_trace::metrics`] registry, so a traced
//! run's `RunSummary` can carry the whole catalog section.

use std::time::{Duration, Instant};

use emba_datagen::Record;
use emba_tensor::BackendKind;
use emba_trace::metrics;
use serde::Serialize;

use crate::blocking::{BlockingConfig, BlockingIndex};
use crate::enc_cache::{record_hash, EncodingCache};
use crate::experiment::TrainedMatcher;
use crate::lanes;
use crate::scorer::PairScorer;

/// Knobs for [`match_catalog`].
#[derive(Debug, Clone)]
pub struct CatalogMatchConfig {
    /// Candidate-generation settings.
    pub blocking: BlockingConfig,
    /// Maximum resident record encodings.
    pub cache_capacity: usize,
    /// Candidate pairs per scoring window — the bound on how many encodings
    /// and how large a graph are live at once. Each window is one
    /// [`PairScorer::resolve`] plus one [`PairScorer::score`].
    pub score_chunk: usize,
    /// Match-probability threshold for the reported match count.
    pub threshold: f32,
    /// Kernel backend to score with (`Int8` runs the quantized GEMM path for
    /// both record encoding and pair scoring).
    pub backend: BackendKind,
}

impl Default for CatalogMatchConfig {
    fn default() -> Self {
        Self {
            blocking: BlockingConfig::default(),
            cache_capacity: 8192,
            score_chunk: 256,
            threshold: 0.5,
            backend: BackendKind::F32,
        }
    }
}

/// One scored candidate pair (`i < j`, catalog indices).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ScoredPair {
    /// First record index.
    pub i: usize,
    /// Second record index.
    pub j: usize,
    /// Match probability.
    pub prob: f32,
}

/// What one [`match_catalog`] run did and what it cost.
#[derive(Debug, Clone, Serialize)]
pub struct CatalogMatchReport {
    /// Catalog size.
    pub records: usize,
    /// Candidate pairs emitted by blocking.
    pub candidate_pairs: usize,
    /// Pairs actually scored (== `candidate_pairs`).
    pub scored_pairs: usize,
    /// Pairs at or above the match threshold.
    pub matches: usize,
    /// Backbone record encodes performed (cache misses).
    pub encodes: u64,
    /// Cache lookups that hit.
    pub cache_hits: u64,
    /// Cache lookups that missed.
    pub cache_misses: u64,
    /// `hits / (hits + misses)`.
    pub cache_hit_rate: f64,
    /// `encodes / scored_pairs` — the headline amortization figure.
    pub encodes_per_pair: f64,
    /// Blocking-index build + candidate emission seconds.
    pub blocking_secs: f64,
    /// Tokenization seconds (once per record).
    pub tokenize_secs: f64,
    /// Backbone encoding seconds (cache misses only).
    pub encode_secs: f64,
    /// AOA + match-head scoring seconds.
    pub score_secs: f64,
    /// End-to-end wall seconds.
    pub total_secs: f64,
    /// `scored_pairs / total_secs`.
    pub pairs_per_sec: f64,
    /// Backend label the run scored with (e.g. `"f32"`, `"int8-avx2"`).
    pub backend: String,
}

/// Matches an entire catalog: blocking, encode-once, batched pair scoring.
///
/// Returns the scored candidates (in the blocking index's canonical sorted
/// order) and the run report. Deterministic for a fixed catalog and
/// config.
///
/// # Panics
///
/// Panics if the model has no split scoring path — the EM strategy must be
/// AOA (see [`PairScorer::probe`]).
pub fn match_catalog(
    trained: &TrainedMatcher,
    records: &[Record],
    cfg: &CatalogMatchConfig,
) -> (Vec<ScoredPair>, CatalogMatchReport) {
    let total_start = Instant::now();

    // ----- Stage 1: blocking -------------------------------------------------
    let stage = Instant::now();
    let index = BlockingIndex::build(records, &cfg.blocking);
    let candidates = index.candidates(&cfg.blocking);
    let blocking = stage.elapsed();
    metrics::observe_ns("catalog.blocking_ns", blocking.as_nanos() as u64);
    metrics::counter_add("catalog.candidate_pairs", candidates.len() as u64);

    // ----- Stage 2: tokenize every record once, on two lanes -----------------
    let stage = Instant::now();
    let ids: Vec<Vec<usize>> = lanes::split(records, |records| {
        records.iter().map(|r| trained.pipeline.encode_single_record(r)).collect()
    });
    let keys: Vec<u64> = ids.iter().map(|v| record_hash(v)).collect();
    let tokenize_secs = stage.elapsed().as_secs_f64();

    // ----- Stage 3: windowed resolve + score ---------------------------------
    let model = trained.model.as_ref();
    let mut scorer = PairScorer::two_lanes(cfg.cache_capacity, cfg.backend);
    let mut scored: Vec<ScoredPair> = Vec::with_capacity(candidates.len());
    let mut encode = Duration::ZERO;
    let mut score = Duration::ZERO;
    let mut encodes: u64 = 0;

    for window in candidates.chunks(cfg.score_chunk.max(1)) {
        let resolved = scorer.resolve(
            model,
            window
                .iter()
                .flat_map(|&(i, j)| [(keys[i], i), (keys[j], j)]),
            |idx| &ids[idx][..],
        );
        metrics::observe_ns(
            "catalog.encode_batch_ns",
            resolved.elapsed.as_nanos() as u64,
        );
        encode += resolved.elapsed;
        encodes += resolved.misses as u64;

        let (probs, took) = scorer.score(
            model,
            &resolved,
            window.iter().map(|&(i, j)| (keys[i], keys[j])),
        );
        metrics::observe_ns("catalog.score_batch_ns", took.as_nanos() as u64);
        score += took;
        scored.extend(
            window
                .iter()
                .zip(probs)
                .map(|(&(i, j), prob)| ScoredPair { i, j, prob }),
        );
    }

    let total_secs = total_start.elapsed().as_secs_f64();
    let matches = scored.iter().filter(|p| p.prob >= cfg.threshold).count();
    metrics::counter_add("catalog.scored_pairs", scored.len() as u64);
    metrics::counter_add("catalog.encodes", encodes);
    scorer.publish_metrics();

    let cache = scorer.cache();
    let report = CatalogMatchReport {
        records: records.len(),
        candidate_pairs: candidates.len(),
        scored_pairs: scored.len(),
        matches,
        encodes,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_hit_rate: cache.hit_rate(),
        encodes_per_pair: if scored.is_empty() {
            0.0
        } else {
            encodes as f64 / scored.len() as f64
        },
        blocking_secs: blocking.as_secs_f64(),
        tokenize_secs,
        encode_secs: encode.as_secs_f64(),
        score_secs: score.as_secs_f64(),
        total_secs,
        pairs_per_sec: if total_secs > 0.0 {
            scored.len() as f64 / total_secs
        } else {
            0.0
        },
        backend: cfg.backend.label().to_string(),
    };
    (scored, report)
}

/// Ad-hoc cached scoring of individual record pairs.
///
/// Unlike [`match_catalog`], which scores canonical index pairs, this
/// scorer accepts free-standing records — and because AOA is asymmetric
/// (γ attends over RECORD1), it fixes the orientation by record hash
/// before scoring, so `score(a, b)` and `score(b, a)` are **bit-identical**
/// through the cache.
pub struct CatalogScorer<'a> {
    trained: &'a TrainedMatcher,
    scorer: PairScorer,
}

impl<'a> CatalogScorer<'a> {
    /// A scorer over `trained` with a bounded encoding cache.
    pub fn new(trained: &'a TrainedMatcher, cache_capacity: usize) -> Self {
        Self::with_backend(trained, cache_capacity, BackendKind::F32)
    }

    /// A scorer pinned to a specific kernel backend (`Int8` scores through
    /// the quantized path; see [`PairScorer::new`]).
    pub fn with_backend(
        trained: &'a TrainedMatcher,
        cache_capacity: usize,
        backend: BackendKind,
    ) -> Self {
        Self {
            trained,
            scorer: PairScorer::new(cache_capacity, backend),
        }
    }

    /// Cache statistics (hits, misses, resident entries).
    pub fn cache(&self) -> &EncodingCache {
        self.scorer.cache()
    }

    /// Scores a record pair through the cached encode-once path.
    /// Symmetric: the pair is canonically oriented by record hash, so the
    /// argument order never changes the result.
    pub fn score(&mut self, a: &Record, b: &Record) -> f32 {
        let ids_a = self.trained.pipeline.encode_single_record(a);
        let ids_b = self.trained.pipeline.encode_single_record(b);
        let mut pair = [(record_hash(&ids_a), &ids_a), (record_hash(&ids_b), &ids_b)];
        if pair[0].0 > pair[1].0 {
            pair.swap(0, 1);
        }
        let model = self.trained.model.as_ref();
        let resolved = self.scorer.resolve(model, pair, |ids| ids);
        self.scorer
            .score(model, &resolved, [(pair[0].0, pair[1].0)])
            .0[0]
    }
}
