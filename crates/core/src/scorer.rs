//! The one encode-once scoring pipeline: cache lookup → encode the misses →
//! fused AOA score.
//!
//! EMBA's AOA head is a pure function of two per-record token matrices, so a
//! record is encoded once and every candidate pair it appears in is scored
//! from the cached encoding. [`PairScorer`] is that sequence, written once;
//! [`crate::match_catalog`], [`crate::CatalogScorer`] and the serving engine
//! are thin clients that differ only in where their keys and token ids come
//! from.
//!
//! # Launch policy
//!
//! Each step runs under the scorer's backend, in the order the batch
//! arrived: [`PairScorer::resolve`] encodes a batch's misses with
//! [`Matcher::encode_records_standalone`] in launches of at most
//! `ENCODE_LAUNCH` records (a memory bound), and [`PairScorer::score`] runs
//! [`Matcher::score_encoded_pairs`] — one attention-over-attention op that
//! reads the resolved encodings where they lie, pair by pair, in the order
//! the pairs were given (a run of pairs with the same left record shares one
//! packing of it, so sorted candidates score fastest). The grouped kernels
//! take mixed lengths natively and are bit-identical across batch
//! compositions, so length bucketing
//! ([`crate::batching::plan_sub_batches`]) would only fragment a batch into
//! more launches — see DESIGN.md "Scoring pipeline" for the measurements.
//!
//! # Lanes
//!
//! A scorer built by [`PairScorer::two_lanes`] splits each step's work in
//! two halves: the caller runs one, a scoped helper thread (which installs
//! the scorer's backend itself) the other, and the results are joined in the
//! original order. That same composition independence makes the split
//! invisible: probabilities, cache contents and cache counters equal a
//! one-lane scorer's. The helper's profiler ops join the caller's report
//! ([`emba_tensor::prof::absorb`]). [`PairScorer::new`] keeps one lane.
//!
//! # Poison policy
//!
//! A non-finite encoding is handed to the score step (whose probability then
//! comes back NaN, surfaced rather than hidden) but never becomes
//! cache-resident, so a corrupted weight cannot outlive the call that exposed
//! it. Callers that distrust resident entries evict them with
//! [`PairScorer::quarantine`].

use std::collections::hash_map::{Entry, HashMap};
use std::time::{Duration, Instant};

use emba_nn::GraphStamp;
use emba_tensor::{backend, BackendKind, Graph, Tensor};

use crate::enc_cache::EncodingCache;
use crate::lanes;
use crate::models::Matcher;

const NO_SPLIT_PATH: &str = "PairScorer requires an AOA matcher with a split scoring path";

/// Most records one backbone launch encodes. A launch's buffer plan grows
/// with its rows, and a `match_catalog` window's 250+ misses in one launch
/// (a plan of tens of MB instead of a few) measured 2–5 % fewer pairs/s on
/// the int8 and dense catalogs and +35 MB of peak RSS; on two lanes, each
/// with its own plan, 64 read 22 % more peak RSS than 32 at the same
/// pairs/s (DESIGN.md "Scoring pipeline").
const ENCODE_LAUNCH: usize = 32;

/// The encodings one [`PairScorer::resolve`] call gathered, and what
/// gathering them cost.
pub struct Resolved {
    /// Every batch-unique key; `None` only while its encode is pending.
    encodings: HashMap<u64, Option<Tensor>>,
    /// Batch-unique records served from the cache.
    pub hits: usize,
    /// Batch-unique records tokenized and encoded by this call.
    pub misses: usize,
    /// Wall time of the whole step: lookups, tokenization of the misses, the
    /// grouped encode, and the cache inserts.
    pub elapsed: Duration,
}

/// Cache lookup → encode misses → grouped score, under one backend.
///
/// The matcher is borrowed per call rather than owned, so a supervisor can
/// swap its model (a serving restart) and keep the scorer and its cache.
#[derive(Debug)]
pub struct PairScorer {
    cache: EncodingCache,
    backend: BackendKind,
    /// Whether each step splits its work with a helper thread.
    two_lanes: bool,
}

impl PairScorer {
    /// A one-lane scorer holding at most `cache_capacity` encodings that runs
    /// every graph under `backend`. Encodings cached under one backend are
    /// not comparable with another's, so keep one scorer per backend.
    pub fn new(cache_capacity: usize, backend: BackendKind) -> Self {
        Self {
            cache: EncodingCache::new(cache_capacity),
            backend,
            two_lanes: false,
        }
    }

    /// [`PairScorer::new`], but each step runs on two lanes: the calling
    /// thread and a scoped helper (see the module docs). Same results, same
    /// cache state.
    pub fn two_lanes(cache_capacity: usize, backend: BackendKind) -> Self {
        Self { two_lanes: true, ..Self::new(cache_capacity, backend) }
    }

    /// Cache statistics (hits, misses, resident entries, quarantines).
    pub fn cache(&self) -> &EncodingCache {
        &self.cache
    }

    /// Evicts a suspect encoding; see [`EncodingCache::quarantine`].
    pub fn quarantine(&mut self, key: u64) -> bool {
        self.cache.quarantine(key)
    }

    /// Publishes the cache's `catalog.cache.*` metrics; see
    /// [`EncodingCache::publish_metrics`].
    pub fn publish_metrics(&mut self) {
        self.cache.publish_metrics();
    }

    /// Whether `model` has the split scoring path, probed by encoding and
    /// scoring a one-token record under this scorer's backend. Under `Int8`
    /// that encode also builds and caches the quantized weights of every
    /// linear layer a split-path request runs, so a long-lived caller that
    /// probes at construction (and after every model swap) never pays
    /// quantization on a request.
    pub fn probe(&self, model: &dyn Matcher) -> bool {
        let _backend = backend::install(self.backend);
        let g = Graph::new();
        let encs = model.encode_records_standalone(&g, GraphStamp::next(), &[&[0usize][..]]);
        g.recycle();
        let Some(encs) = encs else { return false };
        let g = Graph::new();
        let probs = model.score_encoded_pairs(&g, GraphStamp::next(), &[(&encs[0], &encs[0])]);
        g.recycle();
        probs.is_some()
    }

    /// Step 1: gathers the encoding of every distinct key in `records`.
    ///
    /// Each key is looked up once; `token_ids` is called only for the misses
    /// (so a caller keyed by [`crate::record_content_hash`] tokenizes nothing
    /// on a hit), the misses are encoded in grouped launches of at most
    /// `ENCODE_LAUNCH` records, and the finite encodings are inserted into
    /// the cache in the order their keys arrived.
    ///
    /// # Panics
    ///
    /// Panics if `model` has no split scoring path (see
    /// [`PairScorer::probe`]).
    pub fn resolve<H, I: AsRef<[usize]>>(
        &mut self,
        model: &dyn Matcher,
        records: impl IntoIterator<Item = (u64, H)>,
        mut token_ids: impl FnMut(H) -> I,
    ) -> Resolved {
        let start = Instant::now();
        let mut encodings: HashMap<u64, Option<Tensor>> = HashMap::new();
        let mut misses: Vec<(u64, I)> = Vec::new();
        for (key, handle) in records {
            if let Entry::Vacant(slot) = encodings.entry(key) {
                let cached = self.cache.get(key);
                if cached.is_none() {
                    misses.push((key, token_ids(handle)));
                }
                slot.insert(cached);
            }
        }
        let hits = encodings.len() - misses.len();
        let recs: Vec<&[usize]> = misses.iter().map(|(_, ids)| ids.as_ref()).collect();
        let encs = self.on_lanes(&recs, |recs| {
            recs.chunks(ENCODE_LAUNCH)
                .flat_map(|launch| {
                    let g = Graph::new();
                    let encs = model
                        .encode_records_standalone(&g, GraphStamp::next(), launch)
                        .expect(NO_SPLIT_PATH);
                    g.recycle();
                    encs
                })
                .collect()
        });
        for (&(key, _), enc) in misses.iter().zip(encs) {
            if enc.data().iter().all(|v| v.is_finite()) {
                self.cache.insert(key, enc.clone());
            }
            encodings.insert(key, Some(enc));
        }
        Resolved {
            encodings,
            hits,
            misses: misses.len(),
            elapsed: start.elapsed(),
        }
    }

    /// Step 2: scores `pairs` of resolved keys in one grouped call per lane,
    /// returning the probabilities in order and the step's wall time. A pair
    /// whose logit is non-finite scores NaN.
    ///
    /// # Panics
    ///
    /// Panics if a key was not part of `resolved`, or if `model` has no split
    /// scoring path.
    pub fn score(
        &self,
        model: &dyn Matcher,
        resolved: &Resolved,
        pairs: impl IntoIterator<Item = (u64, u64)>,
    ) -> (Vec<f32>, Duration) {
        let start = Instant::now();
        let encoding = |key: u64| resolved.encodings[&key].as_ref().expect("resolve encoded every miss");
        let operands: Vec<(&Tensor, &Tensor)> = pairs.into_iter().map(|(a, b)| (encoding(a), encoding(b))).collect();
        let probs = self.on_lanes(&operands, |operands| {
            let g = Graph::new();
            let probs = model
                .score_encoded_pairs(&g, GraphStamp::next(), operands)
                .expect(NO_SPLIT_PATH);
            g.recycle();
            probs
        });
        (probs, start.elapsed())
    }

    /// `work(items)` under this scorer's backend, split over two lanes
    /// ([`lanes::split`]) if this scorer has them.
    fn on_lanes<T: Sync, R: Send>(&self, items: &[T], work: impl Fn(&[T]) -> Vec<R> + Sync) -> Vec<R> {
        let run = |items: &[T]| {
            let _backend = backend::install(self.backend);
            work(items)
        };
        if self.two_lanes {
            lanes::split(items, run)
        } else {
            run(items)
        }
    }
}
