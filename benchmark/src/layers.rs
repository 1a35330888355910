//! Per-layer probes: each times calls into one layer's public functions on
//! the workload's own inputs, inside a benchmark span.
//!
//! The probes run in the traced run only, after the timed section, with the
//! profiler off; what they cost is no part of any end-to-end number.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use emba_core::batching::plan_sub_batches;
use emba_core::blocking::{BlockingConfig, BlockingIndex};
use emba_core::{EncodingCache, TrainedMatcher};
use emba_datagen::{Catalog, Record};
use emba_nn::GraphStamp;
use emba_tensor::{backend, BackendKind, Graph, Tensor};
use emba_tokenizer::encode_record;

use crate::registry::MetricSet;
use crate::setup::{is_probability, pipeline_config, ChosenBlocking};
use crate::spans::Recorder;
use crate::stats::{percentile, sorted};

/// Records per grouped encode call in the `models.` probe.
pub const ENCODE_GROUP: usize = 64;
/// Pairs per grouped score call in the `models.` probe (the catalog
/// driver's window size).
pub const SCORE_GROUP: usize = 256;
/// At most this many pairs go through the score probe; a larger candidate
/// list is sampled in evenly spaced groups and the time scaled.
const SCORE_PROBE_PAIRS: usize = 40_000;

fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// `blocking.*`: index build and candidate emission timed separately, with
/// the quality of what they emit.
pub fn blocking(rec: &mut Recorder, m: &mut MetricSet, catalog: &Catalog, chosen: &ChosenBlocking) {
    let cfg: &BlockingConfig = &chosen.cfg;
    let mut index = None;
    let build_s = rec.scope("blocking.build", 0, |_| {
        secs(|| index = Some(BlockingIndex::build(&catalog.records, cfg)))
    });
    let index = index.expect("built above");
    let mut emitted = Vec::new();
    let candidates_s = rec.scope("blocking.candidates", 0, |_| {
        secs(|| emitted = index.candidates(cfg))
    });
    let truth = catalog.num_true_pairs() as f64;
    m.put("blocking.build_s", build_s);
    m.put("blocking.candidates_s", candidates_s);
    m.put("blocking.candidates", emitted.len() as f64);
    m.put(
        "blocking.candidates_per_record",
        emitted.len() as f64 / catalog.len().max(1) as f64,
    );
    m.put("blocking.recall", chosen.recall);
    m.put(
        "blocking.pair_precision",
        chosen.recall * truth / emitted.len().max(1) as f64,
    );
    m.put("blocking.stop_keys", index.num_stop_keys(cfg) as f64);
}

/// `tokenizer.*`: the standalone and the joint tokenisation paths.
/// `pairs` are the record pairs the workload joins (may be empty: then the
/// joint rate is measured on neighbouring records).
pub fn tokenizer(
    rec: &mut Recorder,
    m: &mut MetricSet,
    trained: &TrainedMatcher,
    records: &[&Record],
    pairs: &[(&Record, &Record)],
    split_path: bool,
) {
    let pipe = &trained.pipeline;
    let mut tokens = 0usize;
    if split_path {
        let rounds = (2000 / records.len().max(1)).max(1);
        let single_s = rec.scope("tokenizer.single", 0, |_| {
            secs(|| {
                for _ in 0..rounds {
                    for r in records {
                        black_box(pipe.encode_single_record(r));
                    }
                }
            })
        });
        m.put(
            "tokenizer.single_records_per_s",
            (rounds * records.len()) as f64 / single_s,
        );
    }
    let neighbours: Vec<(&Record, &Record)> = records.windows(2).map(|w| (w[0], w[1])).collect();
    let joint = if pairs.is_empty() {
        &neighbours[..]
    } else {
        pairs
    };
    let joint = &joint[..joint.len().min(2000)];
    let pair_s = rec.scope("tokenizer.pair", 0, |_| {
        secs(|| {
            for (l, r) in joint {
                black_box(pipe.encode_records(l, r));
            }
        })
    });
    m.put("tokenizer.pair_encodes_per_s", joint.len() as f64 / pair_s);
    let budget = pipe.record_budget();
    let mut truncated = 0usize;
    for r in records {
        let full = encode_record(pipe.tokenizer(), &r.attrs, pipeline_config().serialization).len();
        tokens += full.min(budget);
        truncated += usize::from(full > budget);
    }
    m.put(
        "tokenizer.tokens_per_record",
        tokens as f64 / records.len().max(1) as f64,
    );
    m.put(
        "tokenizer.truncated_share",
        truncated as f64 / records.len().max(1) as f64,
    );
}

/// `enc_cache.*` and `batching.*` for a catalog workload: replays
/// `match_catalog`'s lookup / insert / plan sequence (same keys, same
/// windows, one-element stand-in tensors) on a cache of the same capacity,
/// timing each cache call and each planner call. Returns the record indices
/// in the order the driver encodes them.
pub fn replay_windows(
    rec: &mut Recorder,
    m: &mut MetricSet,
    ids: &[Vec<usize>],
    candidates: &[(usize, usize)],
    window: usize,
    cache_capacity: usize,
) -> Vec<usize> {
    let keys: Vec<u64> = ids.iter().map(|v| emba_core::record_hash(v)).collect();
    let mut cache = CacheReplay::new(cache_capacity);
    let (mut encode_subs, mut score_subs, mut sub_sizes, mut windows) =
        (0usize, 0usize, Vec::new(), 0usize);
    let mut plan_s = 0.0;
    let mut encode_order = Vec::new();
    rec.scope("enc_cache.replay", 0, |_| {
        for win in candidates.chunks(window.max(1)) {
            windows += 1;
            let mut seen: HashSet<u64> = HashSet::new();
            let mut to_encode: Vec<usize> = Vec::new();
            for &(i, j) in win {
                for idx in [i, j] {
                    if !seen.insert(keys[idx]) {
                        continue;
                    }
                    if !cache.lookup(keys[idx]) {
                        to_encode.push(idx);
                    }
                }
            }
            let lens: Vec<usize> = to_encode.iter().map(|&i| ids[i].len()).collect();
            let pair_lens: Vec<usize> = win
                .iter()
                .map(|&(i, j)| ids[i].len() + ids[j].len())
                .collect();
            let t = Instant::now();
            let encode_plan = plan_sub_batches(&lens);
            let score_plan = plan_sub_batches(&pair_lens);
            plan_s += t.elapsed().as_secs_f64();
            encode_subs += encode_plan.len();
            score_subs += score_plan.len();
            sub_sizes.extend(
                encode_plan
                    .iter()
                    .chain(&score_plan)
                    .map(|s| s.len() as f64),
            );
            for sub in &encode_plan {
                for &k in sub {
                    cache.insert(keys[to_encode[k]]);
                    encode_order.push(to_encode[k]);
                }
            }
        }
    });
    cache.put(m);
    m.put(
        "batching.encode_sub_batches_per_window",
        encode_subs as f64 / windows.max(1) as f64,
    );
    m.put(
        "batching.score_sub_batches_per_window",
        score_subs as f64 / windows.max(1) as f64,
    );
    m.put(
        "batching.mean_sub_batch",
        sub_sizes.iter().sum::<f64>() / sub_sizes.len().max(1) as f64,
    );
    m.put("batching.plan_s", plan_s);
    encode_order
}

/// An `EncodingCache` of a workload's capacity fed the workload's own key
/// sequence with one-element stand-in tensors, every call timed: the source
/// of `enc_cache.*`.
pub struct CacheReplay {
    cache: EncodingCache,
    stand_in: Tensor,
    get_ns: Vec<f64>,
    insert_ns: Vec<f64>,
}

impl CacheReplay {
    /// A replay cache of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            cache: EncodingCache::new(capacity),
            stand_in: Tensor::zeros(1, 1),
            get_ns: Vec::new(),
            insert_ns: Vec::new(),
        }
    }

    /// A timed lookup; whether it hit.
    pub fn lookup(&mut self, key: u64) -> bool {
        let t = Instant::now();
        let hit = self.cache.get(key).is_some();
        self.get_ns.push(t.elapsed().as_nanos() as f64);
        hit
    }

    /// A timed insert.
    pub fn insert(&mut self, key: u64) {
        let t = Instant::now();
        self.cache.insert(key, self.stand_in.clone());
        self.insert_ns.push(t.elapsed().as_nanos() as f64);
    }

    /// Records `enc_cache.*`.
    pub fn put(self, m: &mut MetricSet) {
        let p50 = |xs: Vec<f64>| {
            if xs.is_empty() {
                0.0
            } else {
                percentile(&sorted(xs), 0.5)
            }
        };
        let cache = &self.cache;
        m.put("enc_cache.lookups", (cache.hits() + cache.misses()) as f64);
        m.put("enc_cache.hits", cache.hits() as f64);
        m.put("enc_cache.misses", cache.misses() as f64);
        m.put("enc_cache.hit_rate", cache.hit_rate());
        m.put("enc_cache.inserts", cache.inserts() as f64);
        m.put("enc_cache.rotations", cache.rotations() as f64);
        m.put("enc_cache.get_ns_p50", p50(self.get_ns));
        m.put("enc_cache.insert_ns_p50", p50(self.insert_ns));
    }
}

/// What the `models.` split-path probe measured.
pub struct SplitProbe {
    /// Seconds to encode every record in `order`, one grouped call per
    /// [`ENCODE_GROUP`].
    pub encode_s: f64,
    /// Seconds to score every candidate pair, one grouped call per
    /// [`SCORE_GROUP`] (scaled up when the list was sampled).
    pub score_s: f64,
    /// Non-finite or out-of-range probabilities seen.
    pub nonfinite: usize,
}

/// `models.*` on the split (encode-once) path: `encode_records_standalone`
/// over the records in `order`, then `score_encoded_pairs` over `pairs`
/// (indices into `ids`), both under `backend`.
pub fn split_path(
    rec: &mut Recorder,
    m: &mut MetricSet,
    trained: &TrainedMatcher,
    ids: &[Vec<usize>],
    order: &[usize],
    pairs: &[(usize, usize)],
    backend_kind: BackendKind,
) -> SplitProbe {
    let _backend = backend::install(backend_kind);
    let mut encodings: HashMap<usize, Tensor> = HashMap::new();
    let mut encode_s = 0.0;
    let mut tokens = 0usize;
    for (group_id, group) in order.chunks(ENCODE_GROUP).enumerate() {
        let recs: Vec<&[usize]> = group.iter().map(|&i| &ids[i][..]).collect();
        tokens += recs.iter().map(|r| r.len() + 2).sum::<usize>();
        let mut out = Vec::new();
        encode_s += rec.scope("models.encode", group_id as u64, |_| {
            secs(|| {
                let g = Graph::new();
                out = trained
                    .model
                    .encode_records_standalone(&g, GraphStamp::next(), &recs)
                    .expect("the benchmark model has a split scoring path");
                g.recycle();
            })
        });
        encodings.extend(group.iter().copied().zip(out));
    }
    // Pairs whose records were both encoded above (all of them when `order`
    // covers every record the candidate list touches).
    let groups: Vec<&[(usize, usize)]> = pairs.chunks(SCORE_GROUP).collect();
    let stride = (pairs.len() / SCORE_PROBE_PAIRS).max(1);
    let mut scored = 0usize;
    let mut score_s = 0.0;
    let mut nonfinite = 0usize;
    for (group_id, group) in groups.iter().enumerate().step_by(stride) {
        let operands: Vec<(&Tensor, &Tensor)> = group
            .iter()
            .map(|(i, j)| (&encodings[i], &encodings[j]))
            .collect();
        let mut probs = Vec::new();
        score_s += rec.scope("models.score", group_id as u64, |_| {
            secs(|| {
                let g = Graph::new();
                probs = trained
                    .model
                    .score_encoded_pairs(&g, GraphStamp::next(), &operands)
                    .expect("the benchmark model has a split scoring path");
                g.recycle();
            })
        });
        scored += group.len();
        nonfinite += probs.iter().filter(|&&p| !is_probability(p)).count();
    }
    m.put("models.encode_records_per_s", order.len() as f64 / encode_s);
    m.put("models.encode_tokens_per_s", tokens as f64 / encode_s);
    m.put("models.score_pairs_per_s", scored as f64 / score_s);
    m.put("models.nonfinite", nonfinite as f64);
    let scale = pairs.len() as f64 / scored.max(1) as f64;
    SplitProbe {
        encode_s,
        score_s: score_s * scale,
        nonfinite,
    }
}
