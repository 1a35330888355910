//! The workloads and every metric the benchmark may print: name, unit,
//! direction, regression bound and the workloads that exercise it.
//!
//! `BENCHMARK.json` at the repository root declares the same lists; a test
//! keeps the two equal. The driver wants every declared metric from every
//! workload, so a metric a workload does not exercise (for example
//! `batching.plan_s` on `serve_open_f32`, which never calls the planner) is
//! printed as `0` there and shown as `-` in the human-readable table.

use serde_json::Value;

use crate::{object, text};

/// One benchmark workload; each runs in a process of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `match_catalog`, few candidates per record, f32 kernels.
    CatalogSparseF32,
    /// The same records and candidates under the int8 backend.
    CatalogSparseInt8,
    /// `match_catalog` over nearly all pairs of a small catalog, f32.
    CatalogDenseF32,
    /// One `ServeEngine` under an open-loop then a closed-loop generator.
    ServeOpenF32,
    /// `train_matcher` then `evaluate` on the joint pair path.
    TrainEvalJoint,
}

impl Workload {
    /// Every workload, in the order `run --all` executes them.
    pub const ALL: [Workload; 5] = [
        Workload::CatalogSparseF32,
        Workload::CatalogSparseInt8,
        Workload::CatalogDenseF32,
        Workload::ServeOpenF32,
        Workload::TrainEvalJoint,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CatalogSparseF32 => "catalog_sparse_f32",
            Workload::CatalogSparseInt8 => "catalog_sparse_int8",
            Workload::CatalogDenseF32 => "catalog_dense_f32",
            Workload::ServeOpenF32 => "serve_open_f32",
            Workload::TrainEvalJoint => "train_eval_joint",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CatalogSparseF32 => "few candidates per record: backbone encoding of cache misses is >=75% of wall, so f32 GEMM/GELU/layer-norm/attention and tape overhead decide it; the AOA head does little",
            Workload::CatalogSparseInt8 => "same records and candidates on the int8 backend: only tensor::quant/simd differ, so an int8-kernel change shows here and an f32-kernel change does not",
            Workload::CatalogDenseF32 => "nearly all pairs of a small catalog: AOA+match-head scoring, cache hits (>99%) and window planning are >=70% of wall and the backbone is small",
            Workload::ServeOpenF32 => "one ServeEngine, one generator thread, working set 2x the cache: open loop at a fixed rate then a closed loop; queueing, flush policy, lazy tokenisation and cache rotation decide it",
            Workload::TrainEvalJoint => "train_matcher then evaluate on the joint [CLS] D1 [SEP] D2 [SEP] path: backward kernels, dropout, Adam and the aux ID heads run only here; inference-only changes must leave it unchanged",
        }
    }

    /// Whether this is one of the three `match_catalog` workloads.
    pub fn is_catalog(self) -> bool {
        matches!(
            self,
            Workload::CatalogSparseF32 | Workload::CatalogSparseInt8 | Workload::CatalogDenseF32
        )
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};
use Workload::{
    CatalogDenseF32 as D, CatalogSparseF32 as F, CatalogSparseInt8 as Q, ServeOpenF32 as S,
    TrainEvalJoint as T,
};

const EVERY: &[Workload] = &[F, Q, D, S, T];
const CATALOG: &[Workload] = &[F, Q, D];
const SPLIT: &[Workload] = &[F, Q, D, S];
const PLANNED: &[Workload] = &[F, Q, D, T];
const SERVE: &[Workload] = &[S];
const TRAIN: &[Workload] = &[T];
const INT8: &[Workload] = &[Q];

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`; per-layer names start with the layer's module.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// (`None` for per-layer metrics, which carry no bound).
    pub bound: Option<f64>,
    /// Workloads that exercise the metric; elsewhere it prints as 0.
    pub on: &'static [Workload],
}

impl MetricDef {
    /// Whether `w` exercises this metric.
    pub fn applies(&self, w: Workload) -> bool {
        self.on.contains(&w)
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        on: EVERY,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [Workload],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        on,
    }
}

/// End-to-end metrics. Every workload reports all of them (the driver's
/// contract), so each is defined in terms every workload has: see
/// `benchmark/README.md` for what the operation is on each workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("pairs_per_s", "1/s", Higher, 0.25),
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("lat_tail_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // core::blocking
    layer("blocking.build_s", "s", Lower, CATALOG),
    layer("blocking.candidates_s", "s", Lower, CATALOG),
    layer("blocking.candidates", "count", Lower, CATALOG),
    layer("blocking.candidates_per_record", "count", Lower, CATALOG),
    layer("blocking.recall", "ratio", Higher, CATALOG),
    layer("blocking.pair_precision", "ratio", Higher, CATALOG),
    layer("blocking.stop_keys", "count", Lower, CATALOG),
    // tokenizer + core::pipeline
    layer("tokenizer.single_records_per_s", "1/s", Higher, SPLIT),
    layer("tokenizer.pair_encodes_per_s", "1/s", Higher, EVERY),
    layer("tokenizer.tokens_per_record", "count", Lower, EVERY),
    layer("tokenizer.truncated_share", "ratio", Lower, EVERY),
    // core::enc_cache
    layer("enc_cache.lookups", "count", Lower, SPLIT),
    layer("enc_cache.hits", "count", Higher, SPLIT),
    layer("enc_cache.misses", "count", Lower, SPLIT),
    layer("enc_cache.hit_rate", "ratio", Higher, SPLIT),
    layer("enc_cache.inserts", "count", Lower, SPLIT),
    layer("enc_cache.rotations", "count", Lower, SPLIT),
    layer("enc_cache.get_ns_p50", "ns", Lower, SPLIT),
    layer("enc_cache.insert_ns_p50", "ns", Lower, SPLIT),
    // core::batching
    layer(
        "batching.encode_sub_batches_per_window",
        "count",
        Lower,
        PLANNED,
    ),
    layer(
        "batching.score_sub_batches_per_window",
        "count",
        Lower,
        CATALOG,
    ),
    layer("batching.mean_sub_batch", "count", Higher, PLANNED),
    layer("batching.plan_s", "s", Lower, PLANNED),
    // core::models
    layer("models.encode_records_per_s", "1/s", Higher, SPLIT),
    layer("models.encode_tokens_per_s", "1/s", Higher, SPLIT),
    layer("models.score_pairs_per_s", "1/s", Higher, SPLIT),
    layer("models.joint_pairs_per_s", "1/s", Higher, TRAIN),
    layer("models.nonfinite", "count", Lower, EVERY),
    // core::catalog
    layer("catalog.blocking_s", "s", Lower, CATALOG),
    layer("catalog.tokenize_s", "s", Lower, CATALOG),
    layer("catalog.encode_s", "s", Lower, CATALOG),
    layer("catalog.score_s", "s", Lower, CATALOG),
    layer("catalog.other_s", "s", Lower, CATALOG),
    layer("catalog.encode_share", "ratio", Lower, CATALOG),
    layer("catalog.score_share", "ratio", Lower, CATALOG),
    layer("catalog.encodes", "count", Lower, CATALOG),
    layer("catalog.encodes_per_pair", "ratio", Lower, CATALOG),
    layer("catalog.encode_overhead_ratio", "ratio", Lower, CATALOG),
    layer("catalog.score_overhead_ratio", "ratio", Lower, CATALOG),
    layer("catalog.matches_share", "ratio", Higher, CATALOG),
    layer("catalog.int8_max_abs_dprob", "prob", Lower, INT8),
    layer("catalog.int8_decision_flips", "count", Lower, INT8),
    // tensor: profiler self time under the workload's model phases
    layer("tensor.linear_s", "s", Lower, EVERY),
    layer("tensor.linear_bias_gelu_s", "s", Lower, EVERY),
    layer("tensor.attention_scores_s", "s", Lower, EVERY),
    layer("tensor.layer_norm_s", "s", Lower, EVERY),
    layer("tensor.softmax_s", "s", Lower, EVERY),
    layer("tensor.aoa_ops_s", "s", Lower, EVERY),
    layer("tensor.linear_q8_s", "s", Lower, INT8),
    layer("tensor.linear_q8_gelu_s", "s", Lower, INT8),
    layer("tensor.other_ops_s", "s", Lower, EVERY),
    layer("tensor.op_coverage", "ratio", Higher, EVERY),
    layer("tensor.tape_nodes", "count", Lower, EVERY),
    layer("tensor.non_op_s", "s", Lower, EVERY),
    layer("tensor.pool_hit_rate", "ratio", Higher, EVERY),
    // tensor: direct kernel probes (properties of this core and build)
    layer("tensor.peak_f32_gflops", "GFLOP/s", Higher, EVERY),
    layer("tensor.peak_i8_gops", "GOP/s", Higher, EVERY),
    layer("tensor.gemm_nn_gflops_proj", "GFLOP/s", Higher, EVERY),
    layer("tensor.gemm_nn_gflops_ffn", "GFLOP/s", Higher, EVERY),
    layer("tensor.gemm_nt_gflops_qkt", "GFLOP/s", Higher, EVERY),
    layer("tensor.gemm_nn_gflops_odd", "GFLOP/s", Higher, EVERY),
    layer("tensor.gemm_q8_gops_proj", "GOP/s", Higher, EVERY),
    layer("tensor.gemm_q8_gops_ffn", "GOP/s", Higher, EVERY),
    layer("tensor.linear_q8_gops_ffn", "GOP/s", Higher, EVERY),
    layer("tensor.gemm_f32_peak_share", "ratio", Higher, EVERY),
    layer("tensor.gemm_q8_peak_share", "ratio", Higher, EVERY),
    layer("tensor.gelu_tanh_ns_per_elem", "ns", Lower, EVERY),
    layer("tensor.gelu_span_ns_per_elem", "ns", Lower, EVERY),
    layer("tensor.quantize_rows_ns_per_elem", "ns", Lower, EVERY),
    // serve
    layer("serve.lat_p50_ms_mid", "ms", Lower, SERVE),
    layer("serve.lat_p99_ms_mid", "ms", Lower, SERVE),
    layer("serve.lat_p50_ms_hi", "ms", Lower, SERVE),
    layer("serve.lat_p99_ms_hi", "ms", Lower, SERVE),
    layer("serve.sat_pairs_per_s", "1/s", Higher, SERVE),
    layer("serve.flushes", "count", Lower, SERVE),
    layer("serve.mean_batch", "count", Higher, SERVE),
    layer("serve.batch_p50", "count", Higher, SERVE),
    layer("serve.flush_ms_p50", "ms", Lower, SERVE),
    layer("serve.flush_ms_per_pair", "ms", Lower, SERVE),
    layer("serve.queue_wait_ms_p50_mid", "ms", Lower, SERVE),
    layer("serve.queue_wait_ms_p50_hi", "ms", Lower, SERVE),
    layer("serve.service_ms_p50_mid", "ms", Lower, SERVE),
    layer("serve.service_ms_p50_hi", "ms", Lower, SERVE),
    layer("serve.submit_ns_p50", "ns", Lower, SERVE),
    layer("serve.encodes", "count", Lower, SERVE),
    layer("serve.cache_hit_rate", "ratio", Higher, SERVE),
    layer("serve.peak_queue_depth", "count", Lower, SERVE),
    layer("serve.expired", "count", Lower, SERVE),
    layer("serve.rejected", "count", Lower, SERVE),
    layer("serve.shed", "count", Lower, SERVE),
    layer("serve.failed", "count", Lower, SERVE),
    layer("serve.max_ok_rate", "1/s", Higher, SERVE),
    layer("serve.snapshot_p50_ratio", "ratio", Higher, SERVE),
    // core::train
    layer("train.train_examples_per_s", "1/s", Higher, TRAIN),
    layer("train.eval_pairs_per_s", "1/s", Higher, TRAIN),
    layer("train.forward_s", "s", Lower, TRAIN),
    layer("train.backward_s", "s", Lower, TRAIN),
    layer("train.optim_s", "s", Lower, TRAIN),
    layer("train.eval_s", "s", Lower, TRAIN),
    layer("train.steps", "count", Lower, TRAIN),
    layer("train.tokens_per_s", "1/s", Higher, TRAIN),
    layer("train.final_loss", "loss", Lower, TRAIN),
    // the benchmark's own load generator and tracing
    layer("loadgen.sent", "count", Higher, SERVE),
    layer("loadgen.achieved_rate_mid", "1/s", Higher, SERVE),
    layer("loadgen.achieved_rate_hi", "1/s", Higher, SERVE),
    layer("loadgen.late_ms_p99", "ms", Lower, SERVE),
    layer("bench.fail_share", "ratio", Lower, EVERY),
    layer("bench.trace_overhead_share", "ratio", Lower, EVERY),
    layer("bench.span_count", "count", Lower, EVERY),
];

/// The measured values of one run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct MetricSet {
    values: Vec<(&'static str, f64)>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a metric. Panics on a second value for one name: each metric
    /// is emitted exactly once per run, and a duplicate is a bug here.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} emitted twice");
        self.values.push((name, value));
    }

    /// The recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Names recorded so far.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.values.iter().map(|&(n, _)| n)
    }

    /// Resolves the set against a declared list for one workload: every
    /// declared metric gets a value (0 where the workload does not exercise
    /// it). Errors name a metric that applies but was not measured, was
    /// measured but not declared, or is not finite.
    pub fn resolve(
        &self,
        defs: &'static [MetricDef],
        w: Workload,
    ) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        if let Some(stray) = self.names().find(|n| !defs.iter().any(|d| d.name == *n)) {
            return Err(format!("metric {stray} is measured but not declared"));
        }
        defs.iter()
            .map(|d| match (self.get(d.name), d.applies(w)) {
                (Some(v), true) if v.is_finite() => Ok((d, v)),
                (Some(v), true) => Err(format!("metric {} is not finite ({v})", d.name)),
                (Some(_), false) => Err(format!(
                    "metric {} measured on {}, which does not declare it",
                    d.name,
                    w.name()
                )),
                (None, true) => Err(format!(
                    "metric {} applies to {} but was not measured",
                    d.name,
                    w.name()
                )),
                (None, false) => Ok((d, 0.0)),
            })
            .collect()
    }
}

/// The `metrics` object of the result line: `{name: {value, unit}}`.
pub fn metrics_json(resolved: &[(&'static MetricDef, f64)]) -> Value {
    object(resolved.iter().map(|(d, v)| {
        let body = object([("value", Value::Float(*v)), ("unit", text(d.unit))]);
        (d.name, body)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(!d.name.is_empty() && d.name.len() <= 64);
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == Lower));
    }

    #[test]
    fn resolve_fills_zero_only_where_a_metric_does_not_apply() {
        let mut m = MetricSet::new();
        m.put("catalog.int8_max_abs_dprob", 0.001);
        const DEFS: &[MetricDef] = &[layer("catalog.int8_max_abs_dprob", "prob", Lower, INT8)];
        let defs = DEFS;
        assert_eq!(m.resolve(defs, Q).unwrap()[0].1, 0.001);
        assert!(m.resolve(defs, F).is_err(), "measured where not declared");
        assert_eq!(MetricSet::new().resolve(defs, F).unwrap()[0].1, 0.0);
        assert!(
            MetricSet::new().resolve(defs, Q).is_err(),
            "declared but not measured"
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}", w.name());
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
