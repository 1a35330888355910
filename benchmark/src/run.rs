//! What a workload is asked and what it answers, plus the pieces the three
//! workload kinds share: repeated set-up, and turning a profiler report into
//! the `tensor.` ledger.

use std::time::Instant;

use emba_tensor::pool::{self, PoolStats};
use emba_tensor::prof::ProfReport;
use serde_json::Value;

use crate::registry::{MetricSet, Workload};
use crate::setup::Ledger;
use crate::stats::median;

/// One invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the timed section measures.
    pub seconds: f64,
    /// The traced run (per-layer metrics) rather than the end-to-end run.
    pub trace: bool,
    /// Shrunk inputs, for the test suite; timings are not meaningful.
    pub tiny: bool,
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics measured (end-to-end ones, or per-layer ones in a traced run).
    pub metrics: MetricSet,
    /// Operations checked and failed.
    pub ledger: Ledger,
    /// Human-readable lines: sample counts, shape, kernel probes.
    pub notes: Vec<String>,
    /// Input sizes, for the environment block.
    pub sizes: Vec<(String, Value)>,
    /// Backend label the program reported.
    pub backend: String,
}

impl Outcome {
    /// Adds a size to the environment block.
    pub fn size(&mut self, name: &str, value: usize) {
        self.sizes
            .push((name.to_string(), Value::UInt(value as u64)));
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Runs `build` [`SETUP_REPEATS`] times (once in a traced run, which does
/// not report `setup_s`), keeps the last result and returns the median
/// seconds. Everything a workload needs before its first timed operation
/// happens inside `build`: input generation, tokenizer training, model
/// build, checkpoint capture, warm-up.
pub fn repeated_setup<T>(
    opts: &Options,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let repeats = if opts.trace || opts.tiny {
        1
    } else {
        SETUP_REPEATS
    };
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        drop(last.take());
        let start = Instant::now();
        last = Some(build()?);
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), median(&secs)))
}

/// Calls `op` until `seconds` have passed, at least `min_ops` times.
pub fn timed_loop(seconds: f64, min_ops: usize, mut op: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < min_ops || start.elapsed().as_secs_f64() < seconds {
        op();
        done += 1;
    }
}

/// Which model phases of a profiler report a workload's `tensor.` ledger
/// covers.
pub struct TensorScope<'a> {
    /// Keeps an op row (by its phase path).
    pub keep: &'a dyn Fn(&str) -> bool,
    /// Wall seconds of the covered phases, as the layer above measured them.
    pub phase_wall_s: f64,
    /// Whether the workload runs the int8 backend.
    pub int8: bool,
}

/// Records the profiler-derived `tensor.*` metrics: self time per op family
/// under the covered phases, coverage of the phase wall time, tape size, and
/// the scratch pool's hit rate over the traced section. Returns a failure
/// description if an f32 workload recorded quantized ops.
pub fn tensor_ledger(
    m: &mut MetricSet,
    report: &ProfReport,
    scope: &TensorScope<'_>,
    pool_before: PoolStats,
) -> Option<String> {
    let mut family = [0u64; 9];
    let mut nodes = 0u64;
    let mut q8_nodes = 0u64;
    for op in report.ops.iter().filter(|o| (scope.keep)(&o.path)) {
        let slot = match op.op {
            "linear" => 0,
            "linear_bias_gelu" => 1,
            "attention_scores" | "attention_scores_grouped" => 2,
            "layer_norm" => 3,
            "softmax_rows"
            | "softmax_cols"
            | "softmax_rows_grouped"
            | "softmax_cols_grouped"
            | "softmax_col_grouped"
            | "log_softmax_rows" => 4,
            "interaction_grouped" | "rowdot_grouped" | "weighted_sum_rows_grouped" => 5,
            "linear_q8" => 6,
            "linear_q8_gelu" => 7,
            _ => 8,
        };
        family[slot] += op.self_ns;
        if !op.backward {
            nodes += op.calls;
        }
        if slot == 6 || slot == 7 {
            q8_nodes += op.calls;
        }
    }
    let s = |ns: u64| ns as f64 / 1e9;
    let op_s: f64 = family.iter().map(|&ns| s(ns)).sum();
    m.put("tensor.linear_s", s(family[0]));
    m.put("tensor.linear_bias_gelu_s", s(family[1]));
    m.put("tensor.attention_scores_s", s(family[2]));
    m.put("tensor.layer_norm_s", s(family[3]));
    m.put("tensor.softmax_s", s(family[4]));
    m.put("tensor.aoa_ops_s", s(family[5]));
    if scope.int8 {
        m.put("tensor.linear_q8_s", s(family[6]));
        m.put("tensor.linear_q8_gelu_s", s(family[7]));
    }
    m.put(
        "tensor.other_ops_s",
        s(family[8])
            + if scope.int8 {
                0.0
            } else {
                s(family[6] + family[7])
            },
    );
    m.put("tensor.op_coverage", op_s / scope.phase_wall_s.max(1e-12));
    m.put("tensor.tape_nodes", nodes as f64);
    m.put("tensor.non_op_s", (scope.phase_wall_s - op_s).max(0.0));
    let now = pool::stats();
    let (hits, misses) = (now.hits - pool_before.hits, now.misses - pool_before.misses);
    m.put(
        "tensor.pool_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    (!scope.int8 && q8_nodes > 0)
        .then(|| format!("{q8_nodes} quantized ops recorded on an f32 workload"))
}
