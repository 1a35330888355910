//! The repository's end-to-end benchmark.
//!
//! One EMBA model flows through every path the repository has
//! (`match_catalog` on f32 and int8, a `ServeEngine` under load, training
//! and joint-path evaluation) and one command prints, per workload, the
//! end-to-end metrics a user of the system would see and a per-layer ledger
//! saying where the time goes. Everything is measured from outside, through
//! the crates' public functions; nothing under `crates/` changes for it.
//!
//! See `benchmark/README.md` for the workloads, the metrics and how each
//! layer metric should move which end-to-end metric.

#![warn(missing_docs)]

pub mod catalog;
pub mod cli;
pub mod compare;
pub mod golden;
pub mod kernels;
pub mod layers;
pub mod loadgen;
pub mod registry;
pub mod run;
pub mod serve;
pub mod setup;
pub mod spans;
pub mod stats;
pub mod train;

use serde_json::Value;

/// A JSON object from `(key, value)` pairs, in order.
pub(crate) fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON string.
pub(crate) fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}
