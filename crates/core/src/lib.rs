//! EMBA: Entity Matching using Multi-Task Learning of BERT with
//! Attention-over-Attention — the paper's models, baselines, and training
//! protocol.
//!
//! This is the core crate of the reproduction. It provides:
//!
//! * [`aoa`] — the attention-over-attention module (§3.4);
//! * [`TokenAggregationHead`] — the learned token aggregation for the
//!   entity-ID auxiliary tasks (§3.3);
//! * [`TransformerMatcher`] — one parameterized architecture covering EMBA,
//!   JointBERT, every ablation (JointBERT-S/T/CT, EMBA-CLS, EMBA-SurfCon),
//!   and the single-task baselines (BERT, RoBERTa, DITTO, JointMatcher);
//! * [`DeepMatcher`] — the attribute-aligned RNN baseline;
//! * [`ModelKind`] — the registry/factory for all fifteen systems;
//! * [`Trainer`] / [`run_experiment`] — Algorithm 1 (dual-objective Adam
//!   training with warmup, linear decay, early stopping; the same loop runs
//!   MLM pre-training) and the 5-run protocol with Welch t-tests ([`stats`]).
//!
//! # Quickstart
//!
//! ```no_run
//! use emba_core::{run_experiment, ExperimentConfig, ModelKind, PretrainCache};
//! use emba_datagen::{build, DatasetId, Scale, WdcCategory, WdcSize};
//!
//! let ds = build(DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small), Scale::TEST, 7);
//! let cfg = ExperimentConfig::default();
//! let result = run_experiment(ModelKind::Emba, &ds, &cfg, &mut PretrainCache::new());
//! println!("EMBA F1 = {:.2} ± {:.2}", 100.0 * result.f1_mean, 100.0 * result.f1_std);
//! ```

pub mod aoa;
mod backbone;
pub mod batching;
pub mod blocking;
mod catalog;
mod checkpoint;
mod enc_cache;
mod deepmatcher;
mod error;
mod experiment;
mod heads;
mod kind;
mod lanes;
mod metrics;
mod models;
mod pipeline;
mod resume;
mod scorer;
pub mod stats;
mod store;
mod train;

pub use backbone::{Backbone, BackboneKind, FastTextEncoder, DEFAULT_DROPOUT};
pub use catalog::{
    match_catalog, CatalogMatchConfig, CatalogMatchReport, CatalogScorer, ScoredPair,
};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use enc_cache::{record_content_hash, record_hash, EncodingCache};
pub use deepmatcher::{DeepMatcher, DeepMatcherConfig};
pub use error::CoreError;
pub use experiment::{
    run_experiment, train_single, ExperimentConfig, ExperimentResult, Prediction, PretrainCache,
    TrainedMatcher,
};
pub use heads::{MatchHead, TokenAggregationHead};
pub use kind::ModelKind;
pub use metrics::{id_metrics, match_metrics, IdMetrics, MatchMetrics};
pub use models::{
    numeric_vocab_table, AuxStrategy, BatchOutput, EmStrategy, Inference, Matcher, TransformerMatcher,
};
pub use pipeline::{EncodedExample, PipelineConfig, TextPipeline};
pub use resume::{DurabilityConfig, TrainState};
pub use scorer::{PairScorer, Resolved};
pub use store::CheckpointStore;
pub use train::{
    evaluate, evaluate_observed, train_matcher_observed, EarlyStopper, EvalResult, StopVerdict,
    TrainConfig, TrainReport, Trainer,
};
