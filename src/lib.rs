//! # EMBA — Entity Matching using Multi-Task Learning of BERT with
//! # Attention-over-Attention
//!
//! A from-scratch Rust reproduction of Zhang, Sun & Ho (EDBT 2024). This
//! facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `emba-tensor` | dense f32 tensors + reverse-mode autodiff |
//! | [`nn`] | `emba-nn` | layers, mini-BERT, GRU, Adam, MLM pre-training |
//! | [`tokenizer`] | `emba-tokenizer` | WordPiece + record serialization |
//! | [`datagen`] | `emba-datagen` | the ten synthetic benchmark datasets |
//! | [`core`] | `emba-core` | EMBA + every baseline, training, metrics, stats |
//! | [`serve`] | `emba-serve` | long-lived match serving: request coalescing + deadlines |
//! | [`explain`] | `emba-explain` | LIME and attention analyses |
//! | [`trace`] | `emba-trace` | training-run observability: JSONL logs + summaries |
//!
//! See `examples/quickstart.rs` for a five-minute tour, the `emba-bench`
//! crate's `reproduce` binary for regenerating every table and figure of the
//! paper (its only job), and `benchmark/` for the end-to-end benchmark that
//! measures speed.
//!
//! ```no_run
//! use emba::core::{run_experiment, ExperimentConfig, ModelKind, PretrainCache};
//! use emba::datagen::{build, DatasetId, Scale, WdcCategory, WdcSize};
//!
//! let ds = build(DatasetId::Wdc(WdcCategory::Computers, WdcSize::Small), Scale::TEST, 7);
//! let cfg = ExperimentConfig::default();
//! let r = run_experiment(ModelKind::Emba, &ds, &cfg, &mut PretrainCache::new());
//! println!("EMBA F1 = {:.1}", 100.0 * r.f1_mean);
//! ```

pub use emba_core as core;
pub use emba_datagen as datagen;
pub use emba_explain as explain;
pub use emba_nn as nn;
pub use emba_serve as serve;
pub use emba_tensor as tensor;
pub use emba_tokenizer as tokenizer;
pub use emba_trace as trace;
