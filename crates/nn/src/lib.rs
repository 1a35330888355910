//! Neural-network building blocks for the EMBA reproduction.
//!
//! Everything the paper's models need, implemented from scratch on top of
//! [`emba_tensor`]:
//!
//! * [`Param`]/[`Module`] — trainable parameters, each one leaf per
//!   [`Graph`](emba_tensor::Graph) it is bound in, and a deterministic
//!   visitor used by optimizers and checkpoints.
//! * [`Linear`], [`Embedding`], [`LayerNorm`] — the basic layers.
//! * [`MultiHeadAttention`], [`BertEncoder`] — a miniature BERT with
//!   token/position/segment embeddings, post-LN encoder layers, and a tanh
//!   pooler. The paper's `[CLS]`-based baselines read
//!   [`BertEncoder::pool`]; EMBA reads only the per-token outputs.
//! * [`GruCell`]/[`BiGru`] — the RNN substrate for the DeepMatcher baseline.
//! * [`Adam`], [`LinearSchedule`] — the paper's optimizer and LR schedule
//!   (linear decay with one epoch of warmup).
//! * [`eval`] — the forward-only executor: [`eval::Exec`] runs a
//!   [`Linear`] off the tape with the tape's bits, under either backend.
//! * [`mlm`] — the model side of masked-language-model pre-training
//!   (masking, prediction head, row-packed masked forward pass); the
//!   training loop is `emba_core::Trainer`'s.
//!
//! # Example: a tiny encoder forward pass
//!
//! ```
//! use emba_nn::{BertConfig, BertEncoder};
//! use emba_tensor::Graph;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let enc = BertEncoder::new(BertConfig::tiny(100), &mut rng);
//! let g = Graph::new();
//! let seq: (&[usize], &[usize]) = (&[2, 17, 42, 3], &[0, 0, 1, 1]);
//! let out = enc.forward_batch(&g, &[seq], false, &mut rng);
//! assert_eq!(g.value(out.tokens).shape(), (4, 16));
//! ```

mod attention;
pub mod eval;
mod gru;
mod layers;
pub mod mlm;
mod optim;
mod param;
pub mod skipgram;
mod transformer;

pub use attention::MultiHeadAttention;
pub use gru::{BiGru, GruCell};
pub use layers::{dropout, Embedding, LayerNorm, Linear};
pub use optim::{Adam, AdamState, AdamStateError, LinearSchedule, MomentPair};
pub use param::{clip_grad_norm, GraphStamp, Module, Param};
pub use skipgram::{pretrain_skipgram, SkipGramConfig};
pub use transformer::{BertBatchOutput, BertConfig, BertEncoder};
