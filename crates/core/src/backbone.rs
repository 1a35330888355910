//! Encoder backbones: the mini-BERT variants and the fastText-style encoder.
//!
//! The paper evaluates EMBA over four language-model backbones — BERT-base,
//! BERT-small (SB), distilBERT (DB), and fastText (FT) — plus a
//! RoBERTa-style single-task baseline. [`Backbone`] unifies them behind one
//! `encode_batch` call (and its tape-free twin `encode_eval`) so every
//! matcher is backbone-agnostic.

use emba_nn::{BertBatchOutput, BertConfig, BertEncoder, Linear, Module, Param};
use emba_tensor::{BackendKind, Graph, RowGroups, Tensor, Var};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Transformer dropout rate used when nothing overrides it — the BERT
/// default of 0.1, matching what [`emba_nn::BertConfig`]'s presets use.
pub const DEFAULT_DROPOUT: f32 = 0.1;

/// Which encoder architecture to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackboneKind {
    /// The BERT-base stand-in (4 layers × 128 dims at repo scale).
    Base,
    /// BERT-small stand-in: fewer layers, half width (the paper's SB).
    Small,
    /// distilBERT stand-in: half the layers, full width (the paper's DB).
    Distil,
    /// RoBERTa-style: BERT-base architecture without segment embeddings
    /// (RoBERTa drops the NSP segment signal).
    Roberta,
    /// fastText-style bag-of-subwords encoder (the paper's FT).
    FastText,
}

impl BackboneKind {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            BackboneKind::Base => "bert-base",
            BackboneKind::Small => "bert-small",
            BackboneKind::Distil => "distilbert",
            BackboneKind::Roberta => "roberta",
            BackboneKind::FastText => "fasttext",
        }
    }
}

/// fastText-style encoder: a subword embedding table; the sequence
/// representation is the token embeddings themselves and the pooled form is
/// a tanh projection of their mean. No position information — a bag of
/// subwords, as in the original.
#[derive(Debug)]
pub struct FastTextEncoder {
    embedding: emba_nn::Embedding,
    pool_proj: Linear,
}

impl FastTextEncoder {
    /// A fastText encoder with `dim`-wide embeddings.
    pub fn new<R: rand::Rng + ?Sized>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        Self {
            embedding: emba_nn::Embedding::new(vocab, dim, rng),
            pool_proj: Linear::new(dim, dim, rng),
        }
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.embedding.dim()
    }

    /// Mutable access to the subword embedding table (for skip-gram
    /// pre-training).
    pub fn embedding_mut(&mut self) -> &mut emba_nn::Embedding {
        &mut self.embedding
    }

    fn encode_batch(&self, g: &Graph, seqs: &[&[usize]]) -> BertBatchOutput {
        let (ids, groups) = Self::pack(seqs);
        BertBatchOutput {
            tokens: self.embedding.forward(g, &ids),
            last_attention: Vec::new(),
            groups,
        }
    }

    /// The pooled form: `tanh` of a projection of each sequence's mean.
    fn pool(&self, g: &Graph, tokens: Var, groups: &RowGroups) -> Var {
        let mean = g.mean_rows_grouped(tokens, groups); // [B, dim]
        g.tanh(self.pool_proj.forward(g, mean))
    }

    /// [`FastTextEncoder::encode_batch`]'s token rows with no tape: the
    /// embedding lookup itself.
    fn encode_eval(&self, seqs: &[&[usize]]) -> (Tensor, RowGroups) {
        let (ids, groups) = Self::pack(seqs);
        let mut tokens = vec![0.0; ids.len() * self.dim()];
        self.embedding.lookup_into(&ids, &mut tokens);
        (Tensor::from_vec(ids.len(), self.dim(), tokens), groups)
    }

    /// The sequences' ids back to back, and their row ranges.
    fn pack(seqs: &[&[usize]]) -> (Vec<usize>, RowGroups) {
        assert!(!seqs.is_empty(), "cannot encode an empty batch");
        assert!(seqs.iter().all(|seq| !seq.is_empty()), "cannot encode an empty sequence");
        let lens: Vec<usize> = seqs.iter().map(|seq| seq.len()).collect();
        (seqs.concat(), RowGroups::from_lens(&lens))
    }
}

emba_nn::module_params!(FastTextEncoder: embedding, pool_proj);

/// A unified encoder backbone.
//
// The variants differ greatly in size, but exactly one long-lived Backbone
// exists per model, so boxing the large variant would buy nothing.
#[allow(clippy::large_enum_variant)]
pub enum Backbone {
    /// Transformer variants. `use_segments = false` for the RoBERTa style.
    Bert {
        /// The encoder.
        encoder: BertEncoder,
        /// Whether segment ids are consumed (RoBERTa ignores them).
        use_segments: bool,
    },
    /// Bag-of-subwords.
    FastText(FastTextEncoder),
}

impl Backbone {
    /// Instantiates a backbone of the given kind over `vocab` subwords with
    /// sequences up to `max_len`, training with the given `dropout` rate
    /// (ignored by the dropout-free FastText encoder).
    pub fn new<R: rand::Rng + ?Sized>(
        kind: BackboneKind,
        vocab: usize,
        max_len: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        let bert = |mut cfg: BertConfig, use_segments: bool, rng: &mut R| {
            cfg.max_len = max_len;
            cfg.dropout = dropout;
            Backbone::Bert {
                encoder: BertEncoder::new(cfg, rng),
                use_segments,
            }
        };
        match kind {
            BackboneKind::Base => bert(BertConfig::base(vocab), true, rng),
            BackboneKind::Small => bert(BertConfig::small(vocab), true, rng),
            BackboneKind::Distil => bert(BertConfig::distil(vocab), true, rng),
            BackboneKind::Roberta => bert(BertConfig::base(vocab), false, rng),
            BackboneKind::FastText => {
                Backbone::FastText(FastTextEncoder::new(vocab, 128, rng))
            }
        }
    }

    /// Instantiates a backbone from an explicit BERT config (tests use it to
    /// pin sizes).
    pub fn from_bert_config<R: rand::Rng + ?Sized>(
        cfg: BertConfig,
        use_segments: bool,
        rng: &mut R,
    ) -> Self {
        Backbone::Bert {
            encoder: BertEncoder::new(cfg, rng),
            use_segments,
        }
    }

    /// Hidden width of the token representations.
    pub fn hidden(&self) -> usize {
        match self {
            Backbone::Bert { encoder, .. } => encoder.hidden(),
            Backbone::FastText(ft) => ft.dim(),
        }
    }

    /// Whether this backbone supports MLM pre-training (transformers only).
    pub fn bert_mut(&mut self) -> Option<&mut BertEncoder> {
        match self {
            Backbone::Bert { encoder, .. } => Some(encoder),
            Backbone::FastText(_) => None,
        }
    }

    /// The fastText encoder, when this backbone is one (for skip-gram
    /// pre-training of its embedding table).
    pub fn fasttext_mut(&mut self) -> Option<&mut FastTextEncoder> {
        match self {
            Backbone::Bert { .. } => None,
            Backbone::FastText(ft) => Some(ft),
        }
    }

    /// Encodes a batch of `(ids, segments)` sequences in one row-packed
    /// forward pass; sequences never attend across the batch. fastText
    /// returns no `last_attention`.
    pub fn encode_batch(
        &self,
        g: &Graph,
        seqs: &[(&[usize], &[usize])],
        train: bool,
        rng: &mut dyn RngCore,
    ) -> BertBatchOutput {
        match self {
            Backbone::Bert {
                encoder,
                use_segments,
            } => {
                with_bert_segments(*use_segments, seqs, |seqs| encoder.forward_batch(g, seqs, train, rng))
            }
            Backbone::FastText(ft) => {
                let ids: Vec<&[usize]> = seqs.iter().map(|&(ids, _)| ids).collect();
                ft.encode_batch(g, &ids)
            }
        }
    }

    /// The `[B, hidden]` pooled representations of the packed `tokens` laid
    /// out by `groups`, on the tape (row `i` = sequence `i`): BERT's tanh
    /// pooler over each `[CLS]` row, fastText's tanh projection of each
    /// sequence's mean. Only the heads that read `[CLS]` call it.
    pub fn pool(&self, g: &Graph, tokens: Var, groups: &RowGroups) -> Var {
        match self {
            Backbone::Bert { encoder, .. } => encoder.pool(g, tokens, groups),
            Backbone::FastText(ft) => ft.pool(g, tokens, groups),
        }
    }

    /// The token rows [`Backbone::encode_batch`] computes in eval mode, bit
    /// for bit, with no tape: the BERT variants through
    /// [`BertEncoder::encode_eval`] under `backend` (RoBERTa's segments
    /// zeroed as there), fastText through its embedding lookup. The third
    /// value is a one-sequence batch's summed last-layer attention, which
    /// only the BERT variants have.
    pub fn encode_eval(&self, seqs: &[(&[usize], &[usize])], backend: BackendKind) -> (Tensor, RowGroups, Option<Tensor>) {
        match self {
            Backbone::Bert { encoder, use_segments } => with_bert_segments(*use_segments, seqs, |seqs| encoder.encode_eval(seqs, backend)),
            Backbone::FastText(ft) => {
                let ids: Vec<&[usize]> = seqs.iter().map(|&(ids, _)| ids).collect();
                let (tokens, groups) = ft.encode_eval(&ids);
                (tokens, groups, None)
            }
        }
    }
}

/// Calls `f` with `seqs` as a BERT backbone reads them: every segment 0
/// unless `use_segments` (off for RoBERTa).
fn with_bert_segments<T>(use_segments: bool, seqs: &[(&[usize], &[usize])], f: impl FnOnce(&[(&[usize], &[usize])]) -> T) -> T {
    if use_segments {
        return f(seqs);
    }
    let zeros = vec![0; seqs.iter().map(|(ids, _)| ids.len()).max().unwrap_or(0)];
    let zeroed: Vec<(&[usize], &[usize])> = seqs.iter().map(|&(ids, _)| (ids, &zeros[..ids.len()])).collect();
    f(&zeroed)
}

impl Module for Backbone {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        match self {
            Backbone::Bert { encoder, .. } => encoder.visit(f),
            Backbone::FastText(ft) => ft.visit(f),
        }
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            Backbone::Bert { encoder, .. } => encoder.visit_mut(f),
            Backbone::FastText(ft) => ft.visit_mut(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One sequence through `encode_batch` in eval mode: its token rows, its
    /// pooled row, and how many last-layer attention heads it kept.
    fn encode_one(b: &Backbone, ids: &[usize], segments: &[usize]) -> (Tensor, Tensor, usize) {
        let g = Graph::new();
        let out = b.encode_batch(&g, &[(ids, segments)], false, &mut StdRng::seed_from_u64(0));
        let pooled = b.pool(&g, out.tokens, &out.groups);
        (g.value(out.tokens), g.value(pooled), out.last_attention.len())
    }

    fn encode_with(kind: BackboneKind) -> (usize, usize) {
        let mut rng = StdRng::seed_from_u64(0);
        let b = Backbone::new(kind, 100, 32, DEFAULT_DROPOUT, &mut rng);
        let (tokens, pooled, _) = encode_one(&b, &[2, 10, 11, 3, 12, 3], &[0, 0, 0, 0, 1, 1]);
        assert_eq!(pooled.shape(), (1, tokens.cols()));
        tokens.shape()
    }

    #[test]
    fn all_kinds_encode() {
        assert_eq!(encode_with(BackboneKind::Base), (6, 128));
        assert_eq!(encode_with(BackboneKind::Small), (6, 64));
        assert_eq!(encode_with(BackboneKind::Distil), (6, 128));
        assert_eq!(encode_with(BackboneKind::Roberta), (6, 128));
        assert_eq!(encode_with(BackboneKind::FastText), (6, 128));
    }

    #[test]
    fn roberta_ignores_segments() {
        let mut rng = StdRng::seed_from_u64(1);
        let b = Backbone::new(BackboneKind::Roberta, 50, 16, DEFAULT_DROPOUT, &mut rng);
        let (a, ..) = encode_one(&b, &[2, 5, 3], &[0, 0, 0]);
        let (c, ..) = encode_one(&b, &[2, 5, 3], &[0, 1, 1]);
        assert_eq!(a, c);
    }

    #[test]
    fn bert_respects_segments() {
        let mut rng = StdRng::seed_from_u64(2);
        let b = Backbone::new(BackboneKind::Small, 50, 16, DEFAULT_DROPOUT, &mut rng);
        let (a, ..) = encode_one(&b, &[2, 5, 3], &[0, 0, 0]);
        let (c, ..) = encode_one(&b, &[2, 5, 3], &[0, 1, 1]);
        assert_ne!(a, c);
    }

    #[test]
    fn fasttext_has_no_attention_and_no_position() {
        let mut rng = StdRng::seed_from_u64(3);
        let b = Backbone::new(BackboneKind::FastText, 50, 16, DEFAULT_DROPOUT, &mut rng);
        let (_, p1, heads) = encode_one(&b, &[5, 6], &[0, 0]);
        assert_eq!(heads, 0);
        // Bag-of-words: permuting ids permutes token rows but leaves the
        // pooled mean unchanged.
        let (_, p2, _) = encode_one(&b, &[6, 5], &[0, 0]);
        for (a, c) in p1.data().iter().zip(p2.data()) {
            assert!((a - c).abs() < 1e-5);
        }
    }

    #[test]
    fn encode_eval_is_encode_batch_for_every_kind() {
        let seqs: [(&[usize], &[usize]); 2] = [(&[2, 10, 11, 3, 12, 3], &[0, 0, 0, 0, 1, 1]), (&[7], &[1])];
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for kind in [BackboneKind::Base, BackboneKind::Small, BackboneKind::Distil, BackboneKind::Roberta, BackboneKind::FastText] {
            let mut rng = StdRng::seed_from_u64(5);
            let b = Backbone::new(kind, 100, 32, DEFAULT_DROPOUT, &mut rng);
            for backend in [BackendKind::F32, BackendKind::Int8] {
                let g = Graph::new();
                let want = {
                    let _backend = emba_tensor::backend::install(backend);
                    g.value(b.encode_batch(&g, &seqs, false, &mut rng).tokens)
                };
                let (got, groups, _) = b.encode_eval(&seqs, backend);
                assert_eq!(groups.lens(), [6, 1]);
                assert_eq!(bits(&got), bits(&want), "{kind:?} under {backend:?}");
            }
        }
    }

    #[test]
    fn param_counts_ordered_by_capacity() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = Backbone::new(BackboneKind::Base, 200, 32, DEFAULT_DROPOUT, &mut rng);
        let small = Backbone::new(BackboneKind::Small, 200, 32, DEFAULT_DROPOUT, &mut rng);
        let distil = Backbone::new(BackboneKind::Distil, 200, 32, DEFAULT_DROPOUT, &mut rng);
        assert!(base.num_params() > distil.num_params());
        assert!(distil.num_params() > small.num_params());
    }
}
