//! Encoder backbones: the mini-BERT variants and the fastText-style encoder.
//!
//! The paper evaluates EMBA over four language-model backbones — BERT-base,
//! BERT-small (SB), distilBERT (DB), and fastText (FT) — plus a
//! RoBERTa-style single-task baseline. [`Backbone`] unifies them behind one
//! `encode` call, run on the tape or forward only (see [`emba_nn::eval`]),
//! so every matcher is backbone-agnostic.

use emba_nn::eval::{self, Buffer, Exec, Ops};
use emba_nn::{BertConfig, BertEncoder, Linear, Module, Param};
use emba_tensor::{RowGroups, Tensor};
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

    /// The token rows of `seqs` — their embeddings, nothing more — and the
    /// sequences' row ranges.
    fn forward<O: Ops>(&self, o: &mut O, seqs: &[&[usize]]) -> (O::V, RowGroups) {
        let (ids, groups) = Self::pack(seqs);
        (o.embedding(&self.embedding, &ids), groups)
    }

    /// The pooled form: `tanh` of a projection of each sequence's mean.
    fn pool<O: Ops>(&self, o: &mut O, tokens: &O::V, groups: &RowGroups) -> O::V {
        let mean = o.mean_rows_grouped(tokens, groups); // [B, dim]
        let projected = o.linear(&self.pool_proj, &mean, false);
        o.tanh(projected)
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
    /// forward pass run by `o`; sequences never attend across the batch.
    /// Returns the token rows, the sequences' row ranges and the last
    /// layer's per-head attention probabilities, which fastText does not
    /// have. RoBERTa reads every segment as 0.
    pub fn encode<O: Ops>(&self, o: &mut O, seqs: &[(&[usize], &[usize])]) -> (O::V, RowGroups, Vec<O::V>) {
        match self {
            Backbone::Bert { encoder, use_segments } => with_bert_segments(*use_segments, seqs, |seqs| encoder.forward(o, seqs)),
            Backbone::FastText(ft) => {
                let ids: Vec<&[usize]> = seqs.iter().map(|&(ids, _)| ids).collect();
                let (tokens, groups) = ft.forward(o, &ids);
                (tokens, groups, Vec::new())
            }
        }
    }

    /// The `[B, hidden]` pooled representations of the packed `tokens` laid
    /// out by `groups`, run by `o` (row `i` = sequence `i`): BERT's tanh
    /// pooler over each `[CLS]` row, fastText's tanh projection of each
    /// sequence's mean. Only the heads that read `[CLS]` call it.
    pub fn pool<O: Ops>(&self, o: &mut O, tokens: &O::V, groups: &RowGroups) -> O::V {
        match self {
            Backbone::Bert { encoder, .. } => encoder.pool(o, tokens, groups),
            Backbone::FastText(ft) => ft.pool(o, tokens, groups),
        }
    }

    /// [`Backbone::encode`] run forward only by `ex`: the tape's eval-mode
    /// token rows, bit for bit, with no graph node. The third value is a
    /// one-sequence batch's last-layer attention summed over heads, which
    /// only the BERT variants have.
    pub fn encode_eval(&self, ex: &mut Exec, seqs: &[(&[usize], &[usize])]) -> (Buffer, RowGroups, Option<Tensor>) {
        let (tokens, groups, attention) = self.encode(ex, seqs);
        let summed = (groups.len() == 1 && !attention.is_empty()).then(|| eval::sum_heads(attention.iter().map(Buffer::data), groups.total()));
        (tokens, groups, summed)
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
    use emba_nn::eval::Tape;
    use emba_tensor::{BackendKind, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One sequence through `encode` on the tape in eval mode: its token
    /// rows, its pooled row, and how many last-layer attention heads it kept.
    fn encode_one(b: &Backbone, ids: &[usize], segments: &[usize]) -> (Tensor, Tensor, usize) {
        let g = Graph::new();
        let mut tape = Tape::new(&g, None);
        let (tokens, groups, last_attention) = b.encode(&mut tape, &[(ids, segments)]);
        let pooled = b.pool(&mut tape, &tokens, &groups);
        (g.value(tokens), g.value(pooled), last_attention.len())
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

    /// `encode_eval` returns the tape's token rows for every kind, and
    /// summed attention exactly for one sequence on a BERT backbone.
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
                    g.value(b.encode(&mut Tape::new(&g, None), &seqs).0)
                };
                let (got, groups, attention) = b.encode_eval(&mut Exec::new(backend), &seqs);
                assert_eq!(groups.lens(), [6, 1]);
                assert_eq!(bits(&got.to_tensor()), bits(&want), "{kind:?} under {backend:?}");
                assert!(attention.is_none(), "{kind:?}: summed attention for a batch of two");
                let (_, _, one) = b.encode_eval(&mut Exec::new(backend), &seqs[..1]);
                assert_eq!(one.map(|a| a.shape()), (kind != BackboneKind::FastText).then_some((6, 6)), "{kind:?}: summed attention for one sequence");
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
