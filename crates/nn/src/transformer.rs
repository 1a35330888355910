//! A miniature BERT: learned token/position/segment embeddings and a stack
//! of post-layer-norm transformer encoder layers.
//!
//! Architecturally this is `bert-base-uncased` scaled down to dimensions a
//! single CPU core can pre-train from scratch (see `DESIGN.md` §2); every
//! structural element of the original — WordPiece input ids, segment ids,
//! multi-head self-attention, GELU feed-forward, residual + LayerNorm, a
//! tanh pooler over `[CLS]` — is present so the EMBA/JointBERT heads built
//! on top match the paper exactly.

use emba_tensor::{Graph, RowGroups, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::attention::MultiHeadAttention;
use crate::eval::Ops;
use crate::layers::{Embedding, LayerNorm, Linear};

/// Hyperparameters of a [`BertEncoder`].
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BertConfig {
    /// WordPiece vocabulary size.
    pub vocab_size: usize,
    /// Hidden width of every layer.
    pub hidden: usize,
    /// Number of encoder layers.
    pub layers: usize,
    /// Attention heads per layer.
    pub heads: usize,
    /// Feed-forward inner width.
    pub ff_dim: usize,
    /// Maximum sequence length (learned position table size).
    pub max_len: usize,
    /// Dropout probability applied to embeddings, attention, and FFN.
    pub dropout: f32,
}

impl BertConfig {
    /// The repo's stand-in for BERT-base: 4 layers × 128 dims × 4 heads.
    pub fn base(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden: 128,
            layers: 4,
            heads: 4,
            ff_dim: 256,
            max_len: 128,
            dropout: 0.1,
        }
    }

    /// Stand-in for BERT-small (the paper's EMBA (SB) variant): fewer layers
    /// and a narrower hidden width.
    pub fn small(vocab_size: usize) -> Self {
        Self {
            hidden: 64,
            layers: 2,
            heads: 4,
            ff_dim: 128,
            ..Self::base(vocab_size)
        }
    }

    /// Stand-in for distilBERT (the paper's EMBA (DB) variant): half the
    /// layers at the full hidden width.
    pub fn distil(vocab_size: usize) -> Self {
        Self {
            layers: 2,
            ..Self::base(vocab_size)
        }
    }

    /// A micro config for unit tests.
    pub fn tiny(vocab_size: usize) -> Self {
        Self {
            vocab_size,
            hidden: 16,
            layers: 1,
            heads: 2,
            ff_dim: 32,
            max_len: 32,
            dropout: 0.0,
        }
    }
}

/// GELU feed-forward block: `Linear -> GELU -> Linear`.
#[derive(Debug)]
struct FeedForward {
    up: Linear,
    down: Linear,
}

impl FeedForward {
    fn new<R: Rng + ?Sized>(hidden: usize, ff_dim: usize, rng: &mut R) -> Self {
        Self {
            up: Linear::new(hidden, ff_dim, rng),
            down: Linear::new(ff_dim, hidden, rng),
        }
    }

    fn forward<O: Ops>(&self, o: &mut O, x: &O::V) -> O::V {
        let h = o.linear(&self.up, x, true);
        o.linear(&self.down, &h, false)
    }
}

crate::module_params!(FeedForward: up, down);

/// One post-LN transformer encoder layer.
#[derive(Debug)]
struct EncoderLayer {
    attention: MultiHeadAttention,
    attn_norm: LayerNorm,
    ff: FeedForward,
    ff_norm: LayerNorm,
    dropout_p: f32,
}

impl EncoderLayer {
    fn new<R: Rng + ?Sized>(cfg: &BertConfig, rng: &mut R) -> Self {
        Self {
            attention: MultiHeadAttention::new(cfg.hidden, cfg.heads, cfg.dropout, rng),
            attn_norm: LayerNorm::new(cfg.hidden),
            ff: FeedForward::new(cfg.hidden, cfg.ff_dim, rng),
            ff_norm: LayerNorm::new(cfg.hidden),
            dropout_p: cfg.dropout,
        }
    }

    /// The layer over the packed rows `x`, and its attention probabilities
    /// (see [`MultiHeadAttention::forward`]).
    fn forward<O: Ops>(&self, o: &mut O, x: O::V, groups: &RowGroups) -> (O::V, Vec<O::V>) {
        let _scope = emba_tensor::prof::scope("layer");
        let (attn_out, probs) = self.attention.forward(o, &x, groups);
        let x = o.add_layer_norm(&self.attn_norm, x, attn_out);
        let ff_out = {
            let _ffn_scope = emba_tensor::prof::scope("ffn");
            let ff_out = self.ff.forward(o, &x);
            o.dropout(ff_out, self.dropout_p)
        };
        (o.add_layer_norm(&self.ff_norm, x, ff_out), probs)
    }
}

crate::module_params!(EncoderLayer: attention, attn_norm, ff, ff_norm);

/// The miniature BERT encoder.
#[derive(Debug)]
pub struct BertEncoder {
    cfg: BertConfig,
    token_emb: Embedding,
    position_emb: Embedding,
    segment_emb: Embedding,
    emb_norm: LayerNorm,
    layers: Vec<EncoderLayer>,
    pooler: Linear,
}

impl BertEncoder {
    /// Randomly initialized encoder for `cfg`.
    pub fn new<R: Rng + ?Sized>(cfg: BertConfig, rng: &mut R) -> Self {
        let layers = (0..cfg.layers).map(|_| EncoderLayer::new(&cfg, rng)).collect();
        Self {
            token_emb: Embedding::new(cfg.vocab_size, cfg.hidden, rng),
            position_emb: Embedding::new(cfg.max_len, cfg.hidden, rng),
            segment_emb: Embedding::new(2, cfg.hidden, rng),
            emb_norm: LayerNorm::new(cfg.hidden),
            pooler: Linear::new(cfg.hidden, cfg.hidden, rng),
            layers,
            cfg,
        }
    }

    /// The encoder's configuration.
    pub fn config(&self) -> &BertConfig {
        &self.cfg
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.cfg.hidden
    }

    /// Layer `layer`'s query projection — the one linear layer reachable
    /// from outside, so callers can observe [`Linear::quantized_weight`]
    /// caching on a weight every encode reads.
    ///
    /// # Panics
    ///
    /// Panics if there is no layer `layer`.
    pub fn query_projection(&self, layer: usize) -> &Linear {
        self.layers[layer].attention.query()
    }

    /// Encodes a batch of token sequences in one row-packed forward pass.
    ///
    /// Each `(token_ids, segment_ids)` pair is one sequence; sequences are
    /// packed row-wise into a `[ΣT, hidden]` activation matrix and attended
    /// block-diagonally (a sequence never attends across the batch).
    /// Position ids restart at 0 for every sequence. Returns the final-layer
    /// token rows, the sequences' row ranges and the **last** layer's
    /// per-head `[ΣT, W]` attention probabilities (`W` = longest sequence;
    /// padding columns are zero). The `[CLS]` pooler is not part of it: a
    /// head that reads the pooled form asks [`BertEncoder::pool`] for it.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or any sequence is empty, too long, or
    /// has mismatched id slices.
    pub fn forward<O: Ops>(&self, o: &mut O, seqs: &[(&[usize], &[usize])]) -> (O::V, RowGroups, Vec<O::V>) {
        let Packed { ids, positions, segments, groups } = self.pack(seqs);
        let _scope = emba_tensor::prof::scope("bert");

        let tok = o.embedding(&self.token_emb, &ids);
        let pos = o.embedding(&self.position_emb, &positions);
        let seg = o.embedding(&self.segment_emb, &segments);
        let tok_pos = o.add(tok, pos);
        let sum = o.add(tok_pos, seg);
        let x = o.layer_norm(&self.emb_norm, sum);
        let mut x = o.dropout(x, self.cfg.dropout);

        let mut last_attention = Vec::new();
        for layer in &self.layers {
            // The previous layer's probabilities go before this layer's come.
            last_attention.clear();
            (x, last_attention) = layer.forward(o, x, &groups);
        }
        (x, groups, last_attention)
    }

    /// BERT's pooler on the tape: `tanh(W · h_[CLS] + b)` for each sequence
    /// of the packed `[ΣT, hidden]` `tokens` laid out by `groups`, as a
    /// `[B, hidden]` matrix (row `i` belongs to sequence `i`).
    pub fn pool(&self, g: &Graph, tokens: Var, groups: &RowGroups) -> Var {
        let starts: Vec<usize> = (0..groups.len()).map(|i| groups.start(i)).collect();
        let cls = g.gather_rows(tokens, &starts);
        g.tanh(self.pooler.forward(g, cls))
    }

    /// Row-packs `seqs`: ids, positions restarting at 0 per sequence,
    /// segments and the row ranges, each sequence checked.
    fn pack(&self, seqs: &[(&[usize], &[usize])]) -> Packed {
        assert!(!seqs.is_empty(), "cannot encode an empty batch");
        let total: usize = seqs.iter().map(|(ids, _)| ids.len()).sum();
        let mut ids = Vec::with_capacity(total);
        let mut positions = Vec::with_capacity(total);
        let mut segments = Vec::with_capacity(total);
        let mut lens = Vec::with_capacity(seqs.len());
        for (token_ids, segment_ids) in seqs {
            let len = token_ids.len();
            assert!(len > 0, "cannot encode an empty sequence");
            assert!(
                len <= self.cfg.max_len,
                "sequence length {len} exceeds max_len {}",
                self.cfg.max_len
            );
            assert_eq!(
                segment_ids.len(),
                len,
                "segment ids length {} != token ids length {len}",
                segment_ids.len()
            );
            ids.extend_from_slice(token_ids);
            positions.extend(0..len);
            segments.extend_from_slice(segment_ids);
            lens.push(len);
        }
        Packed { ids, positions, segments, groups: RowGroups::from_lens(&lens) }
    }
}

/// A row-packed batch of sequences (see [`BertEncoder::pack`]).
struct Packed {
    ids: Vec<usize>,
    positions: Vec<usize>,
    segments: Vec<usize>,
    groups: RowGroups,
}

crate::module_params!(BertEncoder: token_emb, position_emb, segment_emb, emb_norm, layers, pooler);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Tape;
    use crate::param::Module;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoder(seed: u64) -> BertEncoder {
        let mut rng = StdRng::seed_from_u64(seed);
        BertEncoder::new(BertConfig::tiny(50), &mut rng)
    }

    /// Eval-mode [`BertEncoder::forward`] on the tape.
    fn forward_eval(enc: &BertEncoder, g: &Graph, seqs: &[(&[usize], &[usize])]) -> (Var, RowGroups, Vec<Var>) {
        enc.forward(&mut Tape::new(g, None), seqs)
    }

    /// One sequence through [`forward_eval`].
    fn forward_one(enc: &BertEncoder, g: &Graph, ids: &[usize], segs: &[usize]) -> (Var, RowGroups, Vec<Var>) {
        forward_eval(enc, g, &[(ids, segs)])
    }

    #[test]
    fn forward_shapes() {
        let enc = encoder(0);
        let g = Graph::new();
        let (tokens, _, last_attention) = forward_one(&enc, &g, &[2, 5, 9, 3], &[0, 0, 1, 1]);
        assert_eq!(g.value(tokens).shape(), (4, 16));
        let pooled = enc.pool(&g, tokens, &RowGroups::from_lens(&[4]));
        assert_eq!(g.value(pooled).shape(), (1, 16));
        assert_eq!(last_attention.len(), 2);
    }

    #[test]
    fn deterministic_in_eval_mode() {
        let enc = encoder(7);
        let run = || {
            let g = Graph::new();
            let (tokens, ..) = forward_one(&enc, &g, &[1, 2, 3], &[0, 0, 0]);
            g.value(tokens)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn segments_change_output() {
        let enc = encoder(3);
        let g = Graph::new();
        let (a, ..) = forward_one(&enc, &g, &[1, 2], &[0, 0]);
        let (b, ..) = forward_one(&enc, &g, &[1, 2], &[0, 1]);
        assert_ne!(g.value(a), g.value(b));
    }

    #[test]
    fn all_params_receive_gradient() {
        let mut enc = encoder(5);
        let g = Graph::new();
        let (tokens, ..) = forward_one(&enc, &g, &[1, 2, 3, 4], &[0, 0, 1, 1]);
        let pooled = enc.pool(&g, tokens, &RowGroups::from_lens(&[4]));
        let combined = g.concat_rows(&[tokens, pooled]);
        let sq = g.mul(combined, combined);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        enc.accumulate_gradients(&grads);
        let mut zero_params = 0usize;
        let mut total = 0usize;
        enc.visit(&mut |p| {
            total += 1;
            if p.grad.norm() == 0.0 {
                zero_params += 1;
            }
        });
        // Embedding tables only receive gradient at gathered rows; they are
        // still nonzero overall. Every parameter tensor should be touched.
        assert_eq!(zero_params, 0, "{zero_params}/{total} params got no gradient");
    }

    #[test]
    fn batched_matches_per_example() {
        let enc = encoder(11);
        let g = Graph::new();
        let seqs: [(&[usize], &[usize]); 3] = [
            (&[2, 5, 9, 3], &[0, 0, 1, 1]),
            (&[1, 2], &[0, 1]),
            (&[7, 7, 7, 1, 4], &[0, 0, 0, 1, 1]),
        ];
        let (batch, groups, batch_attention) = forward_eval(&enc, &g, &seqs);
        let tokens = g.value(batch);
        let pooled = g.value(enc.pool(&g, batch, &groups));
        assert_eq!(tokens.shape(), (11, 16));
        assert_eq!(pooled.shape(), (3, 16));
        for p in &batch_attention {
            assert_eq!(g.value(*p).shape(), (11, 5));
        }
        // Bit for bit, whatever the length: every GEMM row, softmax row and
        // layer-norm row is computed the same alone as in a batch — also for
        // sequences shorter than one 6-row GEMM tile.
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, (ids, segs)) in seqs.iter().enumerate() {
            let (single, _, single_attention) = forward_one(&enc, &g, ids, segs);
            let st = g.value(single);
            let (r0, r1) = groups.range(i);
            for (r, rr) in (r0..r1).enumerate() {
                assert_eq!(bits(tokens.row_slice(rr)), bits(st.row_slice(r)), "tokens differ for sequence {i}");
            }
            let single_pooled = enc.pool(&g, single, &RowGroups::from_lens(&[ids.len()]));
            assert_eq!(bits(pooled.row_slice(i)), bits(g.value(single_pooled).data()), "pooled differs for sequence {i}");
            // Per-head probabilities of the last layer: `[T, T]` alone, the
            // same values in the sequence's rows of the batch's `[ΣT, W]`.
            assert_eq!(single_attention.len(), batch_attention.len());
            for (ps, pb) in single_attention.iter().zip(&batch_attention) {
                let (ps, pb) = (g.value(*ps), g.value(*pb));
                assert_eq!(ps.shape(), (ids.len(), ids.len()));
                for (r, rr) in (r0..r1).enumerate() {
                    assert_eq!(bits(ps.row_slice(r)), bits(&pb.row_slice(rr)[..ids.len()]), "head probabilities differ for sequence {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds max_len")]
    fn rejects_overlong_sequence() {
        let enc = encoder(8);
        let g = Graph::new();
        let ids: Vec<usize> = (0..40).map(|i| i % 10).collect();
        let segs = vec![0; 40];
        let _ = forward_one(&enc, &g, &ids, &segs);
    }

    #[test]
    fn config_presets_are_consistent() {
        let base = BertConfig::base(1000);
        let small = BertConfig::small(1000);
        let distil = BertConfig::distil(1000);
        assert!(small.hidden < base.hidden && small.layers < base.layers);
        assert_eq!(distil.hidden, base.hidden);
        assert!(distil.layers < base.layers);
    }

    #[test]
    fn param_count_scales_with_config() {
        let mut rng = StdRng::seed_from_u64(10);
        let base = BertEncoder::new(BertConfig::base(500), &mut rng);
        let small = BertEncoder::new(BertConfig::small(500), &mut rng);
        assert!(base.num_params() > 2 * small.num_params());
    }
}
