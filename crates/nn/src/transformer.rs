//! A miniature BERT: learned token/position/segment embeddings and a stack
//! of post-layer-norm transformer encoder layers.
//!
//! Architecturally this is `bert-base-uncased` scaled down to dimensions a
//! single CPU core can pre-train from scratch (see `DESIGN.md` §2); every
//! structural element of the original — WordPiece input ids, segment ids,
//! multi-head self-attention, GELU feed-forward, residual + LayerNorm, a
//! tanh pooler over `[CLS]` — is present so the EMBA/JointBERT heads built
//! on top match the paper exactly.

use emba_tensor::{fwd, BackendKind, Graph, RowGroups, Tensor, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::attention::{self, MultiHeadAttention};
use crate::eval::{self, Exec, Parts, Plan};
use crate::layers::{dropout, Embedding, LayerNorm, Linear};
use crate::param::{Module, Param};

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

    fn forward(&self, g: &Graph, x: Var) -> Var {
        let h = self.up.forward_gelu(g, x);
        self.down.forward(g, h)
    }
}

impl Module for FeedForward {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.up.visit(f);
        self.down.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.up.visit_mut(f);
        self.down.visit_mut(f);
    }
}

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

    fn forward<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        x: Var,
        groups: &RowGroups,
        train: bool,
        rng: &mut R,
    ) -> (Var, Vec<Var>) {
        let _scope = emba_tensor::prof::scope("layer");
        let (attn_out, probs) = self.attention.forward_batch_with_probs(g, x, groups, train, rng);
        let x = self.attn_norm.forward(g, g.add(x, attn_out));
        let ff_out = {
            let _ffn_scope = emba_tensor::prof::scope("ffn");
            let ff_out = self.ff.forward(g, x);
            dropout(g, ff_out, self.dropout_p, train, rng)
        };
        let x = self.ff_norm.forward(g, g.add(x, ff_out));
        (x, probs)
    }

    /// [`EncoderLayer::forward`] in eval mode with no tape: `x ← layer(x)`
    /// in place, through the plan's buffers.
    fn eval(&self, ex: &mut Exec, x: &mut [f32], groups: &RowGroups, p: &mut Parts<'_>) {
        let _scope = emba_tensor::prof::scope("layer");
        self.attention.eval(ex, x, groups, p);
        eval::add_layer_norm(&self.attn_norm, x, p.q, p.row);
        {
            let _ffn_scope = emba_tensor::prof::scope("ffn");
            let input = ex.input();
            ex.linear(&self.ff.up, x, input, p.ff, Some(&mut *p.pre));
            let hidden = ex.input();
            ex.linear(&self.ff.down, p.ff, hidden, p.k, None);
        }
        eval::add_layer_norm(&self.ff_norm, x, p.k, p.row);
    }
}

impl Module for EncoderLayer {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.attention.visit(f);
        self.attn_norm.visit(f);
        self.ff.visit(f);
        self.ff_norm.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.attention.visit_mut(f);
        self.attn_norm.visit_mut(f);
        self.ff.visit_mut(f);
        self.ff_norm.visit_mut(f);
    }
}

/// Output of one batched [`BertEncoder`] forward pass over `B` row-packed
/// sequences. The `[CLS]` pooler is not part of it: a head that reads the
/// pooled form asks [`BertEncoder::pool`] for it.
pub struct BertBatchOutput {
    /// `[ΣT, hidden]` final-layer token representations, row-packed in batch
    /// order with no padding.
    pub tokens: Var,
    /// Per-head `[ΣT, W]` grouped attention probabilities of the **last**
    /// layer (`W` = longest sequence in the batch; padding columns are zero).
    pub last_attention: Vec<Var>,
    /// Row ranges of each sequence inside the packed matrices.
    pub groups: RowGroups,
}

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
    /// Position ids restart at 0 for every sequence.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or any sequence is empty, too long, or
    /// has mismatched id slices.
    pub fn forward_batch<R: Rng + ?Sized>(
        &self,
        g: &Graph,
        seqs: &[(&[usize], &[usize])],
        train: bool,
        rng: &mut R,
    ) -> BertBatchOutput {
        let Packed { ids, positions, segments, groups } = self.pack(seqs);
        let _scope = emba_tensor::prof::scope("bert");

        let tok = self.token_emb.forward(g, &ids);
        let pos = self.position_emb.forward(g, &positions);
        let seg = self.segment_emb.forward(g, &segments);
        let sum = g.add(g.add(tok, pos), seg);
        let mut x = self.emb_norm.forward(g, sum);
        x = dropout(g, x, self.cfg.dropout, train, rng);

        let mut last_attention = Vec::new();
        for layer in &self.layers {
            let (next, probs) = layer.forward(g, x, &groups, train, rng);
            x = next;
            last_attention = probs;
        }
        BertBatchOutput {
            tokens: x,
            last_attention,
            groups,
        }
    }

    /// BERT's pooler on the tape: `tanh(W · h_[CLS] + b)` for each sequence
    /// of the packed `[ΣT, hidden]` `tokens` laid out by `groups`, as a
    /// `[B, hidden]` matrix (row `i` belongs to sequence `i`).
    pub fn pool(&self, g: &Graph, tokens: Var, groups: &RowGroups) -> Var {
        let starts: Vec<usize> = (0..groups.len()).map(|i| groups.start(i)).collect();
        let cls = g.gather_rows(tokens, &starts);
        g.tanh(self.pooler.forward(g, cls))
    }

    /// The `[ΣT, hidden]` token representations [`BertEncoder::forward_batch`]
    /// computes in eval mode, bit for bit, computed without a tape under
    /// `backend`, with the sequences' row ranges. For a batch of one
    /// sequence it also returns the last layer's per-head attention
    /// probabilities summed into one `[T, T]` matrix, the sum
    /// [`MultiHeadAttention::summed_probs`] takes of the tape's.
    ///
    /// One forward pass and nothing else: no `Graph` or node, no dropout.
    /// Each op is the tape op's kernel call on the same operands in the same
    /// order, recorded to the profiler (and checked by the non-finite guard,
    /// when enabled) under the tape op's name. The activations live in the
    /// returned tensor, updated in place layer by layer; everything else is
    /// one pooled buffer per launch (Q, K, V, the heads' scores, the FFN's
    /// hidden rows and pre-activation), taken once and returned once. Under a
    /// quantized backend each linear with at least 2048 weights runs the int8
    /// tile, on one quantization per input.
    ///
    /// # Panics
    ///
    /// As [`BertEncoder::forward_batch`].
    pub fn encode_eval(&self, seqs: &[(&[usize], &[usize])], backend: BackendKind) -> (Tensor, RowGroups, Option<Tensor>) {
        let Packed { ids, positions, segments, groups } = self.pack(seqs);
        let _scope = emba_tensor::prof::scope("bert");
        let mut ex = Exec::new(backend);
        let (n, h) = (groups.total(), self.cfg.hidden);
        let f32_ffn = self.layers.iter().any(|l| !ex.runs_q8(&l.ff.up));
        let mut plan = Plan::new(n, h, self.cfg.ff_dim, self.cfg.heads, groups.max_len(), f32_ffn);
        let mut p = plan.parts();
        // The embedding sum as the tape adds it, `(token + position) +
        // segment`, then its layer norm into the activations.
        self.token_emb.lookup_into(&ids, p.q);
        self.position_emb.lookup_into(&positions, p.k);
        self.segment_emb.lookup_into(&segments, p.v);
        for addend in [&*p.k, &*p.v] {
            fwd::add_assign(p.q, addend);
            fwd::note("add", p.q, (n, h), || vec![(n, h); 2]);
        }
        let mut x = vec![0.0; n * h];
        eval::layer_norm(&self.emb_norm, p.q, &mut x);
        for layer in &self.layers {
            layer.eval(&mut ex, &mut x, &groups, &mut p);
        }
        // The plan's scores still hold the last layer's, one `[T, T]` block
        // per head when there is one sequence.
        let attention = (groups.len() == 1 && !self.layers.is_empty())
            .then(|| attention::sum_heads(p.probs.chunks_exact(n * n), n));
        (Tensor::from_vec(n, h, x), groups, attention)
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

impl Module for BertEncoder {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.token_emb.visit(f);
        self.position_emb.visit(f);
        self.segment_emb.visit(f);
        self.emb_norm.visit(f);
        for l in &self.layers {
            l.visit(f);
        }
        self.pooler.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.token_emb.visit_mut(f);
        self.position_emb.visit_mut(f);
        self.segment_emb.visit_mut(f);
        self.emb_norm.visit_mut(f);
        for l in &mut self.layers {
            l.visit_mut(f);
        }
        self.pooler.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn encoder(seed: u64) -> BertEncoder {
        let mut rng = StdRng::seed_from_u64(seed);
        BertEncoder::new(BertConfig::tiny(50), &mut rng)
    }

    /// One sequence through [`BertEncoder::forward_batch`].
    fn forward_one(enc: &BertEncoder, g: &Graph, ids: &[usize], segs: &[usize], rng: &mut StdRng) -> BertBatchOutput {
        enc.forward_batch(g, &[(ids, segs)], false, rng)
    }

    #[test]
    fn forward_shapes() {
        let enc = encoder(0);
        let mut rng = StdRng::seed_from_u64(1);
        let g = Graph::new();
        let out = forward_one(&enc, &g, &[2, 5, 9, 3], &[0, 0, 1, 1], &mut rng);
        assert_eq!(g.value(out.tokens).shape(), (4, 16));
        let pooled = enc.pool(&g, out.tokens, &RowGroups::from_lens(&[4]));
        assert_eq!(g.value(pooled).shape(), (1, 16));
        assert_eq!(out.last_attention.len(), 2);
    }

    #[test]
    fn deterministic_in_eval_mode() {
        let enc = encoder(7);
        let mut rng = StdRng::seed_from_u64(2);
        let run = |rng: &mut StdRng| {
            let g = Graph::new();
            let out = forward_one(&enc, &g, &[1, 2, 3], &[0, 0, 0], rng);
            g.value(out.tokens)
        };
        let a = run(&mut rng);
        let b = run(&mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn segments_change_output() {
        let enc = encoder(3);
        let mut rng = StdRng::seed_from_u64(4);
        let g = Graph::new();
        let a = forward_one(&enc, &g, &[1, 2], &[0, 0], &mut rng);
        let b = forward_one(&enc, &g, &[1, 2], &[0, 1], &mut rng);
        assert_ne!(g.value(a.tokens), g.value(b.tokens));
    }

    #[test]
    fn all_params_receive_gradient() {
        let mut enc = encoder(5);
        let mut rng = StdRng::seed_from_u64(6);
        let g = Graph::new();
        let out = forward_one(&enc, &g, &[1, 2, 3, 4], &[0, 0, 1, 1], &mut rng);
        let pooled = enc.pool(&g, out.tokens, &RowGroups::from_lens(&[4]));
        let combined = g.concat_rows(&[out.tokens, pooled]);
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
        let mut rng = StdRng::seed_from_u64(12);
        let g = Graph::new();
        let seqs: [(&[usize], &[usize]); 3] = [
            (&[2, 5, 9, 3], &[0, 0, 1, 1]),
            (&[1, 2], &[0, 1]),
            (&[7, 7, 7, 1, 4], &[0, 0, 0, 1, 1]),
        ];
        let batch = enc.forward_batch(&g, &seqs, false, &mut rng);
        let tokens = g.value(batch.tokens);
        let pooled = g.value(enc.pool(&g, batch.tokens, &batch.groups));
        assert_eq!(tokens.shape(), (11, 16));
        assert_eq!(pooled.shape(), (3, 16));
        for p in &batch.last_attention {
            assert_eq!(g.value(*p).shape(), (11, 5));
        }
        // Bit for bit, whatever the length: every GEMM row, softmax row and
        // layer-norm row is computed the same alone as in a batch — also for
        // sequences shorter than one 6-row GEMM tile.
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, (ids, segs)) in seqs.iter().enumerate() {
            let single = forward_one(&enc, &g, ids, segs, &mut rng);
            let st = g.value(single.tokens);
            let (r0, r1) = batch.groups.range(i);
            for (r, rr) in (r0..r1).enumerate() {
                assert_eq!(bits(tokens.row_slice(rr)), bits(st.row_slice(r)), "tokens differ for sequence {i}");
            }
            let single_pooled = enc.pool(&g, single.tokens, &RowGroups::from_lens(&[ids.len()]));
            assert_eq!(bits(pooled.row_slice(i)), bits(g.value(single_pooled).data()), "pooled differs for sequence {i}");
            // Per-head probabilities of the last layer: `[T, T]` alone, the
            // same values in the sequence's rows of the batch's `[ΣT, W]`.
            assert_eq!(single.last_attention.len(), batch.last_attention.len());
            for (ps, pb) in single.last_attention.iter().zip(&batch.last_attention) {
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
        let mut rng = StdRng::seed_from_u64(9);
        let g = Graph::new();
        let ids: Vec<usize> = (0..40).map(|i| i % 10).collect();
        let segs = vec![0; 40];
        let _ = forward_one(&enc, &g, &ids, &segs, &mut rng);
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
