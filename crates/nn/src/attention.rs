//! Multi-head scaled dot-product self-attention.
//!
//! The batched path packs several variable-length sequences row-wise into one
//! `[ΣT, hidden]` activation matrix ([`emba_tensor::RowGroups`] records the
//! per-sequence row ranges) and runs block-diagonal attention: each sequence
//! attends only to its own rows, so no `[ΣT, ΣT]` mask tensor is ever
//! materialized. One sequence is the batch-of-one case.

use emba_tensor::{Graph, RowGroups, Tensor, Var};
use rand::Rng;

use crate::eval::{self, Ops};
use crate::layers::Linear;

/// Multi-head self-attention with output projection.
#[derive(Debug)]
pub struct MultiHeadAttention {
    query: Linear,
    key: Linear,
    value: Linear,
    output: Linear,
    heads: usize,
    head_dim: usize,
    dropout_p: f32,
}

impl MultiHeadAttention {
    /// Creates attention over `hidden` dims split across `heads` heads.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads`.
    pub fn new<R: Rng + ?Sized>(hidden: usize, heads: usize, dropout_p: f32, rng: &mut R) -> Self {
        assert!(
            heads > 0 && hidden.is_multiple_of(heads),
            "hidden {hidden} must be divisible by heads {heads}"
        );
        Self {
            query: Linear::new(hidden, hidden, rng),
            key: Linear::new(hidden, hidden, rng),
            value: Linear::new(hidden, hidden, rng),
            output: Linear::new(hidden, hidden, rng),
            heads,
            head_dim: hidden / heads,
            dropout_p,
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The query projection.
    pub(crate) fn query(&self) -> &Linear {
        &self.query
    }

    /// Runs block-diagonal self-attention over a row-packed batch
    /// `x: [ΣT, hidden]` whose sequences are described by `groups`.
    ///
    /// Returns the attended output (same packed layout) and, per head, the
    /// `[ΣT, W]` grouped attention probabilities before dropout, where
    /// `W = groups.max_len()` and row `r` of sequence `i` holds its
    /// distribution over that sequence's own keys in columns `0..len_i`
    /// (padding columns are zero).
    pub fn forward<O: Ops>(&self, o: &mut O, x: &O::V, groups: &RowGroups) -> (O::V, Vec<O::V>) {
        let _scope = emba_tensor::prof::scope("attention");
        let q = o.linear(&self.query, x, false);
        let k = o.linear(&self.key, x, false);
        let v = o.linear(&self.value, x, false);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // Each head is a column range of q/k/v, read in place; every head's
        // context lands in its own columns of one `[ΣT, hidden]` output.
        // Each activation is dropped once read, so `Exec` reuses its buffer.
        let d = self.head_dim;
        let probs: Vec<O::V> = (0..self.heads).map(|h| o.attention_scores(&q, &k, h * d..(h + 1) * d, scale, groups)).collect();
        drop((q, k));
        let context = o.attend(&probs, &v, self.dropout_p, groups);
        drop(v);
        let out = o.linear(&self.output, &context, false);
        (o.dropout(out, self.dropout_p), probs)
    }

    /// Sums the per-head attention probabilities of a recorded forward pass
    /// into a single `[seq, seq]` matrix, the form used by the paper's
    /// attention-score visualizations.
    pub fn summed_probs(g: &Graph, probs: &[Var]) -> Tensor {
        let values: Vec<Tensor> = probs.iter().map(|&p| g.value(p)).collect();
        let rows = values.first().map_or(0, Tensor::rows);
        eval::sum_heads(values.iter().map(Tensor::data), rows)
    }
}

crate::module_params!(MultiHeadAttention: query, key, value, output);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Tape;
    use crate::param::Module;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Eval-mode attention over the packed rows `x`, on the tape.
    fn eval_mode(mha: &MultiHeadAttention, g: &Graph, x: Var, groups: &RowGroups) -> (Var, Vec<Var>) {
        mha.forward(&mut Tape::new(g, None), &x, groups)
    }

    /// Eval-mode attention over the one sequence `x`.
    fn one_sequence(mha: &MultiHeadAttention, g: &Graph, x: Var) -> (Var, Vec<Var>) {
        eval_mode(mha, g, x, &RowGroups::from_lens(&[g.value(x).rows()]))
    }

    #[test]
    fn output_shape_matches_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mha = MultiHeadAttention::new(16, 4, 0.0, &mut rng);
        let g = Graph::new();
        let x = g.leaf(Tensor::rand_normal(5, 16, 0.0, 1.0, &mut rng));
        let (y, probs) = one_sequence(&mha, &g, x);
        assert_eq!(g.value(y).shape(), (5, 16));
        assert_eq!(probs.len(), 4);
        for p in &probs {
            assert_eq!(g.value(*p).shape(), (5, 5));
        }
    }

    #[test]
    fn attention_rows_are_distributions() {
        let mut rng = StdRng::seed_from_u64(1);
        let mha = MultiHeadAttention::new(8, 2, 0.0, &mut rng);
        let g = Graph::new();
        let x = g.leaf(Tensor::rand_normal(4, 8, 0.0, 1.0, &mut rng));
        let (_, probs) = one_sequence(&mha, &g, x);
        for p in probs {
            let v = g.value(p);
            for r in 0..v.rows() {
                let s: f32 = v.row_slice(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn summed_probs_rows_sum_to_head_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let mha = MultiHeadAttention::new(8, 2, 0.0, &mut rng);
        let g = Graph::new();
        let x = g.leaf(Tensor::rand_normal(3, 8, 0.0, 1.0, &mut rng));
        let (_, probs) = one_sequence(&mha, &g, x);
        let summed = MultiHeadAttention::summed_probs(&g, &probs);
        for r in 0..3 {
            let s: f32 = summed.row_slice(r).iter().sum();
            assert!((s - 2.0).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_reach_all_projections() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mha = MultiHeadAttention::new(8, 2, 0.0, &mut rng);
        let g = Graph::new();
        let x = g.leaf(Tensor::rand_normal(3, 8, 0.0, 1.0, &mut rng));
        let (y, _) = one_sequence(&mha, &g, x);
        let sq = g.mul(y, y);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        mha.accumulate_gradients(&grads);
        let mut all_nonzero = true;
        mha.visit(&mut |p| {
            if p.grad.norm() == 0.0 {
                all_nonzero = false;
            }
        });
        assert!(all_nonzero, "every projection should receive gradient");
    }

    #[test]
    fn batched_matches_per_example() {
        let mut rng = StdRng::seed_from_u64(5);
        let mha = MultiHeadAttention::new(8, 2, 0.0, &mut rng);
        let a = Tensor::rand_normal(3, 8, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(5, 8, 0.0, 1.0, &mut rng);

        let g = Graph::new();
        let packed = g.leaf(Tensor::concat_rows(&[&a, &b]));
        let groups = RowGroups::from_lens(&[3, 5]);
        let (yp, probs) = eval_mode(&mha, &g, packed, &groups);
        let (ya, _) = one_sequence(&mha, &g, g.leaf(a));
        let (yb, _) = one_sequence(&mha, &g, g.leaf(b));

        let vp = g.value(yp);
        let ref_out = Tensor::concat_rows(&[&g.value(ya), &g.value(yb)]);
        assert_eq!(vp.shape(), (8, 8));
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(vp.data()), bits(ref_out.data()), "batched vs per-example");
        // Grouped probs are [ΣT, W]: rows of sequence 0 use only 3 columns.
        for p in &probs {
            let v = g.value(*p);
            assert_eq!(v.shape(), (8, 5));
            for r in 0..3 {
                assert_eq!(&v.row_slice(r)[3..], &[0.0, 0.0], "padding must be zero");
            }
        }
    }

    #[test]
    fn head_views_give_the_probabilities_of_sliced_out_heads() {
        // Each head reads its columns of q/k in place; the values must be
        // those of attention over a copy of just those columns.
        let mut rng = StdRng::seed_from_u64(6);
        let mha = MultiHeadAttention::new(12, 3, 0.0, &mut rng);
        let g = Graph::new();
        let x = g.leaf(Tensor::rand_normal(9, 12, 0.0, 1.0, &mut rng));
        let groups = RowGroups::from_lens(&[2, 7]);
        let (_, probs) = eval_mode(&mha, &g, x, &groups);
        let (q, k) = (mha.query.forward(&g, x, false), mha.key.forward(&g, x, false));
        for (h, p) in probs.iter().enumerate() {
            let (qh, kh) = (g.slice_cols(q, 4 * h, 4 * h + 4), g.slice_cols(k, 4 * h, 4 * h + 4));
            let want = g.attention_scores_grouped(qh, kh, 0..4, 0.5, &groups);
            assert_eq!(g.value(*p).shape(), (9, 7));
            assert_eq!(g.value(*p), g.value(want), "head {h}");
        }
    }

    #[test]
    fn train_mode_dropout_reaches_every_projection() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut mha = MultiHeadAttention::new(8, 2, 0.3, &mut rng);
        let g = Graph::new();
        let x = g.leaf(Tensor::rand_normal(6, 8, 0.0, 1.0, &mut rng));
        let groups = RowGroups::from_lens(&[2, 4]);
        let (y, probs) = mha.forward(&mut Tape::new(&g, Some(&mut rng)), &x, &groups);
        // The returned probabilities are the undropped ones: rows still sum to 1.
        for p in &probs {
            let v = g.value(*p);
            for r in 0..6 {
                assert!((v.row_slice(r).iter().sum::<f32>() - 1.0).abs() < 1e-5);
            }
        }
        let loss = g.mean_all(g.mul(y, y));
        let grads = g.backward(loss);
        mha.accumulate_gradients(&grads);
        mha.visit(&mut |p| assert!(p.grad.norm() > 0.0, "a projection received no gradient"));
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_heads() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = MultiHeadAttention::new(10, 3, 0.0, &mut rng);
    }
}
