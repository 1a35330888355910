//! Task heads: learned token aggregation for the entity-ID tasks and the
//! binary match classifier. Each is written once over [`Ops`]: training
//! records it on the tape, inference and the split pair score run it
//! forward only.

use emba_nn::eval::Ops;
use emba_nn::Linear;
use emba_tensor::RowGroups;
use rand::Rng;

/// Entity-ID prediction head (paper §3.3): the token embeddings of one
/// record pass through a linear scorer that *learns the aggregation
/// weights*, the weighted sum is the record representation, and a classifier
/// maps it to entity-ID logits.
///
/// Concretely: `s = softmax(E · w)` over the record's tokens, `pooled = sᵀE`,
/// `logits = pooled · W_c + b`. Because the weights are learned per task,
/// each auxiliary task highlights its own subset of tokens — the flexibility
/// the paper contrasts against the shared `[CLS]` representation.
#[derive(Debug)]
pub struct TokenAggregationHead {
    scorer: Linear,
    classifier: Linear,
}

impl TokenAggregationHead {
    /// A head over `hidden`-wide tokens producing `classes` logits.
    pub fn new<R: Rng + ?Sized>(hidden: usize, classes: usize, rng: &mut R) -> Self {
        Self {
            scorer: Linear::new(hidden, 1, rng),
            classifier: Linear::new(hidden, classes, rng),
        }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classifier.out_dim()
    }

    /// The learned aggregation weights of row-packed `[ΣT, hidden]` token
    /// states: a `[ΣT, 1]` column holding a distribution over each group's
    /// rows.
    pub(crate) fn weights<O: Ops>(&self, o: &mut O, tokens: &O::V, groups: &RowGroups) -> O::V {
        let scores = o.linear(&self.scorer, tokens, false); // [ΣT, 1]
        o.softmax_col_grouped(scores, groups)
    }

    /// Computes `[G, classes]` logits from row-packed `[ΣT, hidden]` token
    /// states: one softmax-aggregated record representation per group, then
    /// the shared classifier.
    pub fn forward_batch<O: Ops>(&self, o: &mut O, tokens: &O::V, groups: &RowGroups) -> O::V {
        let weights = self.weights(o, tokens, groups);
        let pooled = o.weighted_sum_rows_grouped(&weights, tokens, groups); // [G, h]
        o.linear(&self.classifier, &pooled, false)
    }

    /// Classifies pre-pooled `[B, hidden]` representations directly (used by
    /// the `[CLS]`-based ablations that share this classifier structure).
    pub fn classify_pooled<O: Ops>(&self, o: &mut O, pooled: &O::V) -> O::V {
        o.linear(&self.classifier, pooled, false)
    }
}

emba_nn::module_params!(TokenAggregationHead: scorer, classifier);

/// Binary match head: a linear map from pooled `[B, d]` representations to
/// `[B, 1]` logits, trained with binary cross-entropy (the paper's BCEL term
/// in Eq. 3).
#[derive(Debug)]
pub struct MatchHead {
    proj: Linear,
}

impl MatchHead {
    /// A match head over `dim`-wide pooled representations.
    pub fn new<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Self {
        Self {
            proj: Linear::new(dim, 1, rng),
        }
    }

    /// Input width.
    pub fn dim(&self) -> usize {
        self.proj.in_dim()
    }

    /// `[B, 1]` match logits of the `[B, dim]` rows `pooled`.
    pub fn forward<O: Ops>(&self, o: &mut O, pooled: &O::V) -> O::V {
        o.linear(&self.proj, pooled, false)
    }
}

emba_nn::module_params!(MatchHead: proj);

#[cfg(test)]
mod tests {
    use super::*;
    use emba_nn::eval::Tape;
    use emba_nn::Module;
    use emba_tensor::{Graph, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn aggregation_weights_are_a_distribution() {
        let mut rng = StdRng::seed_from_u64(0);
        let head = TokenAggregationHead::new(8, 5, &mut rng);
        let g = Graph::new();
        let tape = &mut Tape::new(&g, None);
        let tokens = g.leaf(Tensor::rand_normal(6, 8, 0.0, 1.0, &mut rng));
        let groups = RowGroups::from_lens(&[6]);
        assert_eq!(g.value(head.forward_batch(tape, &tokens, &groups)).shape(), (1, 5));
        let w = g.value(head.weights(tape, &tokens, &groups));
        assert_eq!(w.shape(), (6, 1));
        let total: f32 = w.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-4);
    }

    #[test]
    fn head_learns_to_pick_the_indicative_token() {
        // Class = identity of a "marker" row that appears at a random
        // position; the head must learn to aggregate toward it.
        let mut rng = StdRng::seed_from_u64(1);
        let h = 8;
        let classes = 3;
        let mut head = TokenAggregationHead::new(h, classes, &mut rng);
        let mut adam = emba_nn::Adam::new();
        let marker = |c: usize| {
            let mut t = vec![0.0; h];
            t[c] = 2.0;
            t
        };
        let one_record = RowGroups::from_lens(&[5]);
        let mut last_loss = f32::INFINITY;
        for step in 0..300 {
            let c = step % classes;
            let pos = (step * 7) % 5;
            let mut rows = vec![vec![0.1f32; h]; 5];
            rows[pos] = marker(c);
            let flat: Vec<f32> = rows.into_iter().flatten().collect();
            let g = Graph::new();
            let tokens = g.leaf(Tensor::from_vec(5, h, flat));
            let logits = head.forward_batch(&mut Tape::new(&g, None), &tokens, &one_record);
            let loss = g.cross_entropy(logits, &[c]);
            last_loss = g.value(loss).item();
            let grads = g.backward(loss);
            head.zero_grads();
            head.accumulate_gradients(&grads);
            adam.step(&mut head, 5e-2);
        }
        assert!(last_loss < 0.1, "head failed to learn, loss {last_loss}");
    }

    #[test]
    fn batched_aggregation_matches_per_record() {
        let mut rng = StdRng::seed_from_u64(4);
        let head = TokenAggregationHead::new(8, 5, &mut rng);
        let records = [
            Tensor::rand_normal(6, 8, 0.0, 1.0, &mut rng),
            Tensor::rand_normal(2, 8, 0.0, 1.0, &mut rng),
            Tensor::rand_normal(4, 8, 0.0, 1.0, &mut rng),
        ];
        let groups = RowGroups::from_lens(&[6, 2, 4]);
        let g = Graph::new();
        let tape = &mut Tape::new(&g, None);
        let packed = g.leaf(Tensor::concat_rows(&records.iter().collect::<Vec<_>>()));
        let batched = g.value(head.forward_batch(tape, &packed, &groups));
        assert_eq!(batched.shape(), (3, 5));
        for (i, rec) in records.iter().enumerate() {
            let alone = RowGroups::from_lens(&[rec.rows()]);
            let single = g.value(head.forward_batch(tape, &g.leaf(rec.clone()), &alone));
            for (x, y) in batched.row_slice(i).iter().zip(single.data()) {
                assert!((x - y).abs() < 1e-5, "logits differ for record {i}");
            }
        }
    }

    #[test]
    fn match_head_produces_single_logit() {
        let mut rng = StdRng::seed_from_u64(2);
        let head = MatchHead::new(16, &mut rng);
        let g = Graph::new();
        let pooled = g.leaf(Tensor::rand_normal(3, 16, 0.0, 1.0, &mut rng));
        let logit = head.forward(&mut Tape::new(&g, None), &pooled);
        assert_eq!(g.value(logit).shape(), (3, 1));
        assert_eq!(head.dim(), 16);
    }

    #[test]
    fn classify_pooled_skips_aggregation() {
        let mut rng = StdRng::seed_from_u64(3);
        let head = TokenAggregationHead::new(4, 2, &mut rng);
        let g = Graph::new();
        let pooled = g.leaf(Tensor::rand_normal(1, 4, 0.0, 1.0, &mut rng));
        let logits = head.classify_pooled(&mut Tape::new(&g, None), &pooled);
        assert_eq!(g.value(logits).shape(), (1, 2));
    }
}
