//! Task heads: learned token aggregation for the entity-ID tasks and the
//! binary match classifier.

use emba_nn::eval::Exec;
use emba_nn::{Linear, Module, Param};
use emba_tensor::{Graph, RowGroups, Var};
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

    /// Computes `[1, classes]` logits from `[k, hidden]` token states.
    pub fn forward(&self, g: &Graph, tokens: Var) -> Var {
        let (pooled, _) = self.pool(g, tokens);
        self.classifier.forward(g, pooled)
    }

    /// Like [`TokenAggregationHead::forward`] but also returns the learned
    /// `[k, 1]` aggregation weights (used in the attention analyses).
    pub fn forward_with_weights(&self, g: &Graph, tokens: Var) -> (Var, Var) {
        let (pooled, weights) = self.pool(g, tokens);
        (self.classifier.forward(g, pooled), weights)
    }

    fn pool(&self, g: &Graph, tokens: Var) -> (Var, Var) {
        let scores = self.scorer.forward(g, tokens); // [k, 1]
        let scores_row = g.transpose(scores); // [1, k]
        let weights_row = g.softmax_rows(scores_row); // [1, k]
        let pooled = g.matmul(weights_row, tokens); // [1, h]
        (pooled, g.transpose(weights_row))
    }

    /// Computes `[G, classes]` logits from row-packed `[ΣT, hidden]` token
    /// states: one softmax-aggregated record representation per group, then
    /// the shared classifier. Semantically equivalent to
    /// [`TokenAggregationHead::forward`] per record.
    pub fn forward_batch(&self, g: &Graph, tokens: Var, groups: &RowGroups) -> Var {
        let scores = self.scorer.forward(g, tokens); // [ΣT, 1]
        let weights = g.softmax_col_grouped(scores, groups); // per-record distribution
        let pooled = g.weighted_sum_rows_grouped(weights, tokens, groups); // [G, h]
        self.classifier.forward(g, pooled)
    }

    /// Classifies a pre-pooled `[1, hidden]` representation directly
    /// (used by the `[CLS]`-based ablations that share this classifier
    /// structure).
    pub fn classify_pooled(&self, g: &Graph, pooled: Var) -> Var {
        self.classifier.forward(g, pooled)
    }
}

impl Module for TokenAggregationHead {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.scorer.visit(f);
        self.classifier.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.scorer.visit_mut(f);
        self.classifier.visit_mut(f);
    }
}

/// Binary match head: a linear map from a pooled `[1, d]` representation to
/// a single logit, trained with binary cross-entropy (the paper's BCEL term
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

    /// `[1, 1]` match logit.
    pub fn forward(&self, g: &Graph, pooled: Var) -> Var {
        self.proj.forward(g, pooled)
    }

    /// The `[G, 1]` logits [`MatchHead::forward`] records for the `[G, dim]`
    /// rows `pooled`, off the tape through `ex`.
    pub(crate) fn logits_into(&self, ex: &mut Exec, pooled: &[f32], out: &mut [f32]) {
        let input = ex.input();
        ex.linear(&self.proj, pooled, input, out, None);
    }
}

impl Module for MatchHead {
    fn visit(&self, f: &mut dyn FnMut(&Param)) {
        self.proj.visit(f);
    }
    fn visit_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.proj.visit_mut(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emba_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn aggregation_weights_are_a_distribution() {
        let mut rng = StdRng::seed_from_u64(0);
        let head = TokenAggregationHead::new(8, 5, &mut rng);
        let g = Graph::new();
        let tokens = g.leaf(Tensor::rand_normal(6, 8, 0.0, 1.0, &mut rng));
        let (logits, weights) = head.forward_with_weights(&g, tokens);
        assert_eq!(g.value(logits).shape(), (1, 5));
        let w = g.value(weights);
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
        let mut last_loss = f32::INFINITY;
        for step in 0..300 {
            let c = step % classes;
            let pos = (step * 7) % 5;
            let mut rows = vec![vec![0.1f32; h]; 5];
            rows[pos] = marker(c);
            let flat: Vec<f32> = rows.into_iter().flatten().collect();
            let g = Graph::new();
            let tokens = g.leaf(Tensor::from_vec(5, h, flat));
            let logits = head.forward(&g, tokens);
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
        let packed = g.leaf(Tensor::concat_rows(&records.iter().collect::<Vec<_>>()));
        let batched = g.value(head.forward_batch(&g, packed, &groups));
        assert_eq!(batched.shape(), (3, 5));
        for (i, rec) in records.iter().enumerate() {
            let single = g.value(head.forward(&g, g.leaf(rec.clone())));
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
        let pooled = g.leaf(Tensor::rand_normal(1, 16, 0.0, 1.0, &mut rng));
        let logit = head.forward(&g, pooled);
        assert_eq!(g.value(logit).shape(), (1, 1));
        assert_eq!(head.dim(), 16);
    }

    #[test]
    fn classify_pooled_skips_aggregation() {
        let mut rng = StdRng::seed_from_u64(3);
        let head = TokenAggregationHead::new(4, 2, &mut rng);
        let g = Graph::new();
        let pooled = g.leaf(Tensor::rand_normal(1, 4, 0.0, 1.0, &mut rng));
        let logits = head.classify_pooled(&g, pooled);
        assert_eq!(g.value(logits).shape(), (1, 2));
    }
}
