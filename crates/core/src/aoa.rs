//! The attention-over-attention (AOA) module — the paper's §3.4.
//!
//! Given the two records' token representations `E1 ∈ R^{m×h}` and
//! `E2 ∈ R^{n×h}` from the encoder's last layer:
//!
//! 1. pair-wise interaction matrix `I = E1 · E2ᵀ` (`[m, n]`);
//! 2. column-wise softmax `α` — for each RECORD2 token, a distribution over
//!    RECORD1 tokens (Eq. 1);
//! 3. row-wise softmax `β` — for each RECORD1 token, a distribution over
//!    RECORD2 tokens (Eq. 2);
//! 4. `β̄ = mean over rows of β` (`[1, n]`) — the averaged RECORD2 attention;
//! 5. `γ = α · β̄ᵀ` (`[m, 1]`) — attention over attention: how much each
//!    RECORD1 token matters, weighting each column's α by RECORD2's averaged
//!    importance;
//! 6. `x = E1ᵀ · γ` (`[h, 1]`) — the pooled pair representation fed to the
//!    match classifier. The implementation computes `xᵀ = γᵀ · E1` in one
//!    `matmul_tn`, so no transpose node is recorded.
//!
//! The per-sample semantics follow the paper exactly: after its padding
//! ablation showed that padding the interaction matrix "skews the
//! representation for the downstream tasks", every softmax here normalizes
//! only over a pair's own tokens. [`attention_over_attention`] spells the six
//! steps out in general tape ops and keeps every intermediate — the readable
//! reference for the explanations and the tests' oracle. The models run one
//! fused op instead, a pair at a time in a cache-resident workspace with no
//! padding at all, keeping only the pooled rows and γ: `Ops::aoa_pool`,
//! which is [`Graph::aoa_pool`] over the groups of two packed nodes when
//! training and, with no tape, its forward loop
//! [`emba_tensor::fwd::aoa_pool_into`] over packed rows or cached encodings
//! ([`emba_nn::eval::Exec::aoa_pool_pairs`]).

use emba_tensor::{Graph, Var};

/// Handles to every intermediate of one AOA application, kept for the
//  ablation study and the attention analyses.
pub struct AoaOutput {
    /// Pooled `[1, h]` pair representation (`xᵀ`).
    pub pooled: Var,
    /// `γ ∈ [m, 1]` — per-RECORD1-token importances. Rows sum to 1.
    pub gamma: Var,
    /// `α ∈ [m, n]` — column-stochastic first-level attention.
    pub alpha: Var,
    /// `β ∈ [m, n]` — row-stochastic first-level attention (Eq. 2), kept so
    /// the explanation tooling can verify/visualize both softmax directions.
    pub beta: Var,
    /// `β̄ ∈ [1, n]` — averaged RECORD2 attention. Sums to 1.
    pub beta_bar: Var,
}

/// Applies attention-over-attention to two token-representation matrices.
///
/// # Panics
///
/// Panics (via the tensor shape checks) if `e1` and `e2` have different
/// hidden widths or either is empty.
pub fn attention_over_attention(g: &Graph, e1: Var, e2: Var) -> AoaOutput {
    let _scope = emba_tensor::prof::scope("aoa");
    let interaction = g.matmul_nt(e1, e2); // [m, n]
    let alpha = g.softmax_cols(interaction); // columns sum to 1
    let beta = g.softmax_rows(interaction); // rows sum to 1
    let beta_bar = g.mean_axis0(beta); // [1, n]
    let gamma = g.matmul_nt(alpha, beta_bar); // [m, 1]
    let pooled = g.matmul_tn(gamma, e1); // γᵀ·E1 = (E1ᵀγ)ᵀ: [1, h] directly
    AoaOutput {
        pooled,
        gamma,
        alpha,
        beta,
        beta_bar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emba_tensor::{RowGroups, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_reps(m: usize, n: usize, h: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            Tensor::rand_normal(m, h, 0.0, 1.0, &mut rng),
            Tensor::rand_normal(n, h, 0.0, 1.0, &mut rng),
        )
    }

    #[test]
    fn shapes_are_as_in_the_paper() {
        let (e1, e2) = rand_reps(5, 3, 8, 0);
        let g = Graph::new();
        let out = attention_over_attention(&g, g.leaf(e1), g.leaf(e2));
        assert_eq!(g.value(out.pooled).shape(), (1, 8));
        assert_eq!(g.value(out.gamma).shape(), (5, 1));
        assert_eq!(g.value(out.alpha).shape(), (5, 3));
        assert_eq!(g.value(out.beta_bar).shape(), (1, 3));
    }

    #[test]
    fn gamma_is_a_distribution_over_record1_tokens() {
        // γ = α · β̄ᵀ where α's columns and β̄ are distributions, so γ sums
        // to 1 across RECORD1 tokens.
        let (e1, e2) = rand_reps(7, 4, 6, 1);
        let g = Graph::new();
        let out = attention_over_attention(&g, g.leaf(e1), g.leaf(e2));
        let gamma = g.value(out.gamma);
        let total: f32 = gamma.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-4, "gamma sums to {total}");
        assert!(gamma.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn beta_bar_is_a_distribution_over_record2_tokens() {
        let (e1, e2) = rand_reps(4, 6, 5, 2);
        let g = Graph::new();
        let out = attention_over_attention(&g, g.leaf(e1), g.leaf(e2));
        let bb = g.value(out.beta_bar);
        let total: f32 = bb.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-4);
    }

    #[test]
    fn pooled_is_convex_combination_of_record1_rows() {
        // x = E1ᵀγ with γ a distribution ⇒ every coordinate of x lies within
        // the min/max of the corresponding E1 column.
        let (e1, e2) = rand_reps(6, 3, 4, 3);
        let g = Graph::new();
        let v1 = g.leaf(e1.clone());
        let out = attention_over_attention(&g, v1, g.leaf(e2));
        let pooled = g.value(out.pooled);
        for c in 0..4 {
            let col: Vec<f32> = (0..6).map(|r| e1.get(r, c)).collect();
            let (lo, hi) = col
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &v| {
                    (l.min(v), h.max(v))
                });
            let x = pooled.get(0, c);
            assert!(x >= lo - 1e-4 && x <= hi + 1e-4, "coordinate {c}: {x} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn aligned_token_receives_high_gamma() {
        // Build E1/E2 where RECORD1 token 2 strongly matches all RECORD2
        // tokens; γ should concentrate there.
        let h = 4;
        let mut e1 = Tensor::zeros(4, h);
        for c in 0..h {
            e1.set(2, c, 3.0);
        }
        let mut e2 = Tensor::zeros(3, h);
        for r in 0..3 {
            for c in 0..h {
                e2.set(r, c, 1.0);
            }
        }
        let g = Graph::new();
        let out = attention_over_attention(&g, g.leaf(e1), g.leaf(e2));
        let gamma = g.value(out.gamma);
        let best = gamma.argmax_rows(); // column vector: argmax per row is 0
        let _ = best;
        let g2 = gamma.get(2, 0);
        for r in [0usize, 1, 3] {
            assert!(g2 > gamma.get(r, 0), "token 2 should dominate");
        }
    }

    #[test]
    fn gradients_flow_through_both_inputs() {
        let (e1, e2) = rand_reps(4, 5, 6, 4);
        let g = Graph::new();
        let v1 = g.leaf(e1);
        let v2 = g.leaf(e2);
        let out = attention_over_attention(&g, v1, v2);
        let sq = g.mul(out.pooled, out.pooled);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        assert!(grads.get(v1).unwrap().norm() > 0.0);
        assert!(grads.get(v2).unwrap().norm() > 0.0);
    }

    #[test]
    fn gradcheck_through_the_whole_module() {
        let (e1, e2) = rand_reps(3, 4, 3, 5);
        emba_tensor::gradcheck::check_gradients(
            &[e1, e2],
            |g, vars| {
                let out = attention_over_attention(g, vars[0], vars[1]);
                let sq = g.mul(out.pooled, out.pooled);
                g.mean_all(sq)
            },
            1e-2,
            5e-2,
        )
        .unwrap();
    }

    #[test]
    fn batched_matches_per_pair() {
        let mut rng = StdRng::seed_from_u64(9);
        let pairs = [(5usize, 3usize), (2, 6), (4, 4)];
        let h = 7;
        let mats: Vec<(Tensor, Tensor)> = pairs
            .iter()
            .map(|&(m, n)| {
                (
                    Tensor::rand_normal(m, h, 0.0, 1.0, &mut rng),
                    Tensor::rand_normal(n, h, 0.0, 1.0, &mut rng),
                )
            })
            .collect();
        let g1 = RowGroups::from_lens(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let g2 = RowGroups::from_lens(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        let e1_all: Vec<&Tensor> = mats.iter().map(|(a, _)| a).collect();
        let e2_all: Vec<&Tensor> = mats.iter().map(|(_, b)| b).collect();

        let g = Graph::new();
        let e1 = g.leaf(Tensor::concat_rows(&e1_all));
        let e2 = g.leaf(Tensor::concat_rows(&e2_all));
        let (pooled, gamma) = g.aoa_pool(e1, &g1, e2, &g2);
        let pooled = g.value(pooled);
        assert_eq!(pooled.shape(), (3, h));
        assert_eq!(gamma.shape(), (g1.total(), 1));

        for (i, (a, b)) in mats.iter().enumerate() {
            let single = attention_over_attention(&g, g.leaf(a.clone()), g.leaf(b.clone()));
            let sp = g.value(single.pooled);
            for (x, y) in pooled.row_slice(i).iter().zip(sp.data()) {
                assert!((x - y).abs() < 1e-5, "pooled differs for pair {i}");
            }
            let sg = g.value(single.gamma);
            let (r0, r1) = g1.range(i);
            for (r, rr) in (r0..r1).enumerate() {
                assert!(
                    (gamma.get(rr, 0) - sg.get(r, 0)).abs() < 1e-5,
                    "gamma differs for pair {i} row {r}"
                );
            }
        }
    }

    #[test]
    fn batched_gradcheck() {
        let mut rng = StdRng::seed_from_u64(10);
        let g1 = RowGroups::from_lens(&[3, 2]);
        let g2 = RowGroups::from_lens(&[2, 4]);
        let e1 = Tensor::rand_normal(5, 3, 0.0, 1.0, &mut rng);
        let e2 = Tensor::rand_normal(6, 3, 0.0, 1.0, &mut rng);
        emba_tensor::gradcheck::check_gradients(
            &[e1, e2],
            |g, vars| {
                let (pooled, _) = g.aoa_pool(vars[0], &g1, vars[1], &g2);
                let sq = g.mul(pooled, pooled);
                g.mean_all(sq)
            },
            1e-2,
            5e-2,
        )
        .unwrap();
    }

    #[test]
    fn single_token_records_degenerate_gracefully() {
        let (e1, e2) = rand_reps(1, 1, 4, 6);
        let g = Graph::new();
        let out = attention_over_attention(&g, g.leaf(e1.clone()), g.leaf(e2));
        let gamma = g.value(out.gamma);
        assert!((gamma.item() - 1.0).abs() < 1e-5);
        // Pooled collapses to E1's single row.
        let pooled = g.value(out.pooled);
        for c in 0..4 {
            assert!((pooled.get(0, c) - e1.get(0, c)).abs() < 1e-5);
        }
    }
}
