//! Property-based validation of the grouped (batched) tape ops: every
//! analytic gradient against central finite differences, single-group
//! equivalence with the per-example ops they batch, and block-diagonal
//! structure on multi-group inputs.

use emba_tensor::{gradcheck::check_gradients, Graph, RowGroups, Tensor, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const EPS: f32 = 1e-2;
const TOL: f32 = 5e-2;

fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

/// Random per-group lengths: 1–4 groups of 1–5 rows each.
fn lens() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..6, 1..5)
}

fn check(inputs: &[Tensor], f: impl Fn(&Graph, &[Var]) -> Var) {
    check_gradients(inputs, f, EPS, TOL).unwrap();
}

fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

/// `softmax_rows(scale · q · kᵀ)` by plain loops in f64: one sequence's
/// attention scores.
fn naive_attention(q: &Tensor, k: &Tensor, scale: f32) -> Tensor {
    let mut out = Vec::with_capacity(q.rows() * k.rows());
    for qi in q.iter_rows() {
        let dot = |kj: &[f32]| qi.iter().zip(kj).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum::<f64>();
        let logits: Vec<f64> = k.iter_rows().map(|kj| f64::from(scale) * dot(kj)).collect();
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = logits.iter().map(|l| (l - max).exp()).sum();
        out.extend(logits.iter().map(|l| ((l - max).exp() / sum) as f32));
    }
    Tensor::from_vec(q.rows(), k.rows(), out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn grad_gather_rows(x in tensor(5, 3)) {
        check(std::slice::from_ref(&x), |g, v| {
            // Duplicate indices exercise the scatter-add accumulation.
            let y = g.gather_rows(v[0], &[4, 0, 0, 2]);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_attention_scores_grouped(ls in lens(), seed in 0u64..1000) {
        let groups = RowGroups::from_lens(&ls);
        let n = groups.total();
        let d = 3;
        let mut rng = StdRng::seed_from_u64(seed);
        let q = Tensor::rand_normal(n, d, 0.0, 0.8, &mut rng);
        let k = Tensor::rand_normal(n, d, 0.0, 0.8, &mut rng);
        let w = Tensor::rand_normal(n, groups.max_len(), 0.0, 1.0, &mut rng);
        check(&[q, k], |g, v| {
            let p = g.attention_scores_grouped(v[0], v[1], 0..d, 0.5, &groups);
            let wl = g.leaf(w.clone());
            g.sum_all(g.mul(p, wl))
        });
    }

    #[test]
    fn grad_matmul_grouped(ls in lens(), seed in 0u64..1000) {
        let groups = RowGroups::from_lens(&ls);
        let n = groups.total();
        let w = groups.max_len();
        let mut rng = StdRng::seed_from_u64(seed);
        // Build group-masked probabilities: zero outside each group's prefix,
        // as the op's contract requires.
        let mut probs = vec![0.0f32; n * w];
        for gi in 0..groups.len() {
            let (r0, r1) = groups.range(gi);
            let t = r1 - r0;
            for r in r0..r1 {
                for c in 0..t {
                    probs[r * w + c] = f32::from(rng.next_u64() as u8) / 255.0 - 0.5;
                }
            }
        }
        let p = Tensor::from_vec(n, w, probs);
        let v_in = Tensor::rand_normal(n, 3, 0.0, 0.8, &mut rng);
        let (gp, gv) = {
            let g = Graph::new();
            let pv = g.leaf(p.clone());
            let vv = g.leaf(v_in.clone());
            let out = g.matmul_grouped(&[pv], vv, &groups);
            let grads = g.backward(g.sum_all(out));
            (grads.get(pv).unwrap().clone(), grads.get(vv).unwrap().clone())
        };
        // Reference: per-group dense matmul.
        let gref = Graph::new();
        let mut dp_ref = vec![0.0f32; n * w];
        let mut dv_ref = vec![0.0f32; n * 3];
        for gi in 0..groups.len() {
            let (r0, r1) = groups.range(gi);
            let t = r1 - r0;
            let pb = gref.leaf(p.slice_rows(r0, r1).slice_cols(0, t));
            let vb = gref.leaf(v_in.slice_rows(r0, r1));
            let out = gref.matmul(pb, vb);
            let grads = gref.backward(gref.sum_all(out));
            let dpb = grads.get(pb).unwrap();
            let dvb = grads.get(vb).unwrap();
            for r in 0..t {
                dp_ref[(r0 + r) * w..(r0 + r) * w + t].copy_from_slice(dpb.row_slice(r));
                dv_ref[(r0 + r) * 3..(r0 + r + 1) * 3].copy_from_slice(dvb.row_slice(r));
            }
        }
        assert_close(&gp, &Tensor::from_vec(n, w, dp_ref), 1e-4, "matmul_grouped dP");
        assert_close(&gv, &Tensor::from_vec(n, 3, dv_ref), 1e-4, "matmul_grouped dV");
    }

    #[test]
    fn grad_aoa_pool_over_ragged_groups(
        la in lens(), lb in proptest::collection::vec(1usize..6, 1..5), seed in 0u64..1000,
    ) {
        // Align group counts: truncate to the shorter list.
        let gcount = la.len().min(lb.len());
        let ga = RowGroups::from_lens(&la[..gcount]);
        let gb = RowGroups::from_lens(&lb[..gcount]);
        let h = 3;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_normal(ga.total(), h, 0.0, 0.8, &mut rng);
        let b = Tensor::rand_normal(gb.total(), h, 0.0, 0.8, &mut rng);
        let w = Tensor::rand_normal(gcount, h, 0.0, 1.0, &mut rng);
        // The whole attention-over-attention module — interaction, column and
        // row softmax, group mean, row-dot, weighted pooling — is one op; one
        // gradcheck over all of it, with every pooled coordinate weighted.
        check(&[a, b], |g, v| {
            let (pooled, _) = g.aoa_pool(v[0], &ga, v[1], &gb);
            g.sum_all(g.mul(pooled, g.leaf(w.clone())))
        });
    }

    #[test]
    fn grad_softmax_col_grouped(ls in lens(), seed in 0u64..1000) {
        let groups = RowGroups::from_lens(&ls);
        let n = groups.total();
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_normal(n, 1, 0.0, 1.0, &mut rng);
        let w = Tensor::rand_normal(n, 1, 0.0, 1.0, &mut rng);
        check(std::slice::from_ref(&x), |g, v| {
            let p = g.softmax_col_grouped(v[0], &groups);
            let wl = g.leaf(w.clone());
            g.sum_all(g.mul(p, wl))
        });
    }

    // ----- single-group equivalence with the per-example ops --------------------

    #[test]
    fn single_group_matches_per_example_ops(rows in 1usize..6, seed in 0u64..1000) {
        let groups = RowGroups::from_lens(&[rows]);
        let d = 4;
        let mut rng = StdRng::seed_from_u64(seed);
        let q = Tensor::rand_normal(rows, d, 0.0, 0.8, &mut rng);
        let k = Tensor::rand_normal(rows, d, 0.0, 0.8, &mut rng);
        let x = Tensor::rand_normal(rows, d, 0.0, 0.8, &mut rng);
        let wcol = Tensor::rand_normal(rows, 1, 0.0, 0.8, &mut rng);

        let g = Graph::new();
        let (qv, kv, xv, wv) = (g.leaf(q.clone()), g.leaf(k.clone()), g.leaf(x.clone()), g.leaf(wcol.clone()));

        let fused = g.attention_scores_grouped(qv, kv, 0..d, 0.7, &groups);
        let per = g.leaf(naive_attention(&q, &k, 0.7));
        assert_close(&g.value(fused), &g.value(per), 1e-6, "attention_scores");

        let ctx_g = g.matmul_grouped(&[fused], xv, &groups);
        let ctx_p = g.matmul(per, xv);
        assert_close(&g.value(ctx_g), &g.value(ctx_p), 1e-5, "probs·V");

        // The fused AOA op against the general ops it replaces, step by step.
        let inter = g.matmul_nt(qv, kv);
        let (alpha, beta) = (g.softmax_cols(inter), g.softmax_rows(inter));
        let gamma_p = g.matmul_nt(alpha, g.mean_axis0(beta));
        let pooled_p = g.matmul_tn(gamma_p, qv);
        let (pooled_g, gamma_g) = g.aoa_pool(qv, &groups, kv, &groups);
        assert_close(&gamma_g, &g.value(gamma_p), 1e-5, "aoa gamma");
        assert_close(&g.value(pooled_g), &g.value(pooled_p), 1e-5, "aoa pooled");

        let mean_g = g.mean_rows_grouped(xv, &groups);
        let mean_p = g.mean_axis0(xv);
        assert_close(&g.value(mean_g), &g.value(mean_p), 1e-6, "mean_rows");

        let ws_g = g.weighted_sum_rows_grouped(wv, xv, &groups);
        let ws_p = g.matmul_tn(wv, xv);
        assert_close(&g.value(ws_g), &g.value(ws_p), 1e-5, "weighted_sum");

        let smc_g = g.softmax_col_grouped(wv, &groups);
        let smc_p = g.transpose(g.softmax_rows(g.transpose(wv)));
        assert_close(&g.value(smc_g), &g.value(smc_p), 1e-5, "softmax_col");

        let gr = g.gather_rows(xv, &[0]);
        let sl = g.slice_rows(xv, 0, 1);
        assert_close(&g.value(gr), &g.value(sl), 0.0, "gather_rows");
    }

    // ----- block-diagonal structure on multi-group inputs -----------------------

    #[test]
    fn grouped_attention_is_block_diagonal(ls in lens(), seed in 0u64..1000) {
        let groups = RowGroups::from_lens(&ls);
        let n = groups.total();
        let d = 4;
        let w = groups.max_len();
        let mut rng = StdRng::seed_from_u64(seed);
        let q = Tensor::rand_normal(n, d, 0.0, 0.8, &mut rng);
        let k = Tensor::rand_normal(n, d, 0.0, 0.8, &mut rng);

        let g = Graph::new();
        let (qv, kv) = (g.leaf(q.clone()), g.leaf(k.clone()));
        let batched = g.value(g.attention_scores_grouped(qv, kv, 0..d, 0.6, &groups));

        for gi in 0..groups.len() {
            let (r0, r1) = groups.range(gi);
            let t = r1 - r0;
            // Per-sequence reference.
            let single = naive_attention(&q.slice_rows(r0, r1), &k.slice_rows(r0, r1), 0.6);
            for r in 0..t {
                for c in 0..w {
                    let got = batched.get(r0 + r, c);
                    if c < t {
                        let want = single.get(r, c);
                        prop_assert!(
                            (got - want).abs() <= 1e-5 * (1.0 + want.abs()),
                            "row {r} col {c}: {got} vs {want}"
                        );
                    } else {
                        prop_assert_eq!(got, 0.0, "padding must stay zero");
                    }
                }
            }
        }
    }
}

#[test]
fn dropout_backward_replays_the_forward_mask() {
    // Strictly positive inputs so a zero output unambiguously means
    // "dropped"; the gradient of sum(dropout(x)) must be `scale` exactly on
    // kept elements and 0 on dropped ones.
    let mut rng = StdRng::seed_from_u64(7);
    let g = Graph::new();
    let x = g.leaf(Tensor::full(4, 16, 1.0));
    let y = g.dropout(x, 0.4, &mut rng);
    let vy = g.value(y);
    let grads = g.backward(g.sum_all(y));
    let dx = grads.get(x).unwrap();
    let scale = 1.0 / 0.6;
    let mut kept = 0;
    for (i, (&yv, &dv)) in vy.data().iter().zip(dx.data()).enumerate() {
        if yv == 0.0 {
            assert_eq!(dv, 0.0, "dropped element {i} must get zero gradient");
        } else {
            assert!((yv - scale).abs() < 1e-6, "kept element {i} must be scaled");
            assert!((dv - scale).abs() < 1e-6, "kept element {i} grad must be scaled");
            kept += 1;
        }
    }
    assert!(kept > 0 && kept < 64, "mask should be non-trivial, kept {kept}");
}
