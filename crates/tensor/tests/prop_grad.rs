//! Property-based validation of every analytic gradient in the tape against
//! central finite differences, plus algebraic invariants of the raw kernels.

use emba_tensor::{gradcheck::check_gradients, Graph, RowGroups, Tensor, Var};
use proptest::prelude::*;

const EPS: f32 = 1e-2;
const TOL: f32 = 5e-2;

/// Strategy: a tensor of the given shape with moderate, well-conditioned
/// values (large magnitudes make finite differences unreliable in f32).
fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

fn check(inputs: &[Tensor], f: impl Fn(&Graph, &[Var]) -> Var) {
    check_gradients(inputs, f, EPS, TOL).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn grad_add_sub_mul(a in tensor(3, 4), b in tensor(3, 4)) {
        check(&[a.clone(), b.clone()], |g, v| {
            let s = g.add(v[0], v[1]);
            let d = g.sub(s, v[1]);
            let m = g.mul(d, v[1]);
            g.sum_all(m)
        });
    }

    #[test]
    fn grad_matmul(a in tensor(2, 3), b in tensor(3, 4)) {
        check(&[a, b], |g, v| {
            let c = g.matmul(v[0], v[1]);
            g.mean_all(c)
        });
    }

    #[test]
    fn grad_matmul_nt(a in tensor(2, 3), b in tensor(4, 3)) {
        check(&[a, b], |g, v| {
            let c = g.matmul_nt(v[0], v[1]);
            g.mean_all(c)
        });
    }

    #[test]
    fn grad_matmul_tn(a in tensor(3, 2), b in tensor(3, 4)) {
        check(&[a, b], |g, v| {
            let c = g.matmul_tn(v[0], v[1]);
            g.mean_all(c)
        });
    }

    #[test]
    fn grad_nonlinearities(x in tensor(2, 5)) {
        check(std::slice::from_ref(&x), |g, v| {
            let y = g.tanh(v[0]);
            g.sum_all(y)
        });
        check(std::slice::from_ref(&x), |g, v| {
            let y = g.sigmoid(v[0]);
            g.sum_all(y)
        });
        check(std::slice::from_ref(&x), |g, v| {
            let y = g.gelu(v[0]);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_softmax_rows(x in tensor(3, 4), w in tensor(3, 4)) {
        check(&[x, w], |g, v| {
            let p = g.softmax_rows(v[0]);
            let y = g.mul(p, v[1]);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_softmax_cols(x in tensor(3, 4), w in tensor(3, 4)) {
        check(&[x, w], |g, v| {
            let p = g.softmax_cols(v[0]);
            let y = g.mul(p, v[1]);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_layer_norm(x in tensor(3, 6), gamma in tensor(1, 6), beta in tensor(1, 6)) {
        check(&[x, gamma, beta], |g, v| {
            let y = g.layer_norm(v[0], v[1], v[2]);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn grad_mean_axis0(x in tensor(3, 4)) {
        check(&[x], |g, v| {
            let y = g.mean_axis0(v[0]);
            let sq = g.mul(y, y);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_embedding(w in tensor(5, 3)) {
        check(&[w], |g, v| {
            let e = g.embedding(v[0], &[0, 2, 2, 4]);
            let sq = g.mul(e, e);
            g.sum_all(sq)
        });
    }

    #[test]
    fn grad_cross_entropy(logits in tensor(3, 4)) {
        check(&[logits], |g, v| g.cross_entropy(v[0], &[0, 3, 1]));
    }

    #[test]
    fn grad_weighted_cross_entropy(logits in tensor(3, 3)) {
        check(&[logits], |g, v| {
            g.cross_entropy_weighted(v[0], &[2, 0, 1], Some(&[1.0, 2.5, 0.5]))
        });
    }

    #[test]
    fn grad_bce(logits in tensor(4, 1)) {
        check(&[logits], |g, v| g.bce_with_logits(v[0], &[1.0, 0.0, 1.0, 0.0]));
    }

    #[test]
    fn grad_slice_concat_transpose(x in tensor(4, 4)) {
        check(&[x], |g, v| {
            let t = g.transpose(v[0]);
            let a = g.slice_rows(t, 0, 2);
            let b = g.slice_cols(t, 1, 3);
            let bb = g.slice_rows(b, 0, 2);
            let cat = g.concat_cols(&[a, bb]);
            let sq = g.mul(cat, cat);
            g.mean_all(sq)
        });
    }

    // ----- fused ops ---------------------------------------------------------

    #[test]
    fn grad_fused_linear(x in tensor(3, 4), w in tensor(4, 5), b in tensor(1, 5)) {
        check(&[x, w, b], |g, v| {
            let y = g.linear(v[0], v[1], v[2], false);
            let sq = g.mul(y, y);
            g.mean_all(sq)
        });
    }

    #[test]
    fn grad_fused_linear_bias_gelu(x in tensor(2, 3), w in tensor(3, 4), b in tensor(1, 4)) {
        check(&[x, w, b], |g, v| {
            let y = g.linear(v[0], v[1], v[2], true);
            g.sum_all(y)
        });
    }

    #[test]
    fn grad_fused_attention_scores(q in tensor(3, 4), k in tensor(5, 4), w in tensor(3, 5)) {
        // The chain the fused grouped op replaces, from tape ops
        // (prop_grouped.rs gradchecks the fused op itself).
        check(&[q, k, w], |g, v| {
            let p = g.softmax_rows(g.scale(g.matmul_nt(v[0], v[1]), 0.5));
            let y = g.mul(p, v[2]);
            g.sum_all(y)
        });
    }

    #[test]
    fn fused_linear_matches_unfused(x in tensor(3, 4), w in tensor(4, 5), b in tensor(1, 5)) {
        let g = Graph::new();
        let (vx, vw, vb) = (g.leaf(x.clone()), g.leaf(w.clone()), g.leaf(b.clone()));
        let fused = g.value(g.linear(vx, vw, vb, false));
        // The product, then the bias row added to every row.
        let product = g.value(g.matmul(vx, vw));
        let unfused = product.data().iter().enumerate().map(|(i, &p)| p + b.data()[i % 5]);
        for (a, e) in fused.data().iter().zip(unfused) {
            prop_assert!((a - e).abs() < 1e-5);
        }
    }

    #[test]
    fn fused_attention_matches_unfused(q in tensor(4, 6), k in tensor(4, 6)) {
        let g = Graph::new();
        let (vq, vk) = (g.leaf(q), g.leaf(k));
        let scale = 1.0 / 6.0f32.sqrt();
        let fused = g.value(g.attention_scores_grouped(vq, vk, 0..6, scale, &RowGroups::from_lens(&[4])));
        let unfused = g.value(g.softmax_rows(g.scale(g.matmul_nt(vq, vk), scale)));
        for (a, e) in fused.data().iter().zip(unfused.data()) {
            prop_assert!((a - e).abs() < 1e-5);
        }
    }

    // ----- algebraic invariants of the raw kernels ---------------------------

    #[test]
    fn blocked_matmuls_match_naive_on_random_rectangles(
        m in 1usize..48, k in 1usize..48, n in 1usize..48, seed in 0u64..1u64 << 32
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fill = |r: usize, c: usize| {
            Tensor::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        };
        let a = fill(m, k);
        let b = fill(k, n);
        // f64 reference product.
        let mut expected = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for p in 0..k {
                    s += f64::from(a.get(i, p)) * f64::from(b.get(p, j));
                }
                expected[i * n + j] = s as f32;
            }
        }
        let close = |got: &Tensor| {
            got.data()
                .iter()
                .zip(&expected)
                .all(|(&x, &y)| (x - y).abs() <= 1e-5 * (1.0 + y.abs()))
        };
        prop_assert!(close(&a.matmul(&b)), "nn {m}x{k}x{n}");
        prop_assert!(close(&a.matmul_nt(&b.transpose())), "nt {m}x{k}x{n}");
        prop_assert!(close(&a.transpose().matmul_tn(&b)), "tn {m}x{k}x{n}");
    }

    #[test]
    fn softmax_rows_is_simplex(x in tensor(4, 6)) {
        let s = x.softmax_rows();
        for r in 0..4 {
            let sum: f32 = s.row_slice(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row_slice(r).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor(3, 3), b in tensor(3, 3), c in tensor(3, 3)
    ) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_of_product_is_reversed_product(a in tensor(2, 3), b in tensor(3, 4)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn mean_axis0_preserves_total_mean(x in tensor(5, 3)) {
        prop_assert!((x.mean_axis0().mean() - x.mean()).abs() < 1e-4);
    }
}
