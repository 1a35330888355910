//! Property-based validation of the libm-free activation, softmax and
//! layer-norm ops: accuracy against libm / f64 references, non-finite
//! propagation, tier bit-identity, and composition independence (a row's
//! result is bit-equal alone, inside a batch, or under a wider padded `W`).

use emba_tensor::{fwd, simd, Graph, RowGroups, Tensor};
use proptest::prelude::*;

const GELU_C: f64 = 0.797_884_560_802_865_4;
const GELU_K: f64 = 0.044_715;

/// libm tanh GELU and its analytic derivative.
fn gelu_ref(x: f32) -> (f64, f64) {
    let x = f64::from(x);
    let t = (GELU_C * (x + GELU_K * x * x * x)).tanh();
    let du = GELU_C * (1.0 + 3.0 * GELU_K * x * x);
    (0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
}

fn gelu_bound(x: f32) -> f64 {
    2e-6 * f64::from(x.abs()) + 1e-7
}

/// Activations over the working range, with the ±100 tails mixed in.
fn activations(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-12.0f32..12.0, rows * cols).prop_map(move |mut data| {
        let n = data.len();
        data[0] = 100.0;
        data[n - 1] = -100.0;
        data[n / 2] = 0.0;
        Tensor::from_vec(rows, cols, data)
    })
}

fn tensor(rows: usize, cols: usize, lo: f32, hi: f32) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(lo..hi, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

fn softmax_f64(row: &[f32]) -> Vec<f64> {
    let max = row.iter().map(|&v| f64::from(v)).fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = row.iter().map(|&v| (f64::from(v) - max).exp()).sum();
    row.iter().map(|&v| (f64::from(v) - max).exp() / sum).collect()
}

/// Row `r` of `t` as a `[1, cols]` tensor.
fn row_of(t: &Tensor, r: usize) -> Tensor {
    Tensor::from_vec(1, t.cols(), t.row_slice(r).to_vec())
}

/// `t` with one entry replaced.
fn with_entry(t: &Tensor, at: usize, v: f32) -> Tensor {
    let mut data = t.data().to_vec();
    data[at] = v;
    Tensor::from_vec(t.rows(), t.cols(), data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gelu_forward_and_backward_track_libm(x in activations(5, 13), w in tensor(5, 13, -2.0, 2.0)) {
        let g = Graph::new();
        let vx = g.leaf(x.clone());
        let y = g.gelu(vx);
        let loss = g.sum_all(g.mul(y, g.leaf(w.clone())));
        let grads = g.backward(loss);
        let dx = grads.get(vx).unwrap();
        let vy = g.value(y);
        for i in 0..x.len() {
            let xi = x.data()[i];
            let (want, dwant) = gelu_ref(xi);
            prop_assert!((f64::from(vy.data()[i]) - want).abs() <= gelu_bound(xi),
                "gelu({xi}) = {}, libm {want}", vy.data()[i]);
            let wi = f64::from(w.data()[i]);
            prop_assert!((f64::from(dx.data()[i]) - wi * dwant).abs() <= 1e-5 * wi.abs().max(1.0),
                "d gelu({xi}) = {}, libm {}", dx.data()[i], wi * dwant);
        }
    }

    #[test]
    fn linear_bias_gelu_tracks_libm_on_its_own_pre_activation(
        x in tensor(6, 5, -3.0, 3.0), w in tensor(5, 7, -1.5, 1.5), b in tensor(1, 7, -1.0, 1.0),
    ) {
        let g = Graph::new();
        let (vx, vw, vb) = (g.leaf(x), g.leaf(w), g.leaf(b));
        let pre = g.value(g.linear(vx, vw, vb, false));
        let fused = g.linear(vx, vw, vb, true);
        let out = g.value(fused);
        for (&p, &o) in pre.data().iter().zip(out.data()) {
            prop_assert!((f64::from(o) - gelu_ref(p).0).abs() <= gelu_bound(p), "gelu({p}) = {o}");
        }
        // With an all-ones upstream gradient the bias gradient is the column
        // sum of gelu'(pre).
        let grads = g.backward(g.sum_all(fused));
        let db = grads.get(vb).unwrap();
        for j in 0..7 {
            let want: f64 = (0..6).map(|r| gelu_ref(pre.get(r, j)).1).sum();
            prop_assert!((f64::from(db.data()[j]) - want).abs() <= 6.0 * 1e-5, "dbias[{j}]");
        }
    }

    #[test]
    fn softmax_rows_is_a_distribution_close_to_f64(width in 1usize..70, seed in 0u32..10_000) {
        let mut s = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
        let data: Vec<f32> = (0..3 * width).map(|_| {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (s >> 8) as f32 / (1u32 << 24) as f32 * 16.0 - 8.0
        }).collect();
        let x = Tensor::from_vec(3, width, data);
        let p = x.softmax_rows();
        for r in 0..3 {
            let want = softmax_f64(x.row_slice(r));
            let sum: f64 = p.row_slice(r).iter().map(|&v| f64::from(v)).sum();
            prop_assert!((sum - 1.0).abs() <= 1e-6, "width {width} row {r} sums to {sum}");
            for (&got, &e) in p.row_slice(r).iter().zip(&want) {
                prop_assert!((f64::from(got) - e).abs() <= 1e-6, "width {width}: {got} vs {e}");
            }
        }
    }

    #[test]
    fn layer_norm_tracks_f64(width in 1usize..140, x in tensor(2, 140, -4.0, 4.0), gb in tensor(2, 140, -1.5, 1.5)) {
        let x = x.slice_cols(0, width);
        let gamma = row_of(&gb, 0).slice_cols(0, width);
        let beta = row_of(&gb, 1).slice_cols(0, width);
        let g = Graph::new();
        let y = g.value(g.layer_norm(g.leaf(x.clone()), g.leaf(gamma.clone()), g.leaf(beta.clone())));
        for r in 0..2 {
            let row = x.row_slice(r);
            let n = width as f64;
            let mean = row.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
            let var = row.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>() / n;
            let istd = 1.0 / (var + f64::from(emba_tensor::NORM_EPS)).sqrt();
            for (c, &v) in row.iter().enumerate() {
                let want = f64::from(gamma.data()[c]) * (f64::from(v) - mean) * istd + f64::from(beta.data()[c]);
                prop_assert!((f64::from(y.get(r, c)) - want).abs() <= 1e-5, "width {width} [{r},{c}]");
            }
        }
    }

    #[test]
    fn non_finite_inputs_come_out_non_finite(x in tensor(3, 11, -2.0, 2.0), at in 0usize..33) {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let xb = with_entry(&x, at, bad);
            let (r, c) = (at / 11, at % 11);
            let g = Graph::new();
            let v = g.leaf(xb.clone());
            prop_assert!(!g.value(g.gelu(v)).get(r, c).is_finite(), "gelu({bad})");
            let sm = g.value(g.softmax_rows(v));
            prop_assert!(sm.row_slice(r).iter().all(|p| !p.is_finite()), "softmax row with {bad}: {sm:?}");
            let ones = g.leaf(Tensor::ones(1, 11));
            let zeros = g.leaf(Tensor::zeros(1, 11));
            let ln = g.value(g.layer_norm(v, ones, zeros));
            prop_assert!(ln.row_slice(r).iter().all(|p| !p.is_finite()), "layer_norm row with {bad}");
            // A poisoned query row poisons its row of attention scores.
            let att = g.value(g.attention_scores_grouped(v, g.leaf(x.clone()), 0..11, 0.3, &RowGroups::from_lens(&[3])));
            prop_assert!(att.row_slice(r).iter().all(|p| !p.is_finite()), "attention row with {bad}");
            let w = g.leaf(Tensor::ones(11, 4));
            let b = g.leaf(Tensor::zeros(1, 4));
            let fused = g.value(g.linear(v, w, b, true));
            prop_assert!(fused.row_slice(r).iter().all(|p| !p.is_finite()), "linear_bias_gelu row with {bad}");
        }
    }

    #[test]
    fn a_row_is_bit_equal_alone_and_inside_a_batch(batch in tensor(64, 37, -6.0, 6.0), k in 0usize..64, gb in tensor(2, 37, -1.5, 1.5)) {
        let alone = row_of(&batch, k);
        let (gamma, beta) = (row_of(&gb, 0), row_of(&gb, 1));
        let g = Graph::new();
        let (vb, va) = (g.leaf(batch.clone()), g.leaf(alone));
        let (vg, vbeta) = (g.leaf(gamma), g.leaf(beta));
        let pairs = [
            (g.gelu(vb), g.gelu(va)),
            (g.softmax_rows(vb), g.softmax_rows(va)),
            (g.layer_norm(vb, vg, vbeta), g.layer_norm(va, vg, vbeta)),
        ];
        for (i, (in_batch, single)) in pairs.into_iter().enumerate() {
            let (in_batch, single) = (g.value(in_batch), g.value(single));
            prop_assert_eq!(bits(in_batch.row_slice(k)), bits(single.data()), "op {} row {}", i, k);
        }
    }

    #[test]
    fn grouped_softmaxes_ignore_a_wider_neighbour(
        ta in 1usize..6, tb in 1usize..9, extra in 1usize..8, seed in 0u64..1000,
    ) {
        // One pair alone against the same pair launched before a second pair
        // whose right side is wider: the AOA op's column and row softmaxes
        // run over the pair's own `ta × tb` block either way.
        let ta2 = 3;
        let wide = tb + extra;
        let val = |r: usize, c: usize| ((seed as usize + 31 * r + 7 * c) % 97) as f32 * 0.11 - 5.0;
        let rows = |n: usize, salt: usize| Tensor::from_vec(n, 5, (0..n * 5).map(|i| val(i / 5 + salt, i % 5) * 0.2).collect());
        let (e1, e2, e1_wide, e2_wide) = (rows(ta, 0), rows(tb, 11), rows(ta2, 23), rows(wide, 37));
        let (ga1, ga2) = (RowGroups::from_lens(&[ta]), RowGroups::from_lens(&[ta, ta2]));
        let (gb1, gb2) = (RowGroups::from_lens(&[tb]), RowGroups::from_lens(&[tb, wide]));
        let (mut alone, mut alone_gamma) = (vec![0.0; 5], vec![0.0; ta]);
        fwd::aoa_pool_into(&[(e1.data(), e2.data())], 5, &mut alone, Some(&mut alone_gamma));
        let (mut both, mut both_gamma) = (vec![0.0; 10], vec![0.0; ta + ta2]);
        fwd::aoa_pool_into(&[(e1.data(), e2.data()), (e1_wide.data(), e2_wide.data())], 5, &mut both, Some(&mut both_gamma));
        prop_assert_eq!(bits(&alone), bits(&both[..5]));
        prop_assert_eq!(bits(&alone_gamma), bits(&both_gamma[..ta]));
        let g = Graph::new();

        // Token-attention column softmax: a segment alone vs packed first.
        let col: Vec<f32> = (0..ta + ta2).map(|r| val(r, 3)).collect();
        let seg = g.softmax_col_grouped(g.leaf(Tensor::column(&col[..ta])), &ga1);
        let packed = g.softmax_col_grouped(g.leaf(Tensor::column(&col)), &ga2);
        prop_assert_eq!(bits(g.value(seg).data()), bits(&g.value(packed).data()[..ta]));

        // Self-attention: group 0's scores alone vs before a longer sequence.
        let d = 4;
        let q1 = Tensor::from_vec(tb, d, (0..tb * d).map(|i| val(i / d, i % d) * 0.3).collect());
        let q2 = Tensor::from_vec(tb + wide, d, (0..(tb + wide) * d).map(|i| val(i / d, i % d) * 0.3).collect());
        let alone = g.attention_scores_grouped(g.leaf(q1.clone()), g.leaf(q1), 0..d, 0.5, &gb1);
        let both = g.attention_scores_grouped(g.leaf(q2.clone()), g.leaf(q2), 0..d, 0.5, &gb2);
        let (alone, both) = (g.value(alone), g.value(both));
        for r in 0..tb {
            prop_assert_eq!(bits(alone.row_slice(r)), bits(&both.row_slice(r)[..tb]));
        }
    }
}

/// Graph-level twin of the kernel tier tests: no tier changes a bit of gelu,
/// softmax, attention or layer-norm, forward or backward.
#[test]
fn ops_are_bit_identical_across_tiers() {
    let data: Vec<f32> = (0..9 * 21).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.11).collect();
    let x = Tensor::from_vec(9, 21, data);
    let run = || {
        let g = Graph::new();
        let v = g.leaf(x.clone());
        let gamma = g.leaf(Tensor::full(1, 21, 0.7));
        let beta = g.leaf(Tensor::full(1, 21, -0.2));
        let h = g.layer_norm(g.gelu(v), gamma, beta);
        let p = g.attention_scores_grouped(h, v, 0..21, 0.2, &RowGroups::from_lens(&[9]));
        let loss = g.mean_all(g.softmax_cols(p));
        let grads = g.backward(loss);
        let mut out = bits(g.value(p).data());
        out.extend(bits(grads.get(v).unwrap().data()));
        out.extend(bits(grads.get(gamma).unwrap().data()));
        out
    };
    let runs = simd::on_every_tier(|_| run());
    for (tier, out) in &runs {
        assert_eq!(out, &runs[0].1, "{tier:?} differs from the portable tier");
    }
}
