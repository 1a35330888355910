//! Property-based validation of the int8 quantization scheme: round-trip
//! error bounds, per-channel scale behavior on adversarial distributions,
//! and the quantized GEMM against the f32 reference.

use emba_tensor::quant::{linear_q8_forward, quantize_row_u8, RowQuant};
use emba_tensor::simd;
use emba_tensor::{QuantizedMatrix, Tensor};
use proptest::prelude::*;

/// Strategy: a `(rows, cols)` tensor with values spanning several orders of
/// magnitude, including exact zeros.
fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-4.0f32..4.0, rows * cols).prop_map(move |mut data| {
        // Mix in exact zeros and tiny magnitudes so quantization sees
        // adversarial distributions, not just uniform values.
        for (i, v) in data.iter_mut().enumerate() {
            if i % 7 == 0 {
                *v = 0.0;
            } else if i % 5 == 0 {
                *v *= 0.0025;
            }
        }
        Tensor::from_vec(rows, cols, data)
    })
}

/// Symmetric round-to-nearest with 127 levels puts every reconstructed
/// weight within half a quantization step of the original, where the step
/// is the column's own max magnitude over 127.
fn column_bound(w: &Tensor, j: usize) -> f32 {
    let (k, n) = w.shape();
    let mut max_abs = 0.0f32;
    for i in 0..k {
        max_abs = max_abs.max(w.data()[i * n + j].abs());
    }
    // Half a step, padded slightly for the f32 divide/multiply round trip.
    max_abs / 254.0 + max_abs * 1e-6
}

/// One activation step: asymmetric u8 over the row's own `[min, max]`
/// range. The clamp at the range extremes can cost slightly over half a
/// step, so bounds use a full step.
fn row_step(x: &[f32]) -> f32 {
    let mut mn = f32::INFINITY;
    let mut mx = f32::NEG_INFINITY;
    for &v in x {
        mn = mn.min(v);
        mx = mx.max(v);
    }
    (mx - mn) / 255.0
}

/// Dequantized activation row under the exact scheme the forward uses.
fn dequant_row(x: &[f32]) -> Vec<f64> {
    let mut q = vec![0u8; x.len()];
    match quantize_row_u8(x, &mut q) {
        RowQuant::Constant(c) => vec![c as f64; x.len()],
        RowQuant::Affine { scale, zp } => q
            .iter()
            .map(|&qi| (qi as i64 - zp as i64) as f64 * scale as f64)
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn quantize_dequantize_round_trip_within_half_step(w in tensor(13, 9)) {
        let q = QuantizedMatrix::quantize(&w);
        let back = q.dequantize();
        let (k, n) = w.shape();
        for j in 0..n {
            let bound = column_bound(&w, j);
            for i in 0..k {
                let orig = w.data()[i * n + j];
                let rec = back.data()[i * n + j];
                prop_assert!(
                    (orig - rec).abs() <= bound,
                    "w[{i},{j}]={orig} reconstructed {rec}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn row_quantization_round_trips(xs in proptest::collection::vec(-8.0f32..8.0, 1..64)) {
        let mut q = vec![0u8; xs.len()];
        match quantize_row_u8(&xs, &mut q) {
            RowQuant::Constant(c) => {
                // Only returned when the row's spread is negligible against
                // its magnitude (or the row is all-zero / a single value).
                let mag = xs.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                for &v in &xs {
                    prop_assert!((v - c).abs() <= mag * 1e-6 + f32::EPSILON);
                }
                prop_assert!(q.iter().all(|&b| b == 0));
            }
            RowQuant::Affine { scale, zp } => {
                let step = row_step(&xs);
                prop_assert!((scale - step).abs() <= step * 1e-5);
                let bound = step + step * 1e-4;
                for (&orig, &qi) in xs.iter().zip(&q) {
                    let rec = (qi as i64 - zp as i64) as f32 * scale;
                    prop_assert!(
                        (orig - rec).abs() <= bound,
                        "{orig} -> {rec}, step {step}"
                    );
                }
            }
        }
    }

    /// The quantized affine op against an f64 reference of the *quantized
    /// model*: the only divergence allowed is the final f32 rescale
    /// round-off, so the tolerance is tiny and independent of how coarse
    /// quantization was.
    #[test]
    fn linear_q8_matches_dequantized_reference(
        x in tensor(5, 24),
        w in tensor(24, 11),
        b in tensor(1, 11),
    ) {
        let q = QuantizedMatrix::quantize(&w);
        let out = linear_q8_forward(&x, &q, &b, false);
        let (m, k) = x.shape();
        let n = q.out_dim();
        let wq = q.dequantize();
        for r in 0..m {
            let xhat = dequant_row(&x.data()[r * k..(r + 1) * k]);
            for j in 0..n {
                let mut acc = 0.0f64;
                for (i, xv) in xhat.iter().enumerate() {
                    acc += xv * wq.data()[i * n + j] as f64;
                }
                let expect = acc + b.data()[j] as f64;
                let got = out.data()[r * n + j] as f64;
                prop_assert!(
                    (expect - got).abs() <= 1e-3 * expect.abs().max(1.0),
                    "out[{r},{j}]: {got} vs reference {expect}"
                );
            }
        }
    }

    /// End-to-end int8 linear against the f32 linear: bounded by the sum of
    /// the weight and activation quantization errors through a length-k dot.
    #[test]
    fn linear_q8_tracks_f32_within_documented_bound(
        x in tensor(4, 32),
        w in tensor(32, 9),
    ) {
        let (m, k) = x.shape();
        let n = w.shape().1;
        let b = Tensor::zeros(1, n);
        let q = QuantizedMatrix::quantize(&w);
        let out = linear_q8_forward(&x, &q, &b, false);
        for r in 0..m {
            let row = &x.data()[r * k..(r + 1) * k];
            let x_max = row.iter().fold(0.0f32, |mx, v| mx.max(v.abs()));
            // Full-step activation bound (the clamp at the range extremes
            // can exceed half a step), half-step weight bound per column.
            let e_x = row_step(row) as f64 * (1.0 + 1e-4) + 1e-7;
            for j in 0..n {
                let mut w_max = 0.0f32;
                let mut exact = 0.0f64;
                for (i, xv) in row.iter().enumerate() {
                    let wij = w.data()[i * n + j];
                    w_max = w_max.max(wij.abs());
                    exact += *xv as f64 * wij as f64;
                }
                let e_w = w_max as f64 / 254.0;
                let bound = (k as f64)
                    * (e_x * w_max as f64 + e_w * x_max as f64 + e_x * e_w)
                    + 1e-4;
                let got = out.data()[r * n + j] as f64;
                prop_assert!(
                    (exact - got).abs() <= bound,
                    "out[{r},{j}]: int8 {got} vs f32 {exact}, bound {bound}"
                );
            }
        }
    }
}

#[test]
fn all_zero_channel_gets_unit_scale_and_exact_zeros() {
    // Column 1 is identically zero — an unguarded max/127 would divide by
    // zero and poison the whole matrix with NaN.
    let w = Tensor::from_rows(&[&[1.0, 0.0, -3.0], &[0.5, 0.0, 2.0], &[-1.0, 0.0, 0.25]]);
    let q = QuantizedMatrix::quantize(&w);
    assert_eq!(q.scales()[1], 1.0);
    assert_eq!(q.col_sums()[1], 0);
    let back = q.dequantize();
    for i in 0..3 {
        assert_eq!(back.data()[i * 3 + 1], 0.0);
    }
    assert!(back.data().iter().all(|v| v.is_finite()));
}

#[test]
fn single_outlier_sets_the_channel_scale() {
    // One huge weight in a column of tiny ones: per-channel scaling clamps
    // the damage to that column. The outlier itself must round-trip exactly
    // (it sits on the +-127 level) and the *other* column keeps fine
    // resolution — the failure mode of per-tensor scaling.
    let w = Tensor::from_rows(&[&[1000.0, 0.001], &[0.001, 0.002], &[-0.002, -0.003]]);
    let q = QuantizedMatrix::quantize(&w);
    assert!((q.scales()[0] - 1000.0 / 127.0).abs() < 1e-3);
    let back = q.dequantize();
    assert!((back.data()[0] - 1000.0).abs() < 1e-2);
    // Fine column: every entry within half its own (tiny) step.
    let fine_bound = 0.003 / 254.0 + 1e-6;
    for i in 0..3 {
        let orig = w.data()[i * 2 + 1];
        let rec = back.data()[i * 2 + 1];
        assert!(
            (orig - rec).abs() <= fine_bound,
            "fine col: {orig} vs {rec}"
        );
    }
}

#[test]
fn constant_and_positive_rows_stay_exact_or_affine() {
    // All-zero row: exact bias. Constant non-zero row: exact closed form
    // over the dequantized weights. All-positive row: the zero point goes
    // negative and the affine form must still reconstruct.
    let w = Tensor::from_rows(&[&[0.5, -1.0], &[0.25, 2.0], &[-0.75, 0.5]]);
    let q = QuantizedMatrix::quantize(&w);
    let b = Tensor::from_vec(1, 2, vec![0.125, -0.5]);
    let x = Tensor::from_rows(&[
        &[0.0, 0.0, 0.0],
        &[3.0, 3.0, 3.0],
        &[5.0, 6.0, 7.0],
    ]);
    let out = linear_q8_forward(&x, &q, &b, false);
    // Row 0: exactly the bias.
    assert_eq!(&out.data()[..2], b.data());
    // Row 1: c * sum(dequantized column) + bias, exactly.
    let wq = q.dequantize();
    for j in 0..2 {
        let expect = 3.0 * (0..3).map(|i| wq.data()[i * 2 + j]).sum::<f32>() + b.data()[j];
        assert!((out.data()[2 + j] - expect).abs() <= 1e-5, "constant row");
    }
    // Row 2: affine with negative zero point; within the documented bound.
    let step = (7.0 - 5.0) / 255.0f64;
    for j in 0..2 {
        let exact: f64 = (0..3)
            .map(|i| x.data()[6 + i] as f64 * w.data()[i * 2 + j] as f64)
            .sum::<f64>()
            + b.data()[j] as f64;
        let w_max: f64 = (0..3).map(|i| (w.data()[i * 2 + j] as f64).abs()).fold(0.0, f64::max);
        let bound = 3.0 * (step * w_max + w_max / 254.0 * 7.0 + step * w_max / 254.0) + 1e-4;
        assert!(
            (out.data()[4 + j] as f64 - exact).abs() <= bound,
            "positive row: {} vs {exact}",
            out.data()[4 + j]
        );
    }
}

#[test]
fn scalar_and_simd_forwards_agree_bitwise() {
    // The integer GEMM is exact at every tier, quantization rounds
    // ties-to-even at every tier, and the rescale applies identical f32 ops
    // per element, so every tier must reproduce the portable result
    // bit-for-bit.
    let mut vals = Vec::new();
    let mut s = 0x9e37_79b9u32;
    for _ in 0..(7 * 67 + 67 * 5 + 5) {
        s = s.wrapping_mul(1664525).wrapping_add(1013904223);
        vals.push(((s >> 16) as f32 / 32768.0) - 1.0);
    }
    let x = Tensor::from_vec(7, 67, vals[..7 * 67].to_vec());
    let w = Tensor::from_vec(67, 5, vals[7 * 67..7 * 67 + 67 * 5].to_vec());
    let b = Tensor::from_vec(1, 5, vals[7 * 67 + 67 * 5..].to_vec());
    let q = QuantizedMatrix::quantize(&w);
    let runs = simd::on_every_tier(|_| linear_q8_forward(&x, &q, &b, true));
    for (tier, out) in &runs {
        assert_eq!(out.data(), runs[0].1.data(), "{tier:?} differs from the portable tier");
    }
}
