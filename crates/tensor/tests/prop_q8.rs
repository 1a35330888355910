//! The int8 GEMM path held to its definitions, bit for bit: the 6 x 16 tile
//! (AVX-512, VNNI, AVX2 and portable bodies) against one scalar dot product per
//! output, the fused epilogue against the unfused quantize / multiply /
//! rescale / activate sequence, and the tape's shared `QuantizedRows`
//! against quantizing per use.

use emba_tensor::quant::{linear_q8_forward, linear_q8_rows, quantize_row_u8, QuantizedRows, RowQuant};
use emba_tensor::simd::{self, Level};
use emba_tensor::{prof, Graph, QuantizedMatrix, Tensor};

/// Deterministic values in `[0, 1)`.
struct Lcg(u32);

impl Lcg {
    fn next(&mut self) -> u32 {
        self.0 = self.0.wrapping_mul(1664525).wrapping_add(1013904223);
        self.0 >> 8
    }

    fn unit(&mut self) -> f32 {
        self.next() as f32 / (1u32 << 24) as f32
    }

    fn tensor(&mut self, rows: usize, cols: usize, lo: f32, hi: f32) -> Tensor {
        Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| lo + (hi - lo) * self.unit()).collect())
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `A · W` through `tiles_u8i8` at `level`, with `A` at row stride `lda`.
fn run_tiles(level: Level, a: &[u8], m: usize, lda: usize, strips: &[i8], k: usize, n: usize) -> Vec<i32> {
    let mut out = vec![i32::MIN; m * n];
    let mut tiles = 0;
    simd::tiles_u8i8(level, a, m, lda, strips, k.div_ceil(4), n, |row0, rows, col0, cols, block| {
        tiles += 1;
        assert!((1..=simd::Q8_MR).contains(&rows) && (1..=simd::Q8_NR).contains(&cols));
        for r in 0..rows {
            for c in 0..cols {
                let slot = &mut out[(row0 + r) * n + col0 + c];
                assert_eq!(*slot, i32::MIN, "output ({}, {}) finished twice", row0 + r, col0 + c);
                *slot = block[r][c];
            }
        }
    });
    assert_eq!(tiles, m.div_ceil(simd::Q8_MR) * n.div_ceil(simd::Q8_NR));
    out
}

#[test]
fn every_tile_body_matches_the_scalar_definition() {
    let mut rng = Lcg(0x5eed_0001);
    for &m in &[1usize, 5, 6, 7, 13, 64] {
        for &k in &[1usize, 3, 4, 31, 32, 100, 128, 512, 513] {
            for &n in &[1usize, 2, 15, 16, 17, 130, 512] {
                let mut a: Vec<u8> = (0..m * k).map(|_| (rng.next() % 256) as u8).collect();
                let mut w: Vec<i8> = (0..k * n).map(|_| (rng.next() % 255) as i8).collect();
                // The corners a saturating `maddubs` shortcut would get wrong.
                a[..k.min(4)].fill(255);
                w[..k.min(4)].fill(-128);
                let mut expect = vec![0i32; m * n];
                simd::gemm_u8i8_scalar(&a, m, &w, k, n, &mut expect);

                // Rows padded to whole k-groups, with canaries before, after
                // and between them that no sum may pick up.
                let lda = k.next_multiple_of(4) + 8;
                let mut canvas = vec![0xA5u8; 16 + m * lda + 16];
                for r in 0..m {
                    let row = &mut canvas[16 + r * lda..][..k.next_multiple_of(4)];
                    row.fill(0);
                    row[..k].copy_from_slice(&a[r * k..(r + 1) * k]);
                }
                let strips = simd::pack_strips_i8(&w, k, n);
                assert_eq!(strips.len(), n.div_ceil(16) * k.div_ceil(4) * 64, "documented extent");
                for level in simd::available() {
                    let got = run_tiles(level, &canvas[16..16 + (m - 1) * lda + k.next_multiple_of(4)], m, lda, &strips, k, n);
                    assert_eq!(got, expect, "{level:?} m={m} k={k} n={n}");
                }
                for (tier, acc) in simd::on_every_tier(|_| {
                    let mut acc = vec![i32::MIN; 8 + m * n + 8];
                    simd::gemm_u8i8(&a, m, &w, k, n, &mut acc[8..8 + m * n]);
                    acc
                }) {
                    assert_eq!(&acc[8..8 + m * n], &expect[..], "gemm_u8i8 {tier:?} m={m} k={k} n={n}");
                    assert!(acc[..8].iter().chain(&acc[8 + m * n..]).all(|&v| v == i32::MIN), "canary {tier:?} m={m} k={k} n={n}");
                }
            }
        }
    }
}

#[test]
fn a_rows_padding_never_reaches_a_sum() {
    // Whatever lies in a row's pad bytes multiplies the strips' zero bytes.
    let (m, k, n) = (7usize, 30usize, 20usize);
    let mut rng = Lcg(77);
    let a: Vec<u8> = (0..m * k).map(|_| (rng.next() % 256) as u8).collect();
    let w: Vec<i8> = (0..k * n).map(|_| (rng.next() % 255) as i8).collect();
    let mut expect = vec![0i32; m * n];
    simd::gemm_u8i8_scalar(&a, m, &w, k, n, &mut expect);
    let lda = 32;
    let mut canvas = vec![0xFFu8; m * lda];
    for r in 0..m {
        canvas[r * lda..][..k].copy_from_slice(&a[r * k..(r + 1) * k]);
    }
    let strips = simd::pack_strips_i8(&w, k, n);
    for level in simd::available() {
        assert_eq!(run_tiles(level, &canvas, m, lda, &strips, k, n), expect, "{level:?}");
    }
}

/// The quantization `QuantizedMatrix::quantize` performs, column-major.
fn quantize_weights(w: &Tensor) -> (Vec<i8>, Vec<f32>, Vec<i32>) {
    let (k, n) = w.shape();
    let (mut data, mut scales, mut sums) = (vec![0i8; k * n], vec![1.0f32; n], vec![0i32; n]);
    for j in 0..n {
        let max_abs = (0..k).fold(0.0f32, |m, i| m.max(w.data()[i * n + j].abs()));
        if max_abs > 0.0 {
            scales[j] = max_abs / 127.0;
            let inv = 127.0 / max_abs;
            for i in 0..k {
                data[j * k + i] = (w.data()[i * n + j] * inv).round().clamp(-127.0, 127.0) as i8;
                sums[j] += data[j * k + i] as i32;
            }
        }
    }
    (data, scales, sums)
}

/// The unfused forward this path replaced: quantize each row, one scalar
/// integer GEMM, an exact i64 zero-point correction, one f32 rescale, then
/// the activation. Also returns how each row was quantized.
fn unfused_forward(x: &Tensor, w: &Tensor, bias: &Tensor, gelu: bool) -> (Vec<f32>, Vec<RowQuant>) {
    let (m, k) = x.shape();
    let n = w.cols();
    let (wq, scales, sums) = quantize_weights(w);
    let mut q = vec![0u8; m * k];
    let rows: Vec<RowQuant> = (0..m).map(|r| quantize_row_u8(&x.data()[r * k..(r + 1) * k], &mut q[r * k..(r + 1) * k])).collect();
    let mut acc = vec![0i32; m * n];
    simd::gemm_u8i8_scalar(&q, m, &wq, k, n, &mut acc);
    let mut out = vec![0.0f32; m * n];
    for (r, rq) in rows.iter().enumerate() {
        for j in 0..n {
            out[r * n + j] = match *rq {
                RowQuant::Constant(c) => c * (scales[j] * sums[j] as f32) + bias.data()[j],
                RowQuant::Affine { scale, zp } => {
                    let adj = acc[r * n + j] as i64 - zp as i64 * sums[j] as i64;
                    adj as f32 * (scale * scales[j]) + bias.data()[j]
                }
            };
        }
        if gelu {
            simd::gelu_span(&mut out[r * n..(r + 1) * n]);
        }
    }
    (out, rows)
}

/// Inputs that reach every branch of the epilogue: ordinary rows, an all-zero
/// and a constant row, and all-positive rows far from zero whose zero point
/// is so negative that `acc - zp * colsum` leaves i32.
fn epilogue_case(m: usize, k: usize, n: usize, seed: u32) -> (Tensor, Tensor, Tensor) {
    let mut rng = Lcg(seed);
    let mut x = rng.tensor(m, k, -2.0, 3.0).data().to_vec();
    for r in 0..m {
        let row = &mut x[r * k..(r + 1) * k];
        match r % 5 {
            1 => row.fill(0.0),
            2 => row.fill(-1.75),
            3 => row.iter_mut().for_each(|v| *v = 4000.0 + v.abs()),
            _ => {}
        }
    }
    let mut w = rng.tensor(k, n, -0.5, 0.5).data().to_vec();
    for i in 0..k {
        // An all-zero column, and one whose weights share a sign, so its
        // column sum is as large as sums get.
        w[i * n] = 0.0;
        w[i * n + n - 1] = 0.25 + w[i * n + n - 1].abs();
    }
    (Tensor::from_vec(m, k, x), Tensor::from_vec(k, n, w), rng.tensor(1, n, -1.0, 1.0))
}

#[test]
fn fused_epilogue_matches_the_unfused_forward_bit_for_bit() {
    for &(m, k, n) in &[(64usize, 128usize, 128usize), (13, 100, 35), (7, 512, 16), (1, 31, 1), (20, 64, 130)] {
        let (x, w, bias) = epilogue_case(m, k, n, (m * 31 + n) as u32);
        let q = QuantizedMatrix::quantize(&w);
        let (_, scales, sums) = quantize_weights(&w);
        assert_eq!(q.scales(), &scales[..]);
        assert_eq!(q.col_sums(), &sums[..]);
        for gelu in [false, true] {
            let (expect, rows) = unfused_forward(&x, &w, &bias, gelu);
            // The case must reach the i64 correction, the i32 one and the
            // closed form, or it proves less than it says.
            let max_sum = sums.iter().map(|s| s.unsigned_abs() as u64).max().unwrap().max(1);
            let limit = (i32::MAX as u64 - 255 * 127 * k as u64) / max_sum;
            let wide = rows.iter().filter(|rq| matches!(rq, RowQuant::Affine { zp, .. } if zp.unsigned_abs() as u64 > limit)).count();
            let narrow = rows.iter().filter(|rq| matches!(rq, RowQuant::Affine { zp, .. } if zp.unsigned_abs() as u64 <= limit)).count();
            let constant = rows.iter().filter(|rq| matches!(rq, RowQuant::Constant(_))).count();
            if m >= 5 {
                assert!(wide > 0 && narrow > 0 && constant > 0, "m={m} k={k} n={n}: {wide} i64 / {narrow} i32 / {constant} constant rows");
            }
            let expect: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
            for (tier, out) in simd::on_every_tier(|_| linear_q8_forward(&x, &q, &bias, gelu)) {
                assert_eq!(bits(&out), expect, "{tier:?} m={m} k={k} n={n} gelu={gelu}");
            }
        }
    }
}

#[test]
fn a_row_alone_equals_the_row_inside_a_batch() {
    let (x, w, bias) = epilogue_case(64, 128, 48, 9);
    let q = QuantizedMatrix::quantize(&w);
    let whole = linear_q8_forward(&x, &q, &bias, true);
    for r in 0..64 {
        let row = Tensor::from_vec(1, 128, x.data()[r * 128..(r + 1) * 128].to_vec());
        let alone = linear_q8_forward(&row, &q, &bias, true);
        let inside = Tensor::from_vec(1, 48, whole.data()[r * 48..(r + 1) * 48].to_vec());
        assert_eq!(bits(&alone), bits(&inside), "row {r}");
    }
}

#[test]
fn a_non_finite_element_makes_its_whole_row_nan_on_every_tier() {
    let (mut x, w, bias) = (Lcg(3).tensor(9, 40, -1.0, 1.0).data().to_vec(), Lcg(4).tensor(40, 16, -1.0, 1.0), Lcg(5).tensor(1, 16, -1.0, 1.0));
    // In the vector body and in the tail of the min/max pass.
    for (row, at, bad) in [(1, 0, f32::NAN), (3, 39, f32::NAN), (5, 17, f32::INFINITY), (7, 33, f32::NEG_INFINITY)] {
        x[row * 40 + at] = bad;
    }
    let x = Tensor::from_vec(9, 40, x);
    let q = QuantizedMatrix::quantize(&w);
    for gelu in [false, true] {
        for (tier, out) in simd::on_every_tier(|_| linear_q8_forward(&x, &q, &bias, gelu)) {
            for r in 0..9 {
                let row = &out.data()[r * 16..(r + 1) * 16];
                if r % 2 == 1 {
                    assert!(row.iter().all(|v| v.is_nan()), "{tier:?} gelu={gelu}: poisoned row {r} is {row:?}");
                } else {
                    assert!(row.iter().all(|v| v.is_finite()), "{tier:?} gelu={gelu}: clean row {r} is {row:?}");
                }
            }
        }
    }
    let mut q8 = [0u8; 40];
    for (tier, rq) in simd::on_every_tier(|_| quantize_row_u8(&x.data()[40..80], &mut q8.clone())) {
        assert!(matches!(rq, RowQuant::Constant(c) if c.is_nan()), "{tier:?}: {rq:?}");
    }
    assert!(matches!(quantize_row_u8(&x.data()[..40], &mut q8), RowQuant::Affine { .. }));
}

#[test]
fn quantized_rows_match_row_by_row_quantization() {
    // Including a width that needs pad bytes, and reuse of one buffer for a
    // wider and then a narrower input.
    let mut shared = QuantizedRows::default();
    for &(m, k) in &[(5usize, 128usize), (3, 513), (7, 30), (0, 16)] {
        let x = Lcg((m + k) as u32).tensor(m, k, -3.0, 1.0);
        shared.requantize(&x);
        let fresh = QuantizedRows::quantize(&x);
        for rows in [&shared, &fresh] {
            assert_eq!(rows.shape(), (m, k));
            assert_eq!(rows.stride(), k.next_multiple_of(4));
            assert_eq!(rows.q().len(), m * rows.stride());
            for r in 0..m {
                let mut q = vec![0u8; k];
                let rq = quantize_row_u8(&x.data()[r * k..(r + 1) * k], &mut q);
                assert_eq!(rows.rows()[r], rq);
                let stored = &rows.q()[r * rows.stride()..(r + 1) * rows.stride()];
                assert_eq!(&stored[..k], &q[..]);
                assert!(stored[k..].iter().all(|&b| b == 0), "pad bytes are zero");
            }
        }
    }
}

#[test]
fn projections_sharing_one_input_equal_independent_quantizations() {
    let mut rng = Lcg(11);
    let x = rng.tensor(37, 128, -2.0, 2.0);
    let heads: Vec<(QuantizedMatrix, Tensor)> = (0..3).map(|_| (QuantizedMatrix::quantize(&rng.tensor(128, 128, -0.3, 0.3)), rng.tensor(1, 128, -0.1, 0.1))).collect();
    let g = Graph::new();
    let h = g.leaf(x.clone());
    let shared: Vec<Tensor> = heads.iter().map(|(w, b)| g.value(g.linear_q8(h, w, b, false))).collect();
    for ((w, b), got) in heads.iter().zip(&shared) {
        assert_eq!(bits(got), bits(&linear_q8_forward(&x, w, b, false)));
        assert_eq!(bits(got), bits(&linear_q8_rows(&QuantizedRows::quantize(&x), w, b, false)));
    }
    g.recycle();
}

#[test]
fn quantized_rows_are_keyed_by_node_and_die_with_the_tape() {
    let mut rng = Lcg(23);
    let (xa, xb, xc) = (rng.tensor(10, 64, -1.0, 1.0), rng.tensor(10, 64, 0.0, 5.0), rng.tensor(10, 64, -9.0, -2.0));
    let (w, b) = (QuantizedMatrix::quantize(&rng.tensor(64, 32, -1.0, 1.0)), rng.tensor(1, 32, -1.0, 1.0));
    let expect = |x: &Tensor, gelu| bits(&linear_q8_forward(x, &w, &b, gelu));
    prof::reset();
    let profiling = prof::enable(true);
    let g = Graph::new();
    let (a, bb) = (g.leaf(xa.clone()), g.leaf(xb.clone()));
    // a, then another node of the same shape, then a again — and the fused
    // op's own output feeding the next one.
    assert_eq!(bits(&g.value(g.linear_q8(a, &w, &b, false))), expect(&xa, false));
    assert_eq!(bits(&g.value(g.linear_q8(bb, &w, &b, false))), expect(&xb, false));
    assert_eq!(bits(&g.value(g.linear_q8(a, &w, &b, true))), expect(&xa, true));
    assert_eq!(bits(&g.value(g.linear_q8(a, &w, &b, false))), expect(&xa, false));
    g.recycle();
    // The profiler charges quantized work to rows of its own.
    prof::enable(profiling);
    let calls = |op| prof::report().ops.iter().filter(|o| o.op == op).map(|o| o.calls).sum::<u64>();
    assert_eq!((calls("linear_q8"), calls("linear_q8_gelu")), (3, 1));
    // A new tape's node 0 is a different value under the same index.
    let g = Graph::new();
    let c = g.leaf(xc.clone());
    assert_eq!(bits(&g.value(g.linear_q8(c, &w, &b, false))), expect(&xc, false));
    g.recycle();
}

#[test]
fn quantize_span_matches_its_scalar_twin_at_every_length() {
    let mut rng = Lcg(99);
    for len in (0..=70).chain([127, 128, 129, 512]) {
        // Values that clamp at both ends and exact .5 products for the
        // ties-to-even contract.
        let xs: Vec<f32> = (0..len).map(|i| if i % 11 == 0 { 0.25 * (i as f32 - 20.0) } else { 300.0 * rng.unit() - 100.0 }).collect();
        let mut expect = vec![0u8; len];
        simd::quantize_span_u8_scalar(&xs, 2.0, -37, &mut expect);
        let runs = simd::on_every_tier(|_| {
            let mut got = vec![0xEEu8; len + 2];
            simd::quantize_span_u8(&xs, 2.0, -37, &mut got[1..len + 1]);
            (got, simd::min_max(&xs))
        });
        for (tier, (got, min_max)) in &runs {
            assert_eq!(&got[1..len + 1], &expect[..], "{tier:?} len {len}");
            assert_eq!((got[0], got[len + 1]), (0xEE, 0xEE), "{tier:?} len {len}: wrote outside the span");
            assert_eq!(*min_max, runs[0].1 .1, "{tier:?} min_max len {len}");
        }
    }
}

#[test]
#[should_panic(expected = "quantize_row_u8")]
fn quantize_row_rejects_a_short_destination() {
    quantize_row_u8(&[0.5; 12], &mut [0u8; 11]);
}

#[test]
#[should_panic(expected = "inner dims")]
fn linear_rejects_rows_of_the_wrong_width() {
    let w = QuantizedMatrix::quantize(&Tensor::zeros(8, 4));
    linear_q8_rows(&QuantizedRows::quantize(&Tensor::zeros(2, 7)), &w, &Tensor::zeros(1, 4), false);
}
