//! Post-training int8 quantization of linear weights.
//!
//! * **Weights** are quantized once per matrix, per *output channel*
//!   (column), symmetric: `scale_j = max_i |W[i,j]| / 127`, `q[i,j] =
//!   round(W[i,j] / scale_j)`; an all-zero column gets `scale_j = 1.0` and
//!   exact zeros. They are stored packed for the tile
//!   (`simd::pack_strips_i8`: 16-column strips of 4-byte k-groups, zero
//!   padded), beside their per-column sums, which absorb the activation
//!   zero-points below.
//! * **Activations** are quantized per row at runtime, *asymmetric* u8:
//!   `s = (max - min) / 255`, `zp = round(-min / s)`, `q = clamp(round(x /
//!   s) + zp, 0, 255)`. GELU outputs and other one-sided activations would
//!   waste half the levels of a symmetric scheme, and unsigned x signed is
//!   what `vpdpbusd` multiplies natively. An input is quantized once, into a
//!   [`QuantizedRows`], however many weight matrices it meets (Q, K and V).
//! * A row whose spread is negligible against its magnitude (including the
//!   all-zero row) cannot be represented affinely and takes the exact closed
//!   form `c * scale_j * colsum_j + bias_j`. A row holding an infinity or a
//!   NaN takes it with `c = NaN`: all its outputs are NaN, on every tier.
//! * **Execution** ([`linear_q8_rows`]) has no intermediate matrix: each
//!   6 x 16 tile of exact i32 sums leaves `simd::tiles_u8i8` straight into
//!   the f32 output as `adj as f32 * (s * scale_j) + bias_j` — a multiply
//!   and an add, never fused — where `adj = acc_j - zp * colsum_j` unfolds
//!   the zero point. `adj` is taken in i32 when `|zp| * max|colsum| + 255 *
//!   127 * k` fits one (always, for a row that spans zero: `zp` is then in
//!   `[0, 255]`) and in i64 otherwise; both are exact, so they convert to
//!   the same f32. Integer sums do not depend on the order or the tile they
//!   were taken in, so the output is bit-identical across tiers and to the
//!   unfused quantize / GEMM / rescale / GELU sequence. Six rows cross every
//!   strip before the next six start, so they are whole, and in L1, when the
//!   optional GELU sweeps them.
//!
//! Error bound: each weight lands within `scale_j / 2 = max|W[:,j]| / 254`
//! of its f32 value; each activation within one step `(max - min) / 255`
//! (the clamp at the extremes can cost slightly over a half-step). A
//! length-k dot therefore deviates by at most
//! `k * (e_x * max|w| + e_w * max|x| + e_x * e_w)` — checked directly by
//! `tests/prop_quant.rs`; `tests/prop_q8.rs` holds the bit-level claims.

use crate::pool;
use crate::simd;
use crate::tensor::Tensor;

/// A linear weight matrix quantized to int8 with per-output-channel scales.
///
/// Built once (at checkpoint restore or on first quantized forward) and
/// shared immutably afterwards.
#[derive(Debug)]
pub struct QuantizedMatrix {
    in_dim: usize,
    out_dim: usize,
    /// Quantized `W`, packed by [`simd::pack_strips_i8`].
    strips: Vec<i8>,
    /// One dequantization scale per output channel, then 1.0 up to a whole
    /// strip.
    scales: Vec<f32>,
    /// Per-column sums of the quantized weights — the activation zero-point
    /// correction term — then 0 up to a whole strip.
    col_sums: Vec<i32>,
    /// Largest `|zp|` for which `acc - zp * colsum` cannot leave i32.
    zp_limit: u64,
}

impl QuantizedMatrix {
    /// Quantize a `(in_dim, out_dim)` f32 weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if `in_dim` is so large (over 66 000) that a column's exact
    /// sum of products could leave i32.
    pub fn quantize(w: &Tensor) -> Self {
        let (k, n) = w.shape();
        // No sum of `k` u8 x i8 products is larger.
        let sum_bound = 255 * 127 * k as u64;
        assert!(sum_bound <= i32::MAX as u64, "quantize: {k} input rows overflow an i32 sum");
        let src = w.data();
        let mut data = vec![0i8; k * n];
        let mut scales = vec![1.0f32; n.next_multiple_of(simd::Q8_NR)];
        let mut col_sums = vec![0i32; n.next_multiple_of(simd::Q8_NR)];
        for j in 0..n {
            let mut max_abs = 0.0f32;
            for i in 0..k {
                max_abs = max_abs.max(src[i * n + j].abs());
            }
            // An all-zero channel keeps scale 1.0 and quantizes to zeros.
            if max_abs > 0.0 {
                scales[j] = max_abs / 127.0;
                let inv = 127.0 / max_abs;
                let col = &mut data[j * k..(j + 1) * k];
                let mut sum = 0i32;
                for (i, q) in col.iter_mut().enumerate() {
                    *q = (src[i * n + j] * inv).round().clamp(-127.0, 127.0) as i8;
                    sum += *q as i32;
                }
                col_sums[j] = sum;
            }
        }
        let max_sum = col_sums.iter().map(|s| s.unsigned_abs() as u64).max().unwrap_or(0);
        QuantizedMatrix {
            in_dim: k,
            out_dim: n,
            strips: simd::pack_strips_i8(&data, k, n),
            scales,
            col_sums,
            zp_limit: (i32::MAX as u64 - sum_bound) / max_sum.max(1),
        }
    }

    /// Input (row) dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output (column) dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Per-output-channel dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales[..self.out_dim]
    }

    /// Per-column sums of the quantized weights.
    pub fn col_sums(&self) -> &[i32] {
        &self.col_sums[..self.out_dim]
    }

    /// Reconstruct the f32 matrix (`q[i,j] * scale_j`) — test/debug helper
    /// for the round-trip property tests.
    pub fn dequantize(&self) -> Tensor {
        let (k, n) = (self.in_dim, self.out_dim);
        let k4 = k.div_ceil(simd::Q8_KG);
        let mut out = vec![0.0f32; k * n];
        for j in 0..n {
            for i in 0..k {
                out[i * n + j] = self.strips[simd::strip_index(k4, i, j)] as f32 * self.scales[j];
            }
        }
        Tensor::from_vec(k, n, out)
    }
}

/// How one activation row was quantized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowQuant {
    /// `x[i] ≈ (q[i] - zp) * scale`.
    Affine {
        /// Quantization step, `(max - min) / 255`.
        scale: f32,
        /// Zero point (can be negative when the whole row is positive).
        zp: i32,
    },
    /// The row is (numerically) constant — the affine form would overflow
    /// or degenerate, so the forward uses the exact closed form instead.
    Constant(f32),
}

/// Asymmetric per-row activation quantization into `q`. A row holding an
/// infinity or a NaN comes back `Constant(NaN)`.
///
/// # Panics
///
/// Panics if `x` and `q` differ in length.
pub fn quantize_row_u8(x: &[f32], q: &mut [u8]) -> RowQuant {
    assert_eq!(x.len(), q.len(), "quantize_row_u8: {} values into {} bytes", x.len(), q.len());
    let (mn, mx) = simd::min_max(x);
    let mag = mn.abs().max(mx.abs());
    let spread = mx - mn;
    // Near-constant rows (spread negligible vs magnitude) would push the
    // zero point past i32 range; all-zero rows hit this with spread == 0,
    // and a non-finite row (`min_max` answers NaN) with no spread at all.
    if spread <= mag * 1e-6 || spread.is_nan() {
        q.fill(0);
        return RowQuant::Constant((mn + mx) * 0.5);
    }
    let scale = spread / 255.0;
    let inv = 255.0 / spread;
    let zp = (-mn * inv).round_ties_even() as i32;
    simd::quantize_span_u8(x, inv, zp, q);
    RowQuant::Affine { scale, zp }
}

/// An `(m, k)` activation matrix quantized row by row: what the integer
/// GEMM reads, computed once per input however many weights multiply it.
#[derive(Debug, Default)]
pub struct QuantizedRows {
    shape: (usize, usize),
    /// At least `m` rows of `stride()` bytes; only ever grows.
    q: Vec<u8>,
    rows: Vec<RowQuant>,
}

impl QuantizedRows {
    /// Quantizes every row of `x` with [`quantize_row_u8`].
    pub fn quantize(x: &Tensor) -> Self {
        let mut rows = Self::default();
        rows.requantize(x);
        rows
    }

    /// [`QuantizedRows::quantize`] over whatever was here before, in the
    /// same two allocations: a tape quantizes a dozen inputs of two widths
    /// per pass, and one buffer that stays in cache serves them all.
    pub fn requantize(&mut self, x: &Tensor) {
        self.requantize_rows(x.data(), x.shape());
    }

    /// [`QuantizedRows::requantize`] for the row-major `(m, k)` matrix `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` holds fewer than `m * k` values.
    pub fn requantize_rows(&mut self, x: &[f32], (m, k): (usize, usize)) {
        self.shape = (m, k);
        let stride = self.stride();
        if self.q.len() < m * stride {
            self.q.resize(m * stride, 0);
        }
        self.rows.clear();
        for r in 0..m {
            let (q, pad) = self.q[r * stride..(r + 1) * stride].split_at_mut(k);
            pad.fill(0);
            self.rows.push(quantize_row_u8(&x[r * k..(r + 1) * k], q));
        }
    }

    /// `(m, k)` of the matrix that was quantized.
    pub fn shape(&self) -> (usize, usize) {
        self.shape
    }

    /// Bytes from one row to the next: `k` rounded up to a whole k-group,
    /// the tail zero.
    pub fn stride(&self) -> usize {
        self.shape.1.next_multiple_of(simd::Q8_KG)
    }

    /// The quantized bytes, `m` rows of [`QuantizedRows::stride`].
    pub fn q(&self) -> &[u8] {
        &self.q[..self.shape.0 * self.stride()]
    }

    /// How each row was quantized.
    pub fn rows(&self) -> &[RowQuant] {
        &self.rows
    }
}

/// Quantized affine forward: `out ≈ x @ W + bias`, with an optional fused
/// GELU. `x` is `(m, k)`, `w` is a quantized `(k, n)` matrix, `bias` is
/// `(1, n)`.
pub fn linear_q8_forward(x: &Tensor, w: &QuantizedMatrix, bias: &Tensor, gelu: bool) -> Tensor {
    linear_q8_rows(&QuantizedRows::quantize(x), w, bias, gelu)
}

/// [`linear_q8_forward`] for an input that is already quantized.
pub fn linear_q8_rows(x: &QuantizedRows, w: &QuantizedMatrix, bias: &Tensor, gelu: bool) -> Tensor {
    let mut out = pool::take_uninit(x.shape().0 * w.out_dim);
    linear_q8_rows_into(x, w, bias, gelu, &mut out);
    Tensor::from_vec(x.shape().0, w.out_dim, out)
}

/// [`linear_q8_rows`] into a caller's row-major `(m, n)` buffer, every
/// element of which it writes.
///
/// # Panics
///
/// Panics if the inner dimensions, the bias or `out` do not fit.
pub fn linear_q8_rows_into(x: &QuantizedRows, w: &QuantizedMatrix, bias: &Tensor, gelu: bool, out: &mut [f32]) {
    let (m, k) = x.shape();
    let n = w.out_dim;
    assert_eq!(k, w.in_dim, "linear_q8: inner dims {k} vs {}", w.in_dim);
    assert_eq!(bias.shape(), (1, n), "linear_q8: bias shape");
    assert_eq!(out.len(), m * n, "linear_q8: output must be {m}x{n}");
    // Like the weights' own per-column operands, the bias is read a whole
    // strip at a time.
    let mut bs = bias.data();
    let padded: Vec<f32>;
    if !n.is_multiple_of(simd::Q8_NR) {
        padded = bs.iter().copied().chain(std::iter::repeat(0.0)).take(w.scales.len()).collect();
        bs = &padded;
    }
    let (lda, level) = (x.stride(), simd::level());
    simd::tiles_u8i8(level, x.q(), m, lda, &w.strips, lda / simd::Q8_KG, n, |row0, rows, col0, cols, block| {
        // By value: the tile's columns of each operand stay in registers
        // across its rows.
        let per_col = (*first_strip(&w.scales[col0..]), *first_strip(&w.col_sums[col0..]), *first_strip(&bs[col0..]));
        for (r, rq) in x.rows[row0..][..rows].iter().enumerate() {
            let o = &mut out[(row0 + r) * n + col0..];
            // An edge tile's row lands beside the output first.
            match o.first_chunk_mut() {
                Some(full) if cols == simd::Q8_NR => finish_row(w.zp_limit, *rq, &block[r], &per_col, full),
                _ => {
                    let mut vals = [0.0; simd::Q8_NR];
                    finish_row(w.zp_limit, *rq, &block[r], &per_col, &mut vals);
                    o[..cols].copy_from_slice(&vals[..cols]);
                }
            }
        }
        // The last strip completes these rows: activate them while they
        // are in L1.
        if gelu && col0 + cols == n {
            simd::gelu_span(&mut out[row0 * n..(row0 + rows) * n]);
        }
    });
}

/// The leading strip's worth of a per-column operand.
#[inline(always)]
fn first_strip<T>(v: &[T]) -> &[T; simd::Q8_NR] {
    v.first_chunk().expect("per-column operands are padded to whole strips")
}

/// One tile row of exact sums to f32, given the tile's columns of `(scales,
/// col_sums, bias)` and the matrix's `zp_limit`.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // `j` indexes five fixed-width operands in lockstep
fn finish_row(zp_limit: u64, rq: RowQuant, acc: &[i32; simd::Q8_NR], (scales, sums, bias): &([f32; simd::Q8_NR], [i32; simd::Q8_NR], [f32; simd::Q8_NR]), out: &mut [f32; simd::Q8_NR]) {
    match rq {
        RowQuant::Constant(c) => {
            for j in 0..simd::Q8_NR {
                out[j] = c * (scales[j] * sums[j] as f32) + bias[j];
            }
        }
        RowQuant::Affine { scale: sx, zp } if zp.unsigned_abs() as u64 <= zp_limit => {
            for j in 0..simd::Q8_NR {
                out[j] = (acc[j] - zp * sums[j]) as f32 * (sx * scales[j]) + bias[j];
            }
        }
        RowQuant::Affine { scale: sx, zp } => {
            for j in 0..simd::Q8_NR {
                out[j] = (acc[j] as i64 - zp as i64 * sums[j] as i64) as f32 * (sx * scales[j]) + bias[j];
            }
        }
    }
}
