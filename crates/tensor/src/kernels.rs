//! Cache-blocked, register-tiled GEMM kernels and fused softmax and
//! layer-norm row primitives.
//!
//! All three matmul variants the engine needs — `A·B`, `A·Bᵀ`, `Aᵀ·B` — are
//! served by one blocked implementation parameterized over operand strides:
//! the logical element `A(i, p)` lives at `a[i * a_rs + p * a_cs]`, so a
//! transposed operand is just a different `(rs, cs)` pair and never has to be
//! materialized. The implementation follows the classic BLIS/GotoBLAS
//! decomposition:
//!
//! * Loop over `NC`-wide column panels of B, `KC`-deep slices of the shared
//!   dimension, and `MC`-tall row panels of A, sized so the packed panels
//!   stay resident in cache across the inner loops.
//! * Pack each B panel into `NR`-wide column strips and each A panel into
//!   `MR`-tall row strips, padding edge strips with zeros. Packing makes the
//!   micro-kernel's accesses contiguous and unit-stride regardless of the
//!   source layout, which is what lets one kernel serve nn/nt/tn.
//! * A register-tiled `MR×NR` micro-kernel (4×16 — 64 f32 accumulators plus
//!   one broadcast and one B-row fit the 16 vector registers of AVX2-class
//!   hardware) walks the shared dimension with fully unrolled, branch-free
//!   multiply-adds that the compiler auto-vectorizes.
//!
//! Small products fall through to simple branchless loops: for a handful of
//! rows the packing traffic costs more than it saves.
//!
//! Scratch buffers for the packed panels come from the thread-local
//! [`pool`](crate::pool), so steady-state training performs no heap
//! allocation here at all.

use crate::pool;
use crate::simd;
use crate::NORM_EPS;

/// Rows per micro-kernel tile.
pub const MR: usize = 4;
/// Columns per micro-kernel tile.
pub const NR: usize = 16;
/// Rows of A packed per panel (multiple of `MR`).
const MC: usize = 64;
/// Depth of the shared dimension packed per panel.
const KC: usize = 256;
/// Columns of B packed per panel (multiple of `NR`).
const NC: usize = 512;

/// Products below this many multiply-adds use the simple loops; the packed
/// path only pays off once panel reuse amortizes the packing passes.
const SMALL_MULADDS: usize = 32 * 32 * 32;

// ----- public entry points ------------------------------------------------

/// `out = A·B` for row-major `A: [m,k]`, `B: [k,n]`, `out: [m,n]`.
///
/// `out` is overwritten. Slices must have exactly the implied lengths.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m * n * k < SMALL_MULADDS {
        out.fill(0.0);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &aip) in a_row.iter().enumerate() {
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aip * bv;
                }
            }
        }
    } else {
        gemm_blocked(m, k, n, a, k, 1, b, n, 1, out);
    }
}

/// `out = A·Bᵀ` for row-major `A: [m,k]`, `B: [n,k]`, `out: [m,n]`.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    if m * n * k < SMALL_MULADDS {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = &b[j * k..(j + 1) * k];
                *o = dot(a_row, b_row);
            }
        }
    } else {
        gemm_blocked(m, k, n, a, k, 1, b, 1, k, out);
    }
}

/// `out = Aᵀ·B` for row-major `A: [k,m]`, `B: [k,n]`, `out: [m,n]`.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    if m * n * k < SMALL_MULADDS {
        out.fill(0.0);
        for p in 0..k {
            let a_row = &a[p * m..(p + 1) * m];
            let b_row = &b[p * n..(p + 1) * n];
            for (i, &aip) in a_row.iter().enumerate() {
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += aip * bv;
                }
            }
        }
    } else {
        gemm_blocked(m, k, n, a, 1, m, b, n, 1, out);
    }
}

/// Branch-free dot product over unrolled 8-lane chunks.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let chunks = a.len() / LANES;
    for c in 0..chunks {
        let av = &a[c * LANES..(c + 1) * LANES];
        let bv = &b[c * LANES..(c + 1) * LANES];
        for l in 0..LANES {
            acc[l] += av[l] * bv[l];
        }
    }
    let mut sum: f32 = acc.iter().sum();
    for i in chunks * LANES..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

// ----- blocked implementation ---------------------------------------------

/// Blocked GEMM over strided operands: `A(i, p) = a[i*a_rs + p*a_cs]`,
/// `B(p, j) = b[p*b_rs + j*b_cs]`, accumulating into row-major `out`.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_rs: usize,
    a_cs: usize,
    b: &[f32],
    b_rs: usize,
    b_cs: usize,
    out: &mut [f32],
) {
    out.fill(0.0);
    let mut packed_a = pool::take_uninit(MC * KC);
    let mut packed_b = pool::take_uninit(KC * NC);
    // One cached-atomic read per GEMM, not per tile; `simd::level()` honors
    // the EMBA_FORCE_SCALAR override so CI can pin the autovectorized path.
    let use_simd = simd::level() >= simd::Level::Avx2;

    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        let nc_strips = nc.div_ceil(NR);
        for pc in (0..k).step_by(KC) {
            let kc = (k - pc).min(KC);
            pack_b(&mut packed_b, b, b_rs, b_cs, pc, kc, jc, nc);
            for ic in (0..m).step_by(MC) {
                let mc = (m - ic).min(MC);
                let mc_strips = mc.div_ceil(MR);
                pack_a(&mut packed_a, a, a_rs, a_cs, ic, mc, pc, kc);

                for jt in 0..nc_strips {
                    let b_panel = &packed_b[jt * kc * NR..(jt + 1) * kc * NR];
                    let j_lim = (nc - jt * NR).min(NR);
                    for it in 0..mc_strips {
                        let a_panel = &packed_a[it * kc * MR..(it + 1) * kc * MR];
                        let i_lim = (mc - it * MR).min(MR);

                        let mut acc = [[0.0f32; NR]; MR];
                        micro_kernel_dispatch(use_simd, kc, a_panel, b_panel, &mut acc);

                        let row0 = ic + it * MR;
                        let col0 = jc + jt * NR;
                        for r in 0..i_lim {
                            let out_row = &mut out[(row0 + r) * n + col0..(row0 + r) * n + col0 + j_lim];
                            for (o, &v) in out_row.iter_mut().zip(&acc[r][..j_lim]) {
                                *o += v;
                            }
                        }
                    }
                }
            }
        }
    }

    pool::put(packed_a);
    pool::put(packed_b);
}

/// Routes a packed-panel tile either to the explicit AVX2+FMA micro-kernel
/// or to the portable autovectorized one. `use_simd` is hoisted to one
/// decision per GEMM call.
#[inline(always)]
fn micro_kernel_dispatch(use_simd: bool, kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: `use_simd` is only true when `simd::level()` detected
        // AVX2+FMA on this CPU.
        unsafe { simd::micro_kernel_f32_avx2(kc, a, b, acc) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_simd;
    micro_kernel(kc, a, b, acc);
}

/// The register-tiled inner kernel: `acc[r][c] += Σ_p a(r, p) · b(p, c)` over
/// packed panels (`a`: depth-major strips of `MR`, `b`: depth-major strips of
/// `NR`). Fixed tile sizes let the compiler unroll and vectorize the whole
/// body; there are no branches in the loop.
#[inline(always)]
fn micro_kernel(kc: usize, a: &[f32], b: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(a.len() >= kc * MR);
    debug_assert!(b.len() >= kc * NR);
    for p in 0..kc {
        let ap: &[f32; MR] = a[p * MR..p * MR + MR].try_into().unwrap();
        let bp: &[f32; NR] = b[p * NR..p * NR + NR].try_into().unwrap();
        for r in 0..MR {
            let arv = ap[r];
            let row = &mut acc[r];
            for c in 0..NR {
                row[c] += arv * bp[c];
            }
        }
    }
}

/// Packs an `mc × kc` panel of A into `MR`-tall, depth-major strips:
/// `panel[s*MR*kc + p*MR + r] = A(i0 + s*MR + r, p0 + p)`, zero-padded when
/// the last strip overhangs `mc`.
#[allow(clippy::too_many_arguments)]
fn pack_a(panel: &mut [f32], a: &[f32], rs: usize, cs: usize, i0: usize, mc: usize, p0: usize, kc: usize) {
    let full = mc / MR;
    for s in 0..full {
        let base = s * MR * kc;
        for p in 0..kc {
            let dst = &mut panel[base + p * MR..base + (p + 1) * MR];
            let src = (i0 + s * MR) * rs + (p0 + p) * cs;
            for (r, d) in dst.iter_mut().enumerate() {
                *d = a[src + r * rs];
            }
        }
    }
    if !mc.is_multiple_of(MR) {
        let s = full;
        let rem = mc - s * MR;
        let base = s * MR * kc;
        for p in 0..kc {
            let dst = &mut panel[base + p * MR..base + (p + 1) * MR];
            let src = (i0 + s * MR) * rs + (p0 + p) * cs;
            for (r, d) in dst.iter_mut().enumerate() {
                *d = if r < rem { a[src + r * rs] } else { 0.0 };
            }
        }
    }
}

/// Packs a `kc × nc` panel of B into `NR`-wide, depth-major strips:
/// `panel[t*kc*NR + p*NR + c] = B(p0 + p, j0 + t*NR + c)`, zero-padded when
/// the last strip overhangs `nc`. Unit column stride (the nn/tn case) copies
/// whole rows with `copy_from_slice`.
#[allow(clippy::too_many_arguments)]
fn pack_b(panel: &mut [f32], b: &[f32], rs: usize, cs: usize, p0: usize, kc: usize, j0: usize, nc: usize) {
    let strips = nc.div_ceil(NR);
    for t in 0..strips {
        let base = t * kc * NR;
        let col = j0 + t * NR;
        let width = (nc - t * NR).min(NR);
        for p in 0..kc {
            let dst = &mut panel[base + p * NR..base + (p + 1) * NR];
            let src = (p0 + p) * rs + col * cs;
            if cs == 1 {
                dst[..width].copy_from_slice(&b[src..src + width]);
            } else {
                for (c, d) in dst[..width].iter_mut().enumerate() {
                    *d = b[src + c * cs];
                }
            }
            dst[width..].fill(0.0);
        }
    }
}

// ----- row reductions -------------------------------------------------------
//
// Softmax and layer-norm reduce each row with a FIXED 8-lane split: element
// `i` accumulates into lane `i % 8` and the lanes combine in one fixed tree.
// The order depends only on the row's own width — never on the batch around
// it or a padded stride — so a row's result is bit-equal alone, in a batch,
// or under a wider grouped `W`, and the portable loops below autovectorize to
// the same arithmetic they spell out (scalar and AVX2 runs are bit-equal).

const LANES: usize = 8;

/// Combines the eight lane accumulators in a fixed pairwise tree.
#[inline(always)]
fn lane_tree(a: [f32; LANES]) -> f32 {
    ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]))
}

/// Lane-split reduction of `f(x[i], y[i], z[i])` over three equal-length rows.
#[inline(always)]
fn lane_reduce3(x: &[f32], y: &[f32], z: &[f32], f: impl Fn(f32, f32, f32) -> f32) -> f32 {
    debug_assert!(x.len() == y.len() && x.len() == z.len());
    let mut acc = [0.0f32; LANES];
    let (xc, yc, zc) = (x.chunks_exact(LANES), y.chunks_exact(LANES), z.chunks_exact(LANES));
    let (xt, yt, zt) = (xc.remainder(), yc.remainder(), zc.remainder());
    for ((xv, yv), zv) in xc.zip(yc).zip(zc) {
        for l in 0..LANES {
            acc[l] += f(xv[l], yv[l], zv[l]);
        }
    }
    for (l, ((&xv, &yv), &zv)) in xt.iter().zip(yt).zip(zt).enumerate() {
        acc[l] += f(xv, yv, zv);
    }
    lane_tree(acc)
}

/// Lane-split reduction of `f(x[i])` over one row.
#[inline(always)]
fn lane_reduce(x: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    lane_reduce3(x, x, x, |v, _, _| f(v))
}

// ----- fused softmax primitives -------------------------------------------

/// Numerically stable in-place softmax of one contiguous row, with the
/// attention scale `s` folded into the exponent (softmax(s·x)).
///
/// The single funnel under every softmax in the engine. The exponent comes
/// from the [`simd`] exp core (no libm) and the normalizer is the fixed
/// lane-split sum above. A NaN, `+inf` or `-inf` anywhere in the row makes
/// the whole row NaN.
#[inline]
pub fn scaled_softmax_in_place(row: &mut [f32], s: f32) {
    // NaN never wins `>`, so the max skips it and the exponent surfaces it.
    let pick = |m: f32, v: f32| if v > m { v } else { m };
    let mut mx = [f32::NEG_INFINITY; LANES];
    let chunks = row.chunks_exact(LANES);
    let tail = chunks.remainder();
    for c in chunks {
        for l in 0..LANES {
            mx[l] = pick(mx[l], c[l] * s);
        }
    }
    for (l, &v) in tail.iter().enumerate() {
        mx[l] = pick(mx[l], v * s);
    }
    let max = mx.iter().fold(f32::NEG_INFINITY, |m, &v| pick(m, v));

    // Elementwise exponent: whole blocks in one plain loop, the tail through
    // one padded block of the same lane code (padding repeats a real element
    // and is discarded), so no element is left to a scalar remainder loop.
    // The sum is its own pass: accumulating inside this loop makes LLVM emit
    // 128-bit partial vectors for the exponent (measured 4x slower).
    let exp = |v: f32| simd::exp_nonpos(v * s - max);
    let (head, tail) = row.split_at_mut(row.len() / LANES * LANES);
    for v in head.iter_mut() {
        *v = exp(*v);
    }
    if !tail.is_empty() {
        let mut block = [tail[0]; LANES];
        block[..tail.len()].copy_from_slice(tail);
        for v in &mut block {
            *v = exp(*v);
        }
        tail.copy_from_slice(&block[..tail.len()]);
    }
    let inv = 1.0 / lane_reduce(row, |v| v);
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// Jacobian-vector product of a row softmax, written into `dx` (a scratch
/// buffer of the same length): `dx = p ⊙ (g − rowdot(g, p)) · s`, where `s`
/// folds in the derivative of a pre-softmax scale.
pub fn softmax_rows_backward_scaled(rows: usize, cols: usize, g: &[f32], p: &[f32], s: f32, dx: &mut [f32]) {
    debug_assert_eq!(g.len(), rows * cols);
    debug_assert_eq!(p.len(), rows * cols);
    debug_assert_eq!(dx.len(), rows * cols);
    for r in 0..rows {
        let span = r * cols..(r + 1) * cols;
        let grow = &g[span.clone()];
        let prow = &p[span.clone()];
        let d = dot(grow, prow);
        for ((o, &gv), &pv) in dx[span].iter_mut().zip(grow).zip(prow) {
            *o = pv * (gv - d) * s;
        }
    }
}

/// Jacobian-vector product of a column softmax, written into `dx`:
/// `dx[r,c] = p[r,c] · (g[r,c] − Σ_r g[r,c]·p[r,c])`. One pass accumulates
/// the per-column dots into a pooled scratch row, a second pass writes `dx`;
/// no transposes are materialized.
pub fn softmax_cols_backward(rows: usize, cols: usize, g: &[f32], p: &[f32], dx: &mut [f32]) {
    debug_assert_eq!(g.len(), rows * cols);
    debug_assert_eq!(p.len(), rows * cols);
    debug_assert_eq!(dx.len(), rows * cols);
    let mut col_dots = pool::take(cols);
    for r in 0..rows {
        let span = r * cols..(r + 1) * cols;
        for ((d, &gv), &pv) in col_dots.iter_mut().zip(&g[span.clone()]).zip(&p[span]) {
            *d += gv * pv;
        }
    }
    for r in 0..rows {
        let span = r * cols..(r + 1) * cols;
        for (((o, &gv), &pv), &d) in dx[span.clone()]
            .iter_mut()
            .zip(&g[span.clone()])
            .zip(&p[span])
            .zip(col_dots.iter())
        {
            *o = pv * (gv - d);
        }
    }
    pool::put(col_dots);
}

// ----- fused layer-norm rows ------------------------------------------------

/// Layer-normalizes one row in a single visit: writes
/// `y = gamma ⊙ (x − mean) / sqrt(var + eps) + beta` and returns
/// `(mean, 1 / sqrt(var + eps))`, all the backward pass needs besides `x`.
/// Mean and (two-pass) variance use the fixed lane-split reduction.
pub fn layer_norm_row(x: &[f32], gamma: &[f32], beta: &[f32], y: &mut [f32]) -> (f32, f32) {
    let n = x.len() as f32;
    let mean = lane_reduce(x, |v| v) / n;
    let var = lane_reduce(x, |v| (v - mean) * (v - mean)) / n;
    let istd = 1.0 / (var + NORM_EPS).sqrt();
    for (((o, &v), &gm), &bt) in y.iter_mut().zip(x).zip(gamma).zip(beta) {
        *o = gm * ((v - mean) * istd) + bt;
    }
    (mean, istd)
}

/// Backward of [`layer_norm_row`] for upstream gradient `g`: overwrites `dx`
/// with the input gradient and ADDS this row's share into `dgamma` / `dbeta`.
/// With `xhat = (x − mean) · istd` and `d = g ⊙ gamma`,
/// `dx = istd · (d − mean(d) − xhat · mean(d ⊙ xhat))`.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_row_backward(
    g: &[f32],
    x: &[f32],
    gamma: &[f32],
    mean: f32,
    istd: f32,
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let n = g.len() as f32;
    // Two reductions rather than one loop with two accumulators: the fused
    // form makes LLVM pair the accumulators lane-by-lane and emit scalar
    // code, and the row is L1-resident either way.
    let mean_d = lane_reduce3(g, gamma, x, |gv, wv, _| gv * wv) / n;
    let mean_dh = lane_reduce3(g, gamma, x, |gv, wv, xv| (gv * wv) * ((xv - mean) * istd)) / n;
    for (((((o, dg), db), &gv), &xv), &wv) in
        dx.iter_mut().zip(dgamma.iter_mut()).zip(dbeta.iter_mut()).zip(g).zip(x).zip(gamma)
    {
        let h = (xv - mean) * istd;
        *o = istd * (gv * wv - mean_d - h * mean_dh);
        *dg += gv * h;
        *db += gv;
    }
}

// ----- seed kernels, retained for benchmarking ----------------------------
//
// Compiled only under `cfg(test)` or the `seed-bench` feature (enabled by
// emba-bench) so the hot path cannot reach them by accident.

/// The seed repository's `ikj` matmul, including its `aik == 0.0` skip
/// branch. Retained only so the benchmark suite can quantify the cost of
/// that branch against [`gemm_nn`]; not used by the engine.
#[cfg(any(test, feature = "seed-bench"))]
pub fn gemm_nn_seed_branchy(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        let a_row = &a[i * k..(i + 1) * k];
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += aik * bv;
            }
        }
    }
}

/// The seed repository's `Aᵀ·B` kernel with its `== 0.0` skip branch; see
/// [`gemm_nn_seed_branchy`].
#[cfg(any(test, feature = "seed-bench"))]
pub fn gemm_tn_seed_branchy(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for kk in 0..k {
        let a_row = &a[kk * m..(kk + 1) * m];
        let b_row = &b[kk * n..(kk + 1) * n];
        for (i, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += aik * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::test_util::{bits, on_both_tiers};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn reference_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for p in 0..k {
                    s += f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
                }
                out[i * n + j] = s as f32;
            }
        }
        out
    }

    fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn assert_close(actual: &[f32], expected: &[f32], tol: f32, ctx: &str) {
        for (i, (&x, &y)) in actual.iter().zip(expected).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{ctx}: element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn blocked_nn_matches_reference_on_awkward_shapes() {
        let mut rng = StdRng::seed_from_u64(11);
        // Shapes straddling every blocking boundary: micro-tile edges,
        // panel edges, the small-product cutoff, and multi-panel sizes.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 16),
            (33, 47, 65),
            (64, 256, 512),
            (65, 257, 513),
            (100, 37, 129),
            (128, 128, 128),
        ] {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let expected = reference_nn(m, k, n, &a, &b);
            let mut out = vec![0.0f32; m * n];
            gemm_nn(m, k, n, &a, &b, &mut out);
            assert_close(&out, &expected, 1e-5, &format!("nn {m}x{k}x{n}"));
        }
    }

    #[test]
    fn blocked_nt_and_tn_match_reference() {
        let mut rng = StdRng::seed_from_u64(12);
        for &(m, k, n) in &[(3, 5, 7), (33, 47, 65), (65, 130, 129), (128, 32, 128)] {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let expected = reference_nn(m, k, n, &a, &b);

            // nt: B stored transposed as [n, k].
            let mut bt = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let mut out = vec![0.0f32; m * n];
            gemm_nt(m, k, n, &a, &bt, &mut out);
            assert_close(&out, &expected, 1e-5, &format!("nt {m}x{k}x{n}"));

            // tn: A stored transposed as [k, m].
            let mut at = vec![0.0f32; k * m];
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            let mut out = vec![0.0f32; m * n];
            gemm_tn(m, k, n, &at, &b, &mut out);
            assert_close(&out, &expected, 1e-5, &format!("tn {m}x{k}x{n}"));
        }
    }

    #[test]
    fn seed_branchy_kernels_agree_with_blocked() {
        let mut rng = StdRng::seed_from_u64(13);
        let (m, k, n) = (65, 66, 67);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let mut blocked = vec![0.0f32; m * n];
        let mut branchy = vec![0.0f32; m * n];
        gemm_nn(m, k, n, &a, &b, &mut blocked);
        gemm_nn_seed_branchy(m, k, n, &a, &b, &mut branchy);
        assert_close(&blocked, &branchy, 1e-5, "nn vs seed");

        let at: Vec<f32> = {
            let mut t = vec![0.0f32; k * m];
            for i in 0..m {
                for p in 0..k {
                    t[p * m + i] = a[i * k + p];
                }
            }
            t
        };
        gemm_tn(m, k, n, &at, &b, &mut blocked);
        gemm_tn_seed_branchy(m, k, n, &at, &b, &mut branchy);
        assert_close(&blocked, &branchy, 1e-5, "tn vs seed");
    }

    #[test]
    fn scaled_softmax_matches_two_step() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut row = rand_vec(&mut rng, 37);
        let scale = 0.35;
        let mut expected: Vec<f32> = row.iter().map(|&x| x * scale).collect();
        let max = expected.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let sum: f32 = expected.iter().map(|&x| (x - max).exp()).sum();
        for e in &mut expected {
            *e = (*e - max).exp() / sum;
        }
        scaled_softmax_in_place(&mut row, scale);
        assert_close(&row, &expected, 1e-6, "scaled softmax");
        assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    fn softmax_f64(row: &[f32], s: f32) -> Vec<f64> {
        let z: Vec<f64> = row.iter().map(|&x| f64::from(x) * f64::from(s)).collect();
        let max = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = z.iter().map(|&v| (v - max).exp()).sum();
        z.iter().map(|&v| (v - max).exp() / sum).collect()
    }

    #[test]
    fn softmax_matches_f64_reference_at_every_tail_shape() {
        let mut rng = StdRng::seed_from_u64(17);
        // Block edges (1, 7, 8, 9, 31, 64), an all-equal row, and a row whose
        // spread pushes the smallest exponent under the f32 range.
        let mut rows: Vec<Vec<f32>> = [1usize, 7, 8, 9, 31, 64]
            .iter()
            .map(|&w| (0..w).map(|_| rng.gen_range(-6.0f32..6.0)).collect())
            .collect();
        rows.push(vec![0.731; 13]);
        rows.push(vec![60.0, -70.0, 59.5, -200.0, 0.0, 58.0, -45.0, 60.0, 3.0]);
        for row in rows {
            for s in [1.0f32, 0.176_776_7] {
                let want = softmax_f64(&row, s);
                let (got, scalar) = on_both_tiers(|| {
                    let mut r = row.clone();
                    scaled_softmax_in_place(&mut r, s);
                    r
                });
                assert_eq!(bits(&got), bits(&scalar), "tiers differ at width {}", row.len());
                let sum: f64 = got.iter().map(|&v| f64::from(v)).sum();
                assert!((sum - 1.0).abs() <= 1e-6, "width {} sums to {sum}", row.len());
                for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                    assert!((f64::from(g) - w).abs() <= 1e-6, "width {} [{i}]: {g} vs {w}", row.len());
                }
            }
        }
    }

    #[test]
    fn softmax_row_poisons_on_any_non_finite_input() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for w in [1usize, 5, 8, 19] {
                for at in [0, w - 1] {
                    let mut row: Vec<f32> = (0..w).map(|i| i as f32 * 0.25 - 1.0).collect();
                    row[at] = bad;
                    scaled_softmax_in_place(&mut row, 0.5);
                    assert!(row.iter().all(|v| !v.is_finite()), "{bad} at {at} of {w}: {row:?}");
                }
            }
        }
    }

    fn layer_norm_f64(x: &[f32], gamma: &[f32], beta: &[f32]) -> Vec<f64> {
        let n = x.len() as f64;
        let mean = x.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
        let var = x.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>() / n;
        let istd = 1.0 / (var + f64::from(NORM_EPS)).sqrt();
        x.iter()
            .zip(gamma.iter().zip(beta))
            .map(|(&v, (&g, &b))| f64::from(g) * (f64::from(v) - mean) * istd + f64::from(b))
            .collect()
    }

    #[test]
    fn layer_norm_row_matches_f64_reference() {
        let mut rng = StdRng::seed_from_u64(18);
        for w in [1usize, 7, 100, 128, 130] {
            let x: Vec<f32> = (0..w).map(|_| rng.gen_range(-3.0f32..3.0) + 0.5).collect();
            let gamma = rand_vec(&mut rng, w);
            let beta = rand_vec(&mut rng, w);
            let want = layer_norm_f64(&x, &gamma, &beta);
            let (got, scalar) = on_both_tiers(|| {
                let mut y = vec![0.0f32; w];
                let stats = layer_norm_row(&x, &gamma, &beta, &mut y);
                (y, stats)
            });
            assert_eq!(bits(&got.0), bits(&scalar.0), "tiers differ at width {w}");
            assert_eq!(got.1, scalar.1);
            for (i, (&g, &e)) in got.0.iter().zip(&want).enumerate() {
                assert!((f64::from(g) - e).abs() <= 1e-5, "width {w} [{i}]: {g} vs {e}");
            }
        }
    }

    #[test]
    fn layer_norm_row_backward_matches_f64_reference() {
        let mut rng = StdRng::seed_from_u64(19);
        for w in [1usize, 7, 100, 128, 130] {
            let x = rand_vec(&mut rng, w);
            let g = rand_vec(&mut rng, w);
            let gamma = rand_vec(&mut rng, w);
            let beta = vec![0.0f32; w];
            let mut y = vec![0.0f32; w];
            let (mean, istd) = layer_norm_row(&x, &gamma, &beta, &mut y);
            let (got, scalar) = on_both_tiers(|| {
                let (mut dx, mut dg, mut db) = (vec![0.0f32; w], vec![1.0f32; w], vec![2.0f32; w]);
                layer_norm_row_backward(&g, &x, &gamma, mean, istd, &mut dx, &mut dg, &mut db);
                (dx, dg, db)
            });
            assert_eq!(bits(&got.0), bits(&scalar.0), "tiers differ at width {w}");

            let (m, s) = (f64::from(mean), f64::from(istd));
            let xhat: Vec<f64> = x.iter().map(|&v| (f64::from(v) - m) * s).collect();
            let d: Vec<f64> = g.iter().zip(&gamma).map(|(&a, &b)| f64::from(a) * f64::from(b)).collect();
            let mean_d = d.iter().sum::<f64>() / w as f64;
            let mean_dh = d.iter().zip(&xhat).map(|(a, b)| a * b).sum::<f64>() / w as f64;
            for i in 0..w {
                let dx = s * (d[i] - mean_d - xhat[i] * mean_dh);
                assert!((f64::from(got.0[i]) - dx).abs() <= 1e-5 * (1.0 + dx.abs()), "width {w} dx[{i}]");
                // Parameter gradients accumulate on top of what was there.
                let dg = 1.0 + f64::from(g[i]) * xhat[i];
                assert!((f64::from(got.1[i]) - dg).abs() <= 1e-5, "width {w} dgamma[{i}]");
                assert_eq!(got.2[i], 2.0 + g[i], "width {w} dbeta[{i}]");
            }
        }
    }

    #[test]
    fn layer_norm_row_poisons_on_any_non_finite_input() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for w in [1usize, 9, 128] {
                let mut x: Vec<f32> = (0..w).map(|i| i as f32 * 0.1).collect();
                x[w / 2] = bad;
                let mut y = vec![0.0f32; w];
                layer_norm_row(&x, &vec![1.0; w], &vec![0.0; w], &mut y);
                assert!(y.iter().all(|v| !v.is_finite()), "{bad} in width {w}: {y:?}");
            }
        }
    }

    #[test]
    fn cols_backward_matches_transposed_rows_backward() {
        let mut rng = StdRng::seed_from_u64(16);
        let (rows, cols) = (9, 13);
        let g = rand_vec(&mut rng, rows * cols);
        let p = rand_vec(&mut rng, rows * cols);
        let mut dx = vec![0.0f32; rows * cols];
        softmax_cols_backward(rows, cols, &g, &p, &mut dx);

        // Reference: transpose, apply the row JVP, transpose back.
        let t = |x: &[f32]| -> Vec<f32> {
            let mut o = vec![0.0f32; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    o[c * rows + r] = x[r * cols + c];
                }
            }
            o
        };
        let mut dt = vec![0.0f32; rows * cols];
        softmax_rows_backward_scaled(cols, rows, &t(&g), &t(&p), 1.0, &mut dt);
        let mut expected = vec![0.0f32; rows * cols];
        for c in 0..cols {
            for r in 0..rows {
                expected[r * cols + c] = dt[c * rows + r];
            }
        }
        assert_close(&dx, &expected, 1e-5, "cols backward");
    }

    #[test]
    fn dot_matches_naive() {
        let mut rng = StdRng::seed_from_u64(15);
        for len in [0, 1, 7, 8, 9, 63, 64, 100] {
            let a = rand_vec(&mut rng, len);
            let b = rand_vec(&mut rng, len);
            let naive: f32 = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            assert!((dot(&a, &b) - naive).abs() < 1e-4, "len {len}");
        }
    }
}
