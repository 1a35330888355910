//! Direct-operand GEMM and fused softmax and layer-norm row primitives.
//!
//! Every matrix product of the engine — `A·B`, `A·Bᵀ`, `Aᵀ·B`, a linear
//! layer's `x·W + b`, one attention head's `Q_h·K_hᵀ` — is one call of
//! [`gemm_strided`]. Its operands are *views*: the logical element `A(i, p)`
//! lives at `a[i * a_rs + p * a_cs]`, `B(p, j)` at `b[p * b_rs + j * b_cs]`
//! and `C(i, j)` at `out[i * ldc + j]`, so a transposed operand is a swapped
//! stride pair, a head is a column offset (the slice start) under the full
//! matrix's leading dimension, and neither is ever copied out first.
//!
//! * **The tile** is `MR×NR` = 6×16: twelve 8-lane accumulators, two B
//!   vectors and one broadcast fill 15 of the 16 vector registers, and each
//!   step of the shared dimension feeds 12 FMAs from 8 loads. On the
//!   AVX-512 tier one tile covers two adjacent strips, 6×32 in twelve
//!   16-lane accumulators (one strip for a panel's odd last one).
//! * **A is read in place.** The tile broadcasts `A(i, p)` straight from the
//!   caller's matrix, one scalar per row per step, whatever the strides. The
//!   six row streams (or, transposed, one stream of 6 adjacent floats) fit
//!   any L1, and a packing pass would read and write all of A to save
//!   nothing.
//! * **B is packed**, one `KC × NC` [`PackedPanel`] at a time, into
//!   `NR`-wide, depth-major strips (zero-padded at the edge). The tile wants
//!   16 contiguous floats per step, and a weight matrix read in place would
//!   not give them cheaply: at a 512-byte row stride the 128 rows of a
//!   `KC`-slice fall into 8 of L1's 64 sets and evict each other. One strip
//!   (`KC·NR` floats, 16 KB) stays in L1 across an `MC`-row block of A;
//!   packing a 128×128 B is 1–2 % of a 1 888-row product, so there is no
//!   cached packed copy of a weight to invalidate.
//! * **Pack and run are separate calls.** [`gemm_strided`] packs each panel
//!   and runs its tiles; [`gemm_panel`] is the second half for a caller that
//!   holds its own panel. A 30×29 product spends more time packing than
//!   multiplying, so the AOA op packs one record's `E1ᵀ` once for all its
//!   candidates (43 → 75 GFLOP/s). A panel lives for one borrow of its B.
//! * **C is finished in the tile.** The accumulators leave the registers
//!   through an [`Epilogue`]: stored, added to what is there, or stored with
//!   a bias row added; `BiasGelu` also keeps the pre-activation for the
//!   backward pass and applies GELU per `MC`-row block while it is hot.
//!   The shared dimension is cut into `KC`-deep slices; every slice after the
//!   first adds to C. An edge tile still computes 6×16 — rows past the edge
//!   repeat a real row of A, columns past it multiply the strip's zero
//!   padding — and stores only what exists.
//! * **Three micro-kernels, one arithmetic.** `simd::tile_6x16_avx2`,
//!   `simd::tile_6x32_avx512` and the portable `tile_portable` all run, per
//!   element of C and per slice, the one chain `acc = fma(A(i,p), B(p,j),
//!   acc)` for `p` ascending from `acc = 0`, then the epilogue — so the
//!   tiers agree bit for bit, and a row of C does not depend on how many
//!   rows or columns are computed with it (`tests/prop_gemm.rs` holds every
//!   tier to that chain).
//! * **`Aᵀ` is read in place too** (`gemm_tn`, the backward passes): the
//!   tile's six broadcasts then come from six adjacent floats per step. Ten
//!   interleaved `train_eval_joint` benchmark pairs against a variant that
//!   first transposed each `MC×KC` panel of A into scratch measured 145.3 vs
//!   141.9 pairs/s with quartile ranges that overlap (direct ahead in 6 of
//!   10), so there is no pack-A path for any stride.

use crate::pool;
use crate::simd;
use crate::NORM_EPS;

/// Rows per register tile.
pub const MR: usize = 6;
/// Columns per register tile.
pub const NR: usize = 16;
/// Rows of A walked per packed B strip (multiple of `MR`): the block's
/// `MC×KC` floats of A stay in L2 while each strip is reused from L1.
const MC: usize = 96;
/// Depth of the shared dimension per slice.
pub const KC: usize = 256;
/// Columns of B packed per panel (multiple of `NR`).
pub const NC: usize = 512;

/// What happens to a finished tile of `A·B` on its way into C.
pub enum Epilogue<'a> {
    /// `C = A·B`.
    Store,
    /// `C += A·B`.
    Add,
    /// `C = A·B + bias`, `bias` one row of `n` values.
    Bias(&'a [f32]),
    /// `pre = A·B + bias` and `C = gelu(pre)`; `pre` is a contiguous
    /// row-major `[m, n]` buffer (the backward pass's saved pre-activation).
    BiasGelu {
        /// One row of `n` values.
        bias: &'a [f32],
        /// Receives the pre-activation.
        pre: &'a mut [f32],
    },
}

// ----- public entry points ------------------------------------------------

/// `out = A·B` for row-major `A: [m,k]`, `B: [k,n]`, `out: [m,n]`.
///
/// `out` is overwritten. Slices must have exactly the implied lengths.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    gemm_strided(m, k, n, a, k, 1, b, n, 1, out, n, Epilogue::Store);
}

/// `out = A·Bᵀ` for row-major `A: [m,k]`, `B: [n,k]`, `out: [m,n]`.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(out.len(), m * n);
    gemm_strided(m, k, n, a, k, 1, b, 1, k, out, n, Epilogue::Store);
}

/// `out = Aᵀ·B` for row-major `A: [k,m]`, `B: [k,n]`, `out: [m,n]`.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    gemm_strided(m, k, n, a, 1, m, b, n, 1, out, n, Epilogue::Store);
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

// ----- the direct-operand GEMM ----------------------------------------------

/// Elements a strided `rows × cols` view reaches into its slice.
fn view_span(rows: usize, rs: usize, cols: usize, cs: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        (rows - 1) * rs + (cols - 1) * cs + 1
    }
}

/// `C = epilogue(A·B)` over strided views: `A(i, p) = a[i*a_rs + p*a_cs]`
/// (`m × k`), `B(p, j) = b[p*b_rs + j*b_cs]` (`k × n`), `C(i, j) =
/// out[i*ldc + j]`. A view into a wider matrix passes that matrix's leading
/// dimension as the row stride and starts its slice at the column offset;
/// elements of `out` between the rows of the view are not touched.
///
/// # Panics
///
/// Panics if a view reaches past its slice, `ldc < n`, or an epilogue
/// operand has the wrong length.
#[allow(clippy::too_many_arguments)]
pub fn gemm_strided(
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
    ldc: usize,
    epilogue: Epilogue<'_>,
) {
    // Each panel's views of A, B and C are checked where they are used.
    let (bias, mut pre, add) = epilogue.parts();
    assert!(bias.is_none_or(|b| b.len() == n), "gemm: bias must have {n} values");
    assert!(pre.as_ref().is_none_or(|p| p.len() == m * n), "gemm: pre-activation buffer must be {m}x{n}");
    if m == 0 || n == 0 {
        return;
    }
    let mut panel = PackedPanel::default();
    let slices = k.div_ceil(KC).max(1);
    for jc in (0..n).step_by(NC) {
        let nc = (n - jc).min(NC);
        for slice in 0..slices {
            let pc = slice * KC;
            let kc = (k - pc).min(KC);
            let last = slice + 1 == slices;
            // An empty product (`k == 0`) has no B to offset into.
            panel.pack(b.get(pc * b_rs + jc * b_cs..).unwrap_or(&[]), b_rs, b_cs, kc, nc);
            // Every slice after the first adds to C; the bias rides the last.
            let bias = bias.filter(|_| last).map(|b| &b[jc..jc + nc]);
            let pre = pre.as_deref_mut().map(|p| (&mut p[jc..], n));
            run_panel(m, &a[pc * a_cs..], a_rs, a_cs, &panel, &mut out[jc..], ldc, add || slice > 0, bias, pre, last);
        }
    }
}

/// One `k × n` panel of B (`k ≤ KC`, `n ≤ NC`) packed for the tile: `NR`-wide,
/// depth-major strips, `strips[t*k*NR + p*NR + c] = B(p, t*NR + c)`,
/// zero-padded where the last strip overhangs `n`. A copy of B as it was when
/// packed: hold it no longer than the borrow it was packed from. The pooled
/// buffer is reused by every `pack` and returns to the [`pool`] on drop.
pub struct PackedPanel {
    strips: Vec<f32>,
    k: usize,
    n: usize,
}

impl Default for PackedPanel {
    /// An empty (`0 × 0`) panel.
    fn default() -> Self {
        Self { strips: pool::take_uninit(KC * NC), k: 0, n: 0 }
    }
}

impl PackedPanel {
    /// Replaces the contents with the `k × n` view `B(p, j) = b[p*b_rs +
    /// j*b_cs]`. Unit column stride copies whole rows; otherwise (a
    /// transposed B) each strip row gathers its 16 columns, so the writes
    /// are the contiguous side. Panics if `k > KC`, `n > NC`, or the view
    /// reaches past `b`.
    pub fn pack(&mut self, b: &[f32], b_rs: usize, b_cs: usize, k: usize, n: usize) {
        assert!(k <= KC && n <= NC, "gemm: a {k}x{n} panel exceeds {KC}x{NC}");
        assert!(b.len() >= view_span(k, b_rs, n, b_cs), "gemm: B panel {k}x{n} reaches past its slice");
        (self.k, self.n) = (k, n);
        if k == 0 {
            return;
        }
        if b_cs == 1 {
            for p in 0..k {
                for (t, src) in b[p * b_rs..][..n].chunks(NR).enumerate() {
                    let dst = &mut self.strips[(t * k + p) * NR..][..NR];
                    match <&[f32; NR]>::try_from(src) {
                        Ok(src) => dst.copy_from_slice(src),
                        Err(_) => {
                            dst[..src.len()].copy_from_slice(src);
                            dst[src.len()..].fill(0.0);
                        }
                    }
                }
            }
            return;
        }
        for t in 0..n.div_ceil(NR) {
            let strip = &mut self.strips[t * k * NR..(t + 1) * k * NR];
            let width = (n - t * NR).min(NR);
            // Columns past the edge re-read the last real one, then are zeroed.
            let col: [usize; NR] = std::array::from_fn(|c| (t * NR + c.min(width - 1)) * b_cs);
            for (p, dst) in strip.chunks_exact_mut(NR).enumerate() {
                for (d, &at) in dst.iter_mut().zip(&col) {
                    *d = b[at + p * b_rs];
                }
                dst[width..].fill(0.0);
            }
        }
    }
}

impl Drop for PackedPanel {
    fn drop(&mut self) {
        pool::put(std::mem::take(&mut self.strips));
    }
}

/// [`gemm_strided`] for a B that is already packed (`k` and `n` are the
/// panel's): the same tiles, chain and epilogue, bit for bit, and the same
/// panics.
#[allow(clippy::too_many_arguments)]
pub fn gemm_panel(m: usize, a: &[f32], a_rs: usize, a_cs: usize, panel: &PackedPanel, out: &mut [f32], ldc: usize, epilogue: Epilogue<'_>) {
    let (bias, pre, add) = epilogue.parts();
    run_panel(m, a, a_rs, a_cs, panel, out, ldc, add, bias, pre.map(|p| (p, panel.n)), true);
}

impl<'a> Epilogue<'a> {
    /// `(bias row, pre-activation buffer, add to C)`.
    fn parts(self) -> (Option<&'a [f32]>, Option<&'a mut [f32]>, bool) {
        match self {
            Epilogue::Store => (None, None, false),
            Epilogue::Add => (None, None, true),
            Epilogue::Bias(bias) => (Some(bias), None, false),
            Epilogue::BiasGelu { bias, pre } => (Some(bias), Some(pre), false),
        }
    }
}

/// The tiles of one packed panel over all `m` rows of A; each strip stays in
/// L1 across an `MC`-row block. They add to the destination when
/// `accumulate`, then add `bias` (the panel's columns of it). With `pre` —
/// the pre-activation buffer from the panel's first column, and its leading
/// dimension — they land there instead of in `out`, and when the shared
/// dimension ends with this panel (`last`) GELU carries them to `out`.
#[allow(clippy::too_many_arguments)]
fn run_panel(m: usize, a: &[f32], a_rs: usize, a_cs: usize, panel: &PackedPanel, out: &mut [f32], ldc: usize, accumulate: bool, bias: Option<&[f32]>, mut pre: Option<(&mut [f32], usize)>, last: bool) {
    let (kc, nc) = (panel.k, panel.n);
    // The AVX2 tile reads and writes through raw pointers; these are the
    // checks its SAFETY comments cite.
    assert!(a.len() >= view_span(m, a_rs, kc, a_cs), "gemm: A view {m}x{kc} reaches past its slice");
    assert!(ldc >= nc && out.len() >= view_span(m, ldc, nc, 1), "gemm: C view {m}x{nc} (ld {ldc}) reaches past its slice");
    assert!(pre.as_ref().is_none_or(|(p, ld)| *ld >= nc && p.len() >= view_span(m, *ld, nc, 1)), "gemm: pre-activation view {m}x{nc} reaches past its slice");
    assert!(bias.is_none_or(|b| b.len() == nc), "gemm: bias must have {nc} values");
    if m == 0 || nc == 0 {
        return;
    }
    // An empty product never reads A; one stand-in element keeps the tiles'
    // row offsets in bounds whatever strides came with it.
    let (a, a_rs, a_cs) = if kc == 0 { (&[0.0f32][..], 0, 0) } else { (a, a_rs, a_cs) };
    let step = TileStep {
        kc,
        a_rs,
        a_cs,
        // Tiles land in `pre` when there is one.
        ldd: pre.as_ref().map_or(ldc, |(_, ld)| *ld),
        accumulate,
        bias,
        // One cached-atomic read per panel, not per tile; `simd::level()`
        // honors the EMBA_FORCE_SCALAR cap so CI can pin the portable tile.
        level: simd::level(),
    };
    // The AVX-512 tile takes two adjacent strips at a time.
    let (strips, group) = (nc.div_ceil(NR), if step.level == simd::Level::Avx512 { 2 } else { 1 });
    for ic in (0..m).step_by(MC) {
        let mc = (m - ic).min(MC);
        let dst: &mut [f32] = match pre.as_mut() {
            Some((pre, _)) => pre,
            None => &mut *out,
        };
        for jt in (0..strips).step_by(group) {
            let width = (strips - jt).min(group);
            let b_strips = &panel.strips[jt * kc * NR..(jt + width) * kc * NR];
            let col0 = jt * NR;
            let cols = (nc - col0).min(width * NR);
            for row0 in (ic..ic + mc).step_by(MR) {
                let rows = (ic + mc - row0).min(MR);
                step.run(a, b_strips, dst, row0, rows, col0, cols);
            }
        }
        if let (true, Some((pre, ld))) = (last, pre.as_ref()) {
            for row in ic..ic + mc {
                let o = &mut out[row * ldc..][..nc];
                o.copy_from_slice(&pre[row * ld..][..nc]);
                simd::gelu_span(o);
            }
        }
    }
}

/// What every tile of one panel shares.
struct TileStep<'a> {
    kc: usize,
    a_rs: usize,
    a_cs: usize,
    /// Leading dimension of the destination.
    ldd: usize,
    accumulate: bool,
    bias: Option<&'a [f32]>,
    level: simd::Level,
}

impl TileStep<'_> {
    /// Computes the `rows × cols` tile at `(row0, col0)` over the packed
    /// strips `b_strips` (`cols.div_ceil(NR)` of them, `kc × NR` floats
    /// each) and finishes it into `dst`. Rows past an edge re-read the
    /// tile's last real row of A and columns past an edge multiply the
    /// strip's zero padding; neither is stored.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn run(&self, a: &[f32], b_strips: &[f32], dst: &mut [f32], row0: usize, rows: usize, col0: usize, cols: usize) {
        let a_row: [usize; MR] = std::array::from_fn(|r| (row0 + r.min(rows - 1)) * self.a_rs);
        let strips = cols.div_ceil(NR);
        let strip_len = self.kc * NR;
        match self.level {
            #[cfg(target_arch = "x86_64")]
            simd::Level::Avx512 => {
                simd::tally(simd::Site::GemmF32, simd::Level::Avx512, strips as u64);
                let (at, bias) = self.check_raw(a, &a_row, dst, row0, rows, col0, cols);
                assert!(b_strips.len() == strips * strip_len && strips <= 2);
                // SAFETY: `simd::level()` is `Avx512` only on a CPU with
                // AVX-512 F. `check_raw` and the assert above checked every
                // bound the tile's contract names, for 1 or 2 strips.
                unsafe {
                    let a_ptr = a_row.map(|o| a.as_ptr().add(o));
                    let (b, c) = (b_strips.as_ptr(), dst.as_mut_ptr().add(at));
                    if strips == 2 {
                        simd::tile_6x32_avx512::<2>(self.kc, a_ptr, self.a_cs, b, strip_len, c, self.ldd, rows, cols, self.accumulate, bias);
                    } else {
                        simd::tile_6x32_avx512::<1>(self.kc, a_ptr, self.a_cs, b, strip_len, c, self.ldd, rows, cols, self.accumulate, bias);
                    }
                }
            }
            // The one-strip bodies take a tile a strip at a time.
            _ => {
                for s in 0..strips {
                    let strip = &b_strips[s * strip_len..(s + 1) * strip_len];
                    self.run_strip(a, a_row, strip, dst, row0, rows, col0 + s * NR, (cols - s * NR).min(NR));
                }
            }
        }
    }

    /// [`TileStep::run`] for one strip (`cols <= NR`) on the AVX2 or the
    /// portable body.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn run_strip(&self, a: &[f32], a_row: [usize; MR], b_strip: &[f32], dst: &mut [f32], row0: usize, rows: usize, col0: usize, cols: usize) {
        match self.level {
            #[cfg(target_arch = "x86_64")]
            simd::Level::Avx2 | simd::Level::Avx2Vnni => {
                simd::tally(simd::Site::GemmF32, simd::Level::Avx2, 1);
                let (at, bias) = self.check_raw(a, &a_row, dst, row0, rows, col0, cols);
                assert!(b_strip.len() == self.kc * NR && cols <= NR);
                // SAFETY: `simd::level()` is `Avx2` or above only on a CPU
                // with AVX2+FMA. `check_raw` and the assert above checked
                // every bound the tile's contract names.
                unsafe {
                    let a_ptr = a_row.map(|o| a.as_ptr().add(o));
                    let c = dst.as_mut_ptr().add(at);
                    simd::tile_6x16_avx2(self.kc, a_ptr, self.a_cs, b_strip.as_ptr(), c, self.ldd, rows, cols, self.accumulate, bias);
                }
            }
            _ => {
                simd::tally(simd::Site::GemmF32, simd::Level::Scalar, 1);
                let at = row0 * self.ldd + col0;
                let bias = self.bias.map(|b| &b[col0..col0 + cols]);
                let mut acc = [[0.0f32; NR]; MR];
                tile_portable(a, a_row, self.a_cs, b_strip, &mut acc);
                for (acc_row, r) in acc.iter().zip(0..rows) {
                    let row = &mut dst[at + r * self.ldd..][..cols];
                    for (c, o) in row.iter_mut().enumerate() {
                        let mut v = acc_row[c];
                        if self.accumulate {
                            v += *o;
                        }
                        if let Some(bias) = bias {
                            v += bias[c];
                        }
                        *o = v;
                    }
                }
            }
        }
    }

    /// Checks what an explicit-SIMD tile reads and writes besides B: each
    /// `a_row[r]` lies in `a` (it addresses `A(i, 0)` for a real row
    /// `i < m`, and the view `run_panel` asserted puts the `kc` strided
    /// reads from it inside `a`), and the `rows` rows of `cols` floats from
    /// `(row0, col0)` at stride `ldd` end inside `dst`. Returns that first
    /// element's offset and the tile's `cols` bias values, or null.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn check_raw(&self, a: &[f32], a_row: &[usize; MR], dst: &[f32], row0: usize, rows: usize, col0: usize, cols: usize) -> (usize, *const f32) {
        let at = row0 * self.ldd + col0;
        assert!(a_row.iter().all(|&o| o < a.len()) && at + (rows - 1) * self.ldd + cols <= dst.len());
        (at, self.bias.map_or(std::ptr::null(), |b| b[col0..col0 + cols].as_ptr()))
    }
}

/// The portable twin of the explicit-SIMD tiles: the same FMA chain per
/// element, spelled with `f32::mul_add` over fixed-size rows so the compiler
/// unrolls and vectorizes it. `a_row[r]` is the offset of `A(row r, first p)`.
#[inline(always)]
fn tile_portable(a: &[f32], a_row: [usize; MR], a_cs: usize, b_strip: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (p, bp) in b_strip.chunks_exact(NR).enumerate() {
        let bp: &[f32; NR] = bp.try_into().expect("strip rows are NR wide");
        for r in 0..MR {
            let av = a[a_row[r] + p * a_cs];
            for c in 0..NR {
                acc[r][c] = av.mul_add(bp[c], acc[r][c]);
            }
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

/// Jacobian-vector product of one softmax row, written into `dx`:
/// `dx = p ⊙ (g − dot(g, p)) · s`, where `s` folds in the derivative of a
/// pre-softmax scale.
pub fn softmax_row_backward_scaled(g: &[f32], p: &[f32], s: f32, dx: &mut [f32]) {
    let d = dot(g, p);
    for ((o, &gv), &pv) in dx.iter_mut().zip(g).zip(p) {
        *o = pv * (gv - d) * s;
    }
}

/// [`softmax_row_backward_scaled`] over every row of contiguous
/// `[rows, cols]` buffers.
pub fn softmax_rows_backward_scaled(rows: usize, cols: usize, g: &[f32], p: &[f32], s: f32, dx: &mut [f32]) {
    debug_assert_eq!(g.len(), rows * cols);
    debug_assert_eq!(p.len(), rows * cols);
    debug_assert_eq!(dx.len(), rows * cols);
    for r in 0..rows {
        let span = r * cols..(r + 1) * cols;
        softmax_row_backward_scaled(&g[span.clone()], &p[span.clone()], s, &mut dx[span]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::test_util::{agreed_on_every_tier, between_sweeps, bits, ran};
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
        // panel edges, and multi-panel sizes.
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
    fn forced_scalar_env_runs_the_portable_tile() {
        // tier1.sh's `EMBA_FORCE_SCALAR=1 cargo test -p emba-tensor` leg exists
        // to run the portable tile on SIMD machines: with the variable
        // exported, every tile of a GEMM outside a tier sweep must be
        // portable. (`simd::tests::every_tier_dispatches_to_its_own_body`
        // holds each tier's dispatch to its own body.)
        let forced = std::env::var("EMBA_FORCE_SCALAR")
            .is_ok_and(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"));
        let mut rng = StdRng::seed_from_u64(20);
        let (m, k, n) = (13, 40, 33);
        let (a, b) = (rand_vec(&mut rng, m * k), rand_vec(&mut rng, k * n));
        let mut out = vec![0.0f32; m * n];
        let (tier, before, after) = between_sweeps(|| {
            let before = ran(simd::Site::GemmF32);
            gemm_nn(m, k, n, &a, &b, &mut out);
            (simd::level(), before, ran(simd::Site::GemmF32))
        });
        if forced || simd::detected() == simd::Level::Scalar {
            assert_eq!(tier, simd::Level::Scalar);
            assert_eq!(after[0] - before[0], (m.div_ceil(MR) * n.div_ceil(NR)) as u64, "GEMM tiles bypassed the portable tile");
        }
        assert_close(&out, &reference_nn(m, k, n, &a, &b), 1e-5, "nn 13x40x33");
    }

    /// `gemm_strided` into `out` against the same product assembled by hand
    /// from `PackedPanel::pack` + `gemm_panel`, one `KC × NC` panel at a time.
    #[allow(clippy::too_many_arguments)]
    fn assert_panels_match(m: usize, k: usize, n: usize, a: &[f32], a_rs: usize, a_cs: usize, b: &[f32], b_rs: usize, b_cs: usize, ctx: &str) {
        let (whole, by_panel) = agreed_on_every_tier(|| {
            let mut whole = vec![f32::NAN; m * n];
            gemm_strided(m, k, n, a, a_rs, a_cs, b, b_rs, b_cs, &mut whole, n, Epilogue::Store);
            let mut by_panel = vec![f32::NAN; m * n];
            let mut panel = PackedPanel::default();
            for jc in (0..n).step_by(NC) {
                let nc = (n - jc).min(NC);
                for pc in (0..k).step_by(KC) {
                    let kc = (k - pc).min(KC);
                    panel.pack(&b[pc * b_rs + jc * b_cs..], b_rs, b_cs, kc, nc);
                    let epilogue = if pc == 0 { Epilogue::Store } else { Epilogue::Add };
                    gemm_panel(m, &a[pc * a_cs..], a_rs, a_cs, &panel, &mut by_panel[jc..], n, epilogue);
                }
            }
            let (whole, by_panel) = (bits(&whole), bits(&by_panel));
            assert_eq!(whole, by_panel, "{ctx} on {:?}: by-panel differs from gemm_strided", simd::level());
            (whole, by_panel)
        });
        assert_eq!(whole, by_panel, "{ctx}");
    }

    #[test]
    fn packed_panels_reproduce_gemm_strided_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        // One panel, several K-slices (k > KC), several column panels
        // (n > NC), and both at once with ragged edges everywhere.
        for &(m, k, n) in &[(7, 40, 33), (30, 128, 29), (5, KC + 37, 50), (9, 24, NC + 21), (14, 2 * KC + 3, NC + 70)] {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            assert_panels_match(m, k, n, &a, k, 1, &b, n, 1, &format!("nn {m}x{k}x{n}"));
            // The same buffers read as Bᵀ stored [n, k], then as Aᵀ stored [k, m].
            assert_panels_match(m, k, n, &a, k, 1, &b, 1, k, &format!("nt {m}x{k}x{n}"));
            assert_panels_match(m, k, n, &a, 1, m, &b, n, 1, &format!("tn {m}x{k}x{n}"));
        }
    }

    #[test]
    fn a_panel_is_reused_across_products_and_repacked_in_place() {
        let mut rng = StdRng::seed_from_u64(22);
        let (k, n) = (64, 21);
        let (b1, b2) = (rand_vec(&mut rng, k * n), rand_vec(&mut rng, k * 9));
        let mut panel = PackedPanel::default();
        panel.pack(&b1, n, 1, k, n);
        for m in [1usize, 6, 17] {
            let a = rand_vec(&mut rng, m * k);
            let (mut got, mut want) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
            gemm_panel(m, &a, k, 1, &panel, &mut got, n, Epilogue::Store);
            gemm_nn(m, k, n, &a, &b1, &mut want);
            assert_eq!(bits(&got), bits(&want), "reused panel, m = {m}");
        }
        // A narrower B packed over the first: nothing of the old one is read.
        panel.pack(&b2, 9, 1, k, 9);
        let a = rand_vec(&mut rng, 4 * k);
        let (mut got, mut want) = (vec![0.0f32; 4 * 9], vec![0.0f32; 4 * 9]);
        gemm_panel(4, &a, k, 1, &panel, &mut got, 9, Epilogue::Store);
        gemm_nn(4, k, 9, &a, &b2, &mut want);
        assert_eq!(bits(&got), bits(&want), "repacked panel");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn a_panel_rejects_more_than_kc_rows() {
        PackedPanel::default().pack(&vec![0.0; (KC + 1) * 4], 4, 1, KC + 1, 4);
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
                let got = agreed_on_every_tier(|| {
                    let mut r = row.clone();
                    scaled_softmax_in_place(&mut r, s);
                    bits(&r)
                });
                let got: Vec<f32> = got.into_iter().map(f32::from_bits).collect();
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
            let got = agreed_on_every_tier(|| {
                let mut y = vec![0.0f32; w];
                let (mean, istd) = layer_norm_row(&x, &gamma, &beta, &mut y);
                (bits(&y), mean.to_bits(), istd.to_bits())
            });
            for (i, (&g, &e)) in got.0.iter().zip(&want).enumerate() {
                let g = f32::from_bits(g);
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
            let got = agreed_on_every_tier(|| {
                let (mut dx, mut dg, mut db) = (vec![0.0f32; w], vec![1.0f32; w], vec![2.0f32; w]);
                layer_norm_row_backward(&g, &x, &gamma, mean, istd, &mut dx, &mut dg, &mut db);
                [dx, dg, db].map(|v| bits(&v))
            });
            let [dx_got, dg_got, db_got] = got.map(|v| v.into_iter().map(f32::from_bits).collect::<Vec<f32>>());

            let (m, s) = (f64::from(mean), f64::from(istd));
            let xhat: Vec<f64> = x.iter().map(|&v| (f64::from(v) - m) * s).collect();
            let d: Vec<f64> = g.iter().zip(&gamma).map(|(&a, &b)| f64::from(a) * f64::from(b)).collect();
            let mean_d = d.iter().sum::<f64>() / w as f64;
            let mean_dh = d.iter().zip(&xhat).map(|(a, b)| a * b).sum::<f64>() / w as f64;
            for i in 0..w {
                let dx = s * (d[i] - mean_d - xhat[i] * mean_dh);
                assert!((f64::from(dx_got[i]) - dx).abs() <= 1e-5 * (1.0 + dx.abs()), "width {w} dx[{i}]");
                // Parameter gradients accumulate on top of what was there.
                let dg = 1.0 + f64::from(g[i]) * xhat[i];
                assert!((f64::from(dg_got[i]) - dg).abs() <= 1e-5, "width {w} dgamma[{i}]");
                assert_eq!(db_got[i], 2.0 + g[i], "width {w} dbeta[{i}]");
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
