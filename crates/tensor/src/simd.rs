//! Cached CPU-feature detection and explicit `std::arch` micro-kernels.
//!
//! Detection runs once per process (`is_x86_feature_detected!` walks CPUID
//! every call, which is far too slow for a per-GEMM decision) and is cached
//! in an atomic as the set of tiers this CPU runs. Kernels dispatch on
//! [`level`]: the best of those tiers at or under a cap. The cap starts at
//! [`Level::Scalar`] when the `EMBA_FORCE_SCALAR` environment variable is
//! set (so CI exercises the portable definitions on any machine) and
//! uncapped otherwise; [`set_max_level`] moves it in-process, and
//! [`on_every_tier`] runs a closure under each tier in turn, which is how
//! the tests hold every tier to the same bits.
//!
//! The tiers, in ascending order: the portable definitions, AVX2+FMA,
//! AVX2 plus AVX-VNNI, and AVX-512 (F, BW, VL and VNNI, on top of AVX2+FMA).
//! A CPU need not have every tier below its best: an AVX-512 part without
//! AVX-VNNI skips `Avx2Vnni`, and a cap there lands on `Avx2`.
//!
//! Four kernel families live here:
//!
//! * quantized GEMM ([`tiles_u8i8`]): the workhorse of the int8 backend, one
//!   6 x 16 outer-product tile over weights packed once
//!   ([`pack_strips_i8`]). Activations are *unsigned* (asymmetric per-row
//!   quantization, see `crate::quant`), weights signed — exactly the operand
//!   pair `vpdpbusd` (AVX-VNNI, AVX512-VNNI) fuses into one
//!   multiply-widen-accumulate: each step broadcasts 4 bytes of an activation
//!   row, read in place, against 16 columns x 4 k-bytes of a packed strip, so
//!   an i32 lane IS one output column and nothing is ever summed across
//!   lanes. A strip's k-group is 64 bytes, one zmm register: the AVX-512 body
//!   runs two adjacent strips per step, a 6 x 32 tile, and hands back each
//!   strip's 6 x 16 block in order. The plain-AVX2 body must NOT use the
//!   tempting `_mm256_maddubs_epi16` shortcut: with u8 activations a pair sum
//!   reaches `2 * 255 * 127 = 64770 > i16::MAX` and saturates silently. It
//!   instead widens both operands to i16 and uses `_mm256_madd_epi16`, which
//!   pair-sums into i32 exactly. Integer accumulation is exact and
//!   order-independent, so every body is bit-identical and a tile's result
//!   does not depend on the rows or columns computed beside it.
//! * activation quantization ([`min_max`], [`quantize_span_u8`]): the
//!   min/max pass (which also spots a non-finite element) and the
//!   scale-round-clamp pass, both vectorized — at transformer widths the
//!   scalar version costs as much as the GEMM it feeds. The AVX2 bodies serve
//!   the AVX-512 tier too.
//! * f32 GEMM tiles (`tile_6x16_avx2`, `tile_6x32_avx512`): the explicit
//!   micro-kernels under every f32 matrix product. The AVX-512 tile runs two
//!   adjacent packed 16-column strips in 16-lane registers (one on a panel's
//!   odd last strip); `kernels::tile_portable` is the twin of both, the same
//!   FMA chain spelled with `f32::mul_add`.
//! * transcendentals ([`gelu_span`], [`gelu_grad_span`], the softmax
//!   exponent): one range-reduced exp2 polynomial shared by the f32 and
//!   int8 backends, forward and backward — no libm on the hot path.
//!
//! Rounding contract: all tiers round ties-to-even (`vcvtps2dq`'s default
//! mode; `f32::round_ties_even` in the scalar fallback) so forced-scalar
//! runs reproduce SIMD runs bit-for-bit.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

/// Instruction-set tier selected for kernel dispatch, in ascending order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Portable fallback; also what `EMBA_FORCE_SCALAR` pins.
    Scalar,
    /// AVX2 (+FMA for f32): widen-and-`madd_epi16` integer dot products.
    Avx2,
    /// AVX2 plus AVX-VNNI `vpdpbusd` fused u8xi8 dot-accumulate.
    Avx2Vnni,
    /// AVX-512 F, BW, VL and VNNI on top of AVX2+FMA: the f32 and int8
    /// tiles in 16-lane registers, two packed strips per tile.
    Avx512,
}

impl Level {
    /// Every tier, portable first.
    pub const ALL: [Level; 4] = [Level::Scalar, Level::Avx2, Level::Avx2Vnni, Level::Avx512];

    /// Stable lower-case label used in bench reports and backend names.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Avx2Vnni => "avx2+vnni",
            Level::Avx512 => "avx512+vnni",
        }
    }

    fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// `Level::bit` of every tier this CPU runs (never 0: the portable tier
/// always runs); 0 until detected.
static SUPPORTED: AtomicU8 = AtomicU8::new(0);

/// The dispatch tier as a `Level` discriminant, or `UNSET` before the
/// first [`level`] call reads the environment.
static LEVEL: AtomicU8 = AtomicU8::new(UNSET);
const UNSET: u8 = u8::MAX;

#[cfg(target_arch = "x86_64")]
fn detect() -> u8 {
    let mut tiers = Level::Scalar.bit();
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        tiers |= Level::Avx2.bit();
        if is_x86_feature_detected!("avxvnni") {
            tiers |= Level::Avx2Vnni.bit();
        }
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("avx512vnni")
        {
            tiers |= Level::Avx512.bit();
        }
    }
    tiers
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> u8 {
    Level::Scalar.bit()
}

/// Whether this CPU runs `level`'s kernels, detected once and cached.
pub fn supports(level: Level) -> bool {
    let mut tiers = SUPPORTED.load(Ordering::Relaxed);
    if tiers == 0 {
        tiers = detect();
        SUPPORTED.store(tiers, Ordering::Relaxed);
    }
    tiers & level.bit() != 0
}

/// Every tier this CPU runs, portable first.
pub fn available() -> impl Iterator<Item = Level> {
    Level::ALL.into_iter().filter(|&l| supports(l))
}

/// The best tier this CPU supports.
pub fn detected() -> Level {
    best_under(Level::Avx512)
}

/// The best tier this CPU supports at or under `cap`.
fn best_under(cap: Level) -> Level {
    available().filter(|&l| l <= cap).last().unwrap_or(Level::Scalar)
}

/// Caps dispatch at `cap`: [`level`] becomes the best tier this CPU
/// supports at or under it. Process-wide; `EMBA_FORCE_SCALAR` is the same
/// cap at [`Level::Scalar`], set before the first dispatch.
pub fn set_max_level(cap: Level) {
    LEVEL.store(best_under(cap) as u8, Ordering::Relaxed);
}

/// The tier kernels actually dispatch on: the best supported tier under
/// the cap.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        UNSET => {
            let forced = std::env::var("EMBA_FORCE_SCALAR")
                .is_ok_and(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"));
            let level = if forced { Level::Scalar } else { detected() };
            // A cap set meanwhile wins over the environment's.
            match LEVEL.compare_exchange(UNSET, level as u8, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => level,
                Err(set) => decode(set),
            }
        }
        l => decode(l),
    }
}

fn decode(l: u8) -> Level {
    Level::ALL[usize::from(l)]
}

/// Serializes [`on_every_tier`] sweeps, so one sweep's cap is not moved
/// under another's.
static SWEEP: Mutex<()> = Mutex::new(());

/// Runs `f` once under each tier this CPU supports, portable first, and
/// returns each tier with its result; the cap is restored afterwards, even
/// if `f` panics. Sweeps in concurrent threads take turns. Every kernel in
/// this crate returns the same bits on every tier, so the results of a
/// deterministic `f` should all be equal.
pub fn on_every_tier<T>(mut f: impl FnMut(Level) -> T) -> Vec<(Level, T)> {
    let _turn = SWEEP.lock().unwrap_or_else(PoisonError::into_inner);
    let _restore = RestoreCap(level());
    available()
        .map(|tier| {
            set_max_level(tier);
            (tier, f(tier))
        })
        .collect()
}

/// Puts the cap back to the tier it held when dropped.
struct RestoreCap(Level);

impl Drop for RestoreCap {
    fn drop(&mut self) {
        set_max_level(self.0);
    }
}

/// Call sites whose dispatched body the tests count, by tier.
#[derive(Clone, Copy)]
pub(crate) enum Site {
    /// `kernels::run_panel`'s f32 tile, counted in 6 x 16 tiles.
    GemmF32,
    /// [`tiles_u8i8`], counted in 6 x 16 tiles.
    TilesU8i8,
    /// [`quantize_span_u8`] calls.
    QuantizeSpan,
    /// [`min_max`] calls.
    MinMax,
}

#[cfg(test)]
thread_local! {
    /// `[site][body tier]`: bodies this thread ran.
    static RAN: std::cell::Cell<[[u64; 4]; 4]> = const { std::cell::Cell::new([[0; 4]; 4]) };
}

/// Counts `n` runs of `site`'s `body` tier on this thread; free outside
/// this crate's tests.
#[inline(always)]
pub(crate) fn tally(site: Site, body: Level, n: u64) {
    #[cfg(test)]
    RAN.with(|ran| {
        let mut counts = ran.get();
        counts[site as usize][body as usize] += n;
        ran.set(counts);
    });
    #[cfg(not(test))]
    let _ = (site, body, n);
}

// ---------------------------------------------------------------------------
// Activation quantization: q[i] = clamp(round_even(x[i] * inv) + zp, 0, 255)
// ---------------------------------------------------------------------------

/// Quantizes a span of activations with a precomputed affine transform.
/// The caller guarantees `x[i] * inv + zp` stays far inside i32 range (the
/// per-row scale construction in `crate::quant` bounds it by ~2^28).
///
/// # Panics
///
/// Panics if `x` and `q` differ in length.
pub fn quantize_span_u8(x: &[f32], inv: f32, zp: i32, q: &mut [u8]) {
    assert_eq!(x.len(), q.len(), "quantize_span_u8: {} values into {} bytes", x.len(), q.len());
    match level() {
        // SAFETY: the tier was detected, and the kernel stays inside the two
        // slices, whose lengths were just checked equal.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx2Vnni | Level::Avx512 => {
            tally(Site::QuantizeSpan, Level::Avx2, 1);
            unsafe { quantize_span_u8_avx2(x, inv, zp, q) }
        }
        _ => {
            tally(Site::QuantizeSpan, Level::Scalar, 1);
            quantize_span_u8_scalar(x, inv, zp, q)
        }
    }
}

/// Portable twin of the SIMD quantization pass — ties-to-even rounding so
/// the two are bit-identical.
pub fn quantize_span_u8_scalar(x: &[f32], inv: f32, zp: i32, q: &mut [u8]) {
    for (qi, &v) in q.iter_mut().zip(x) {
        *qi = ((v * inv).round_ties_even() as i32 + zp).clamp(0, 255) as u8;
    }
}

/// Clears an f32's sign bit.
const ABS_BITS: u32 = 0x7fff_ffff;
/// Bits of `|x|` from which an f32 is infinite or NaN.
const NON_FINITE_BITS: u32 = 0x7f80_0000;

/// `(min, max)` over a span, or `(NaN, NaN)` when any element is infinite or
/// NaN: `f32::min`/`max` drop a NaN operand, so the same pass also keeps the
/// largest `|x|` bit pattern, which orders like the magnitude and puts every
/// non-finite value on top. All three reductions are exact and
/// order-independent, so the vectorized and scalar forms agree bit for bit.
pub fn min_max(x: &[f32]) -> (f32, f32) {
    let (mn, mx, top) = match level() {
        // SAFETY: the tier was detected; the kernel only reads `x`.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx2Vnni | Level::Avx512 if x.len() >= 8 => {
            tally(Site::MinMax, Level::Avx2, 1);
            unsafe { min_max_avx2(x) }
        }
        _ => {
            tally(Site::MinMax, Level::Scalar, 1);
            min_max_scalar(x)
        }
    };
    if top >= NON_FINITE_BITS {
        (f32::NAN, f32::NAN)
    } else {
        (mn, mx)
    }
}

/// `(min, max, largest |x| bit pattern)`.
fn min_max_scalar(x: &[f32]) -> (f32, f32, u32) {
    let (mut mn, mut mx, mut top) = (f32::INFINITY, f32::NEG_INFINITY, 0u32);
    for &v in x {
        mn = mn.min(v);
        mx = mx.max(v);
        top = top.max(v.to_bits() & ABS_BITS);
    }
    (mn, mx, top)
}

// ---------------------------------------------------------------------------
// Transcendentals: one range-reduced exp2 core under GELU and softmax
// ---------------------------------------------------------------------------

// A libm `tanh`/`exp` call per element would dominate the feed-forward
// blocks and the attention softmax (it cannot vectorize), so both backends
// take their transcendentals from one vectorizable core: `2^z = 2^n * e^g` with `n = round(z)` integral,
// `g = (z - n) ln2` in `[-ln2/2, ln2/2]` and a degree-5 polynomial for
// `e^g`. The polynomial's relative error is ~3e-6, which puts `tanh` within
// ~1.7e-6, the GELU output within ~2e-6 * |x| and a softmax probability
// within ~1e-6 of the libm value.
//
// These kernels have no `std::arch` twin: the scalar forms below ARE the
// definitions, written as straight-line IEEE arithmetic (explicit FMAs,
// `if`-select clamps, no float-to-int cast) that the compiler vectorizes
// under the workspace's `target-cpu=native` into the same lane math — so
// every tier is bit-identical by construction, and a twin added later must
// mirror its definition lane for lane. Every kernel is elementwise: a
// value's result never depends on its neighbours, and NaN in is NaN out.

/// `sqrt(2/pi)`, for the tanh GELU approximation used by BERT.
const GELU_C: f32 = 0.797_884_6;
/// Cubic coefficient of the tanh GELU approximation.
const GELU_K: f32 = 0.044_715;
/// `2 * log2(e)`: folds the `2u` of `tanh(u) = 1 - 2/(e^{2u}+1)` into the
/// base-2 range reduction.
const TWO_LOG2E: f32 = 2.0 * std::f32::consts::LOG2_E;
const LN2: f32 = std::f32::consts::LN_2;
/// Bounds on the core's argument: `2^n` must stay a normal f32. Callers
/// clamp the side they can reach with `if`-selects (NOT `f32::min`/`max`,
/// which would swallow a NaN argument).
const EXP2_ARG_MIN: f32 = -126.0;
const EXP2_ARG_MAX: f32 = 127.0;

/// `1.5 * 2^23`. Adding it to an f32 of magnitude below 2^22 rounds that
/// value to the nearest integer (ties to even, the default mode) and leaves
/// the integer in the sum's low mantissa bits — rounding and float-to-int
/// conversion in one add, with no saturating cast for the vectorizer to
/// scalarize.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `2^z` for `z` in `[EXP2_ARG_MIN, EXP2_ARG_MAX]`; NaN for NaN.
#[inline(always)]
fn exp2_core(z: f32) -> f32 {
    let shifted = z + ROUND_MAGIC;
    let n = shifted - ROUND_MAGIC;
    let g = (z - n) * LN2;
    let p = (1.0 / 120.0f32)
        .mul_add(g, 1.0 / 24.0)
        .mul_add(g, 1.0 / 6.0)
        .mul_add(g, 0.5)
        .mul_add(g, 1.0)
        .mul_add(g, 1.0);
    // Biased exponent `n + 127` moved into place; the magic's own bits
    // shift out.
    p * f32::from_bits(shifted.to_bits().wrapping_add(127) << 23)
}

/// `e^d` for `d <= 0`, the softmax exponent. Arguments below the f32
/// exponent range clamp to the smallest normal (~1.2e-38) instead of
/// flushing to zero; NaN and `-inf` (an overflowed logit — this engine
/// masks by width, never by `-inf`) both come out NaN, so a non-finite
/// score poisons its row's sum rather than vanishing from it.
#[inline(always)]
pub(crate) fn exp_nonpos(d: f32) -> f32 {
    let z = d * std::f32::consts::LOG2_E;
    let z = if z < EXP2_ARG_MIN { EXP2_ARG_MIN } else { z };
    // `d * 0` is NaN exactly when `d` is non-finite and a signed zero
    // otherwise, which leaves the (positive) exponential unchanged.
    d.mul_add(0.0, exp2_core(z))
}

/// `tanh(sqrt(2/pi) * (x + 0.044715 x^3))`, the inner term GELU and its
/// derivative share. Saturates to exactly `±1` once `e^{2|u|}` passes 2^26.
#[inline(always)]
fn gelu_tanh(x: f32) -> f32 {
    let x2 = x * x;
    let u = GELU_C * GELU_K.mul_add(x2 * x, x);
    let z = u.abs() * TWO_LOG2E;
    let z = if z > EXP2_ARG_MAX { EXP2_ARG_MAX } else { z };
    let t = 1.0 - 2.0 / (exp2_core(z) + 1.0);
    // tanh is odd: restore u's sign bit.
    f32::from_bits(t.to_bits() ^ (u.to_bits() & 0x8000_0000))
}

/// One element of the tanh GELU `0.5 x (1 + tanh(..))`, the activation of
/// both backends.
#[inline]
pub fn fast_gelu(x: f32) -> f32 {
    (0.5 * x) * (1.0 + gelu_tanh(x))
}

/// One element of the GELU derivative, from the same tanh as
/// [`fast_gelu`]: `0.5 (1 + t) + 0.5 x (1 - t^2) u'(x)`.
#[inline]
pub fn fast_gelu_grad(x: f32) -> f32 {
    let t = gelu_tanh(x);
    let du = GELU_C * (3.0 * GELU_K).mul_add(x * x, 1.0);
    let sech2 = (-t).mul_add(t, 1.0);
    ((0.5 * x) * sech2).mul_add(du, 0.5 * (1.0 + t))
}

/// In-place GELU over a span.
pub fn gelu_span(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = fast_gelu(*v);
    }
}

/// GELU backward over a span: `dx[i] = g[i] * gelu'(x[i])`.
pub fn gelu_grad_span(x: &[f32], g: &[f32], dx: &mut [f32]) {
    debug_assert_eq!(x.len(), g.len());
    debug_assert_eq!(x.len(), dx.len());
    for ((o, &xi), &gi) in dx.iter_mut().zip(x).zip(g) {
        *o = gi * fast_gelu_grad(xi);
    }
}

// ---------------------------------------------------------------------------
// Quantized GEMM: one 6 x 16 outer-product tile over packed weight strips
// ---------------------------------------------------------------------------

/// Rows per int8 register tile.
pub const Q8_MR: usize = 6;
/// Columns per int8 register tile, and per packed weight strip.
pub const Q8_NR: usize = 16;
/// Bytes of the shared dimension one i32 lane consumes per step.
pub const Q8_KG: usize = 4;
/// Bytes of one k-group of a strip: `Q8_NR` columns x `Q8_KG` bytes.
const Q8_GROUP: usize = Q8_NR * Q8_KG;

/// The exact i32 sums of one tile, `[row][column]`.
pub type Q8Block = [[i32; Q8_NR]; Q8_MR];

/// Packs a column-major `k x n` i8 matrix (`w[j * k + i] = W(i, j)`) for the
/// tile: `ceil(n / 16)` strips, each `ceil(k / 4)` k-groups of 16 columns x
/// 4 bytes, `strips[((t * k4 + g) * 16 + c) * 4 + b] = W(4g + b, 16t + c)`
/// ([`strip_index`]). Both edges are zero-padded, and a zero byte contributes exactly 0 to a
/// sum. The result is `ceil(n / 16) * ceil(k / 4) * 64` bytes, no more.
///
/// # Panics
///
/// Panics if `w` is not `k * n` long.
pub fn pack_strips_i8(w: &[i8], k: usize, n: usize) -> Vec<i8> {
    assert_eq!(w.len(), k * n, "pack_strips_i8: {} weights for {k}x{n}", w.len());
    let strip_len = k.div_ceil(Q8_KG) * Q8_GROUP;
    let mut strips = vec![0i8; n.div_ceil(Q8_NR) * strip_len];
    for (strip, cols) in strips.chunks_mut(strip_len.max(1)).zip(w.chunks((Q8_NR * k).max(1))) {
        pack_strip_i8(cols, k, strip);
    }
    strips
}

/// Where [`pack_strips_i8`] puts `W(i, j)` when a strip has `k4` k-groups.
pub fn strip_index(k4: usize, i: usize, j: usize) -> usize {
    ((j / Q8_NR * k4 + i / Q8_KG) * Q8_NR + j % Q8_NR) * Q8_KG + i % Q8_KG
}

/// One strip of [`pack_strips_i8`]: up to 16 columns of length `k` into
/// `strip`, every byte of which is written. Group by group, so the writes
/// are the sequential side and each column is one read stream.
fn pack_strip_i8(cols: &[i8], k: usize, strip: &mut [i8]) {
    for (g, group) in strip.chunks_exact_mut(Q8_GROUP).enumerate() {
        let from = g * Q8_KG;
        let depth = (k - from).min(Q8_KG);
        if depth < Q8_KG || cols.len() < Q8_NR * k {
            group.fill(0);
        }
        for (dst, col) in group.chunks_exact_mut(Q8_KG).zip(cols.chunks_exact(k)) {
            if depth == Q8_KG {
                dst.copy_from_slice(&col[from..from + Q8_KG]);
            } else {
                dst[..depth].copy_from_slice(&col[from..]);
            }
        }
    }
}

/// Every tile of `A · W` for quantized activations `A` (`m` rows of `4 * k4`
/// bytes, row `i` at `a[i * lda..]`, read in place) and weights packed by
/// [`pack_strips_i8`] (`n` columns, `k4` k-groups). Each finished tile goes
/// to `finish(row0, rows, col0, cols, block)`: `block[r][c]` for `r < rows`,
/// `c < cols` is the exact sum for `A` row `row0 + r` and column `col0 + c`.
/// An edge tile still computes 6 x 16 — rows past the edge repeat a real row,
/// columns past it multiply the strip's zeros — and the rest of its block is
/// not meaningful. Six rows cross every strip before the next six start, left
/// to right: their bytes of `A` stay in L1, the strips stream past (a
/// transformer projection's are L1- or L2-resident), and the tile whose
/// `col0 + cols == n` completes those rows of the product. The AVX-512 body
/// computes two adjacent strips at once and finishes them in that order.
///
/// `level` picks the body — `simd::level()` outside tests — and every body
/// returns the same bits.
///
/// # Panics
///
/// Panics if this CPU does not support `level`, `strips` is not the packed
/// size for `k4` x `n`, `lda < 4 * k4`, or a row of `A` reaches past `a`.
#[allow(clippy::too_many_arguments)]
pub fn tiles_u8i8(
    level: Level,
    a: &[u8],
    m: usize,
    lda: usize,
    strips: &[i8],
    k4: usize,
    n: usize,
    mut finish: impl FnMut(usize, usize, usize, usize, &Q8Block),
) {
    // The SIMD bodies read through raw pointers; these are the checks their
    // SAFETY comment cites.
    assert!(supports(level), "tiles_u8i8: tier {level:?} is not available");
    assert_eq!(strips.len(), n.div_ceil(Q8_NR) * k4 * Q8_GROUP, "tiles_u8i8: strips are not {k4} k-groups x {n} columns");
    assert!(lda >= k4 * Q8_KG, "tiles_u8i8: row stride {lda} under {} bytes", k4 * Q8_KG);
    assert!(m == 0 || a.len() >= (m - 1) * lda + k4 * Q8_KG, "tiles_u8i8: A {m}x{} (ld {lda}) reaches past its slice", k4 * Q8_KG);
    let strip_len = k4 * Q8_GROUP;
    let (count, group) = (n.div_ceil(Q8_NR), if level == Level::Avx512 { 2 } else { 1 });
    // The SIMD bodies overwrite the blocks they fill; the portable one adds.
    let mut blocks = [[[0i32; Q8_NR]; Q8_MR]; 2];
    for row0 in (0..m).step_by(Q8_MR) {
        let rows = (m - row0).min(Q8_MR);
        let a_row: [usize; Q8_MR] = std::array::from_fn(|r| (row0 + r.min(rows - 1)) * lda);
        #[cfg(target_arch = "x86_64")]
        let a_ptr = a_row.map(|o| a.as_ptr().wrapping_add(o));
        for t0 in (0..count).step_by(group) {
            let width = (count - t0).min(group);
            match level {
                // SAFETY: this CPU supports `level`. Every `a_ptr[r]` is the
                // start of a real row `i < m`, and the assert above puts the
                // `4 * k4` bytes from it inside `a`; strip `t0 + j` for
                // `j < width` holds `k4` groups of 64 bytes inside `strips`.
                #[cfg(target_arch = "x86_64")]
                Level::Avx512 => {
                    tally(Site::TilesU8i8, Level::Avx512, width as u64);
                    let b = strips[t0 * strip_len..].as_ptr();
                    unsafe {
                        if width == 2 {
                            tile_q8_avx512::<2>(k4, a_ptr, b, strip_len, &mut blocks);
                        } else {
                            tile_q8_avx512::<1>(k4, a_ptr, b, strip_len, &mut blocks);
                        }
                    }
                }
                _ => {
                    for (j, block) in blocks.iter_mut().enumerate().take(width) {
                        let strip = &strips[(t0 + j) * strip_len..(t0 + j + 1) * strip_len];
                        // SAFETY: as above, with `strip` the one strip read.
                        match level {
                            #[cfg(target_arch = "x86_64")]
                            Level::Avx2Vnni => {
                                tally(Site::TilesU8i8, Level::Avx2Vnni, 1);
                                unsafe { tile_q8_vnni(k4, a_ptr, strip.as_ptr(), block) }
                            }
                            #[cfg(target_arch = "x86_64")]
                            Level::Avx2 => {
                                tally(Site::TilesU8i8, Level::Avx2, 1);
                                unsafe { tile_q8_avx2(k4, a_ptr, strip.as_ptr(), block) }
                            }
                            _ => {
                                tally(Site::TilesU8i8, Level::Scalar, 1);
                                *block = [[0; Q8_NR]; Q8_MR];
                                tile_q8_portable(a, a_row, strip, block)
                            }
                        }
                    }
                }
            }
            for (j, block) in blocks.iter().enumerate().take(width) {
                let col0 = (t0 + j) * Q8_NR;
                finish(row0, rows, col0, (n - col0).min(Q8_NR), block);
            }
        }
    }
}

/// The portable body of the int8 tile: the same 6 x 16 x 4 products per
/// k-group as the `vpdpbusd` body, summed in the same exact i32.
#[inline(always)]
fn tile_q8_portable(a: &[u8], a_row: [usize; Q8_MR], strip: &[i8], block: &mut Q8Block) {
    for (g, group) in strip.chunks_exact(Q8_GROUP).enumerate() {
        for (acc, at) in block.iter_mut().zip(a_row) {
            let a4 = &a[at + g * Q8_KG..][..Q8_KG];
            for (sum, w4) in acc.iter_mut().zip(group.chunks_exact(Q8_KG)) {
                for (&av, &wv) in a4.iter().zip(w4) {
                    *sum += av as i32 * wv as i32;
                }
            }
        }
    }
}

/// Exact integer GEMM between quantized activations (`m` rows of length
/// `k`, unsigned) and a column-major i8 weight matrix (`n` columns of
/// length `k`): packs one strip at a time and runs its tiles. A caller that
/// multiplies by the same weights twice packs once ([`pack_strips_i8`]) and
/// calls [`tiles_u8i8`] itself, as `crate::quant` does.
///
/// # Panics
///
/// Panics unless `a`, `w` and `acc` are exactly `m * k`, `k * n` and `m * n`
/// long.
pub fn gemm_u8i8(a: &[u8], m: usize, w: &[i8], k: usize, n: usize, acc: &mut [i32]) {
    assert_eq!(a.len(), m * k, "gemm_u8i8: {} activations for {m}x{k}", a.len());
    assert_eq!(w.len(), k * n, "gemm_u8i8: {} weights for {k}x{n}", w.len());
    assert_eq!(acc.len(), m * n, "gemm_u8i8: {} sums for {m}x{n}", acc.len());
    if k == 0 {
        return acc.fill(0);
    }
    let k4 = k.div_ceil(Q8_KG);
    // The tile reads whole k-groups: rows whose length is not a multiple of
    // 4 are copied out zero-padded first.
    let padded: Vec<u8>;
    let (a, lda) = if k.is_multiple_of(Q8_KG) {
        (a, k)
    } else {
        let mut rows = vec![0u8; m * k4 * Q8_KG];
        for (dst, src) in rows.chunks_exact_mut(k4 * Q8_KG).zip(a.chunks_exact(k)) {
            dst[..k].copy_from_slice(src);
        }
        padded = rows;
        (&padded[..], k4 * Q8_KG)
    };
    let (level, mut strip) = (level(), vec![0i8; k4 * Q8_GROUP]);
    for (t, cols) in w.chunks(Q8_NR * k).enumerate() {
        pack_strip_i8(cols, k, &mut strip);
        tiles_u8i8(level, a, m, lda, &strip, k4, cols.len() / k, |row0, rows, _, cols, block| {
            for (r, sums) in block.iter().enumerate().take(rows) {
                let dst = &mut acc[(row0 + r) * n + t * Q8_NR..];
                // A full row of the tile is one fixed-size copy.
                match dst.first_chunk_mut() {
                    Some(full) if cols == Q8_NR => *full = *sums,
                    _ => dst[..cols].copy_from_slice(&sums[..cols]),
                }
            }
        });
    }
}

/// The definition the tile is held to: one dot product per output, in the
/// order written. `a` is `m x k` row-major, `w` column-major, `acc` `m x n`.
pub fn gemm_u8i8_scalar(a: &[u8], m: usize, w: &[i8], k: usize, n: usize, acc: &mut [i32]) {
    for r in 0..m {
        let row = &a[r * k..(r + 1) * k];
        let out = &mut acc[r * n..(r + 1) * n];
        for (j, o) in out.iter_mut().enumerate() {
            let col = &w[j * k..(j + 1) * k];
            *o = row.iter().zip(col).map(|(&x, &y)| x as i32 * y as i32).sum();
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// `(min, max, largest |x| bit pattern)` — see `min_max`. Two
    /// accumulators per reduction and an in-register fold at the end: on a
    /// transformer-width row the dependent `min`/`max` chain, not the loads,
    /// is what takes the time.
    #[target_feature(enable = "avx2")]
    pub unsafe fn min_max_avx2(x: &[f32]) -> (f32, f32, u32) {
        let (inf, ninf, abs) = (_mm256_set1_ps(f32::INFINITY), _mm256_set1_ps(f32::NEG_INFINITY), _mm256_set1_epi32(super::ABS_BITS as i32));
        // Sign-cleared bit patterns are non-negative as i32 too.
        let (mut mn, mut mx, mut top) = ([inf; 2], [ninf; 2], [_mm256_setzero_si256(); 2]);
        let mut wide = x.chunks_exact(16);
        for v16 in &mut wide {
            for half in 0..2 {
                let v = _mm256_loadu_ps(v16.as_ptr().add(8 * half));
                mn[half] = _mm256_min_ps(mn[half], v);
                mx[half] = _mm256_max_ps(mx[half], v);
                top[half] = _mm256_max_epi32(top[half], _mm256_and_si256(_mm256_castps_si256(v), abs));
            }
        }
        let mut rest = wide.remainder().chunks_exact(8);
        for v8 in &mut rest {
            let v = _mm256_loadu_ps(v8.as_ptr());
            mn[0] = _mm256_min_ps(mn[0], v);
            mx[0] = _mm256_max_ps(mx[0], v);
            top[0] = _mm256_max_epi32(top[0], _mm256_and_si256(_mm256_castps_si256(v), abs));
        }
        let (mn, mx, top) = (_mm256_min_ps(mn[0], mn[1]), _mm256_max_ps(mx[0], mx[1]), _mm256_max_epi32(top[0], top[1]));
        // 8 lanes -> 4 -> 2 -> 1.
        let mn = _mm_min_ps(_mm256_castps256_ps128(mn), _mm256_extractf128_ps(mn, 1));
        let mx = _mm_max_ps(_mm256_castps256_ps128(mx), _mm256_extractf128_ps(mx, 1));
        let top = _mm_max_epi32(_mm256_castsi256_si128(top), _mm256_extracti128_si256(top, 1));
        let mn = _mm_min_ps(mn, _mm_movehl_ps(mn, mn));
        let mx = _mm_max_ps(mx, _mm_movehl_ps(mx, mx));
        let top = _mm_max_epi32(top, _mm_unpackhi_epi64(top, top));
        let mn = _mm_cvtss_f32(_mm_min_ss(mn, _mm_shuffle_ps(mn, mn, 1)));
        let mx = _mm_cvtss_f32(_mm_max_ss(mx, _mm_shuffle_ps(mx, mx, 1)));
        let top = _mm_cvtsi128_si32(_mm_max_epi32(top, _mm_shuffle_epi32(top, 1))) as u32;
        let (tail_mn, tail_mx, tail_top) = super::min_max_scalar(rest.remainder());
        (mn.min(tail_mn), mx.max(tail_mx), top.max(tail_top))
    }

    /// Vectorized affine quantization via `vcvtps2dq` (ties-even, matching
    /// the scalar `round_ties_even`) and the saturating i32 -> i16 -> u8
    /// packs, which implement the `[0, 255]` clamp for free: 32 floats per
    /// step, then 8, then one.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_span_u8_avx2(x: &[f32], inv: f32, zp: i32, q: &mut [u8]) {
        let vinv = _mm256_set1_ps(inv);
        let vzp = _mm256_set1_epi32(zp);
        let xp = x.as_ptr();
        let qp = q.as_mut_ptr();
        let quant = |i: usize| _mm256_add_epi32(_mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(xp.add(i)), vinv)), vzp);
        // The 256-bit packs interleave their operands per 128-bit half; one
        // dword permute puts the 32 bytes back in order.
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let mut i = 0;
        while i + 32 <= x.len() {
            let lo = _mm256_packs_epi32(quant(i), quant(i + 8));
            let hi = _mm256_packs_epi32(quant(i + 16), quant(i + 24));
            let p8 = _mm256_permutevar8x32_epi32(_mm256_packus_epi16(lo, hi), order);
            _mm256_storeu_si256(qp.add(i) as *mut __m256i, p8);
            i += 32;
        }
        while i + 8 <= x.len() {
            let qi = quant(i);
            let p16 = _mm_packs_epi32(_mm256_castsi256_si128(qi), _mm256_extracti128_si256(qi, 1));
            _mm_storel_epi64(qp.add(i) as *mut __m128i, _mm_packus_epi16(p16, p16));
            i += 8;
        }
        while i < x.len() {
            *qp.add(i) = ((*xp.add(i) * inv).round_ties_even() as i32 + zp).clamp(0, 255) as u8;
            i += 1;
        }
    }

    /// The AVX-VNNI body of the int8 tile: twelve 8-lane i32 accumulators
    /// (with two weight vectors and one broadcast, 15 of the 16 registers).
    /// Each k-group broadcasts 4 activation bytes per row against 16 columns x
    /// 4 weight bytes, and `vpdpbusd` (unsigned x signed) adds the four
    /// products into the lane that is that column's sum.
    ///
    /// # Safety
    /// Requires AVX2 and AVX-VNNI. Every `a[r]` must be readable for
    /// `4 * k4` bytes and `b` for `64 * k4`.
    #[target_feature(enable = "avx2,avxvnni")]
    pub unsafe fn tile_q8_vnni(k4: usize, a: [*const u8; 6], b: *const i8, block: &mut super::Q8Block) {
        let mut acc = [[_mm256_setzero_si256(); 2]; 6];
        for g in 0..k4 {
            let b0 = _mm256_loadu_si256(b.add(g * 64) as *const __m256i);
            let b1 = _mm256_loadu_si256(b.add(g * 64 + 32) as *const __m256i);
            for (row, a_row) in acc.iter_mut().zip(a) {
                let av = _mm256_set1_epi32((a_row.add(g * 4) as *const i32).read_unaligned());
                row[0] = _mm256_dpbusd_avx_epi32(row[0], av, b0);
                row[1] = _mm256_dpbusd_avx_epi32(row[1], av, b1);
            }
        }
        for (sums, row) in block.iter_mut().zip(acc) {
            _mm256_storeu_si256(sums.as_mut_ptr() as *mut __m256i, row[0]);
            _mm256_storeu_si256(sums.as_mut_ptr().add(8) as *mut __m256i, row[1]);
        }
    }

    /// The AVX2 (no VNNI) body: widen both operands to i16 and use
    /// `madd_epi16`, whose pairwise i32 sums are exact — `maddubs` would
    /// saturate at u8 range. `madd` leaves two partial sums per column, so 8
    /// columns fill two accumulators per row and the tile takes its 16
    /// columns as two halves; one `hadd` per row joins the partials at the
    /// end.
    ///
    /// # Safety
    /// Requires AVX2. Every `a[r]` must be readable for `4 * k4` bytes and
    /// `b` for `64 * k4`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn tile_q8_avx2(k4: usize, a: [*const u8; 6], b: *const i8, block: &mut super::Q8Block) {
        for half in 0..2 {
            let mut acc = [[_mm256_setzero_si256(); 2]; 6];
            for g in 0..k4 {
                let bp = b.add(g * 64 + half * 32) as *const __m128i;
                let b0 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp));
                let b1 = _mm256_cvtepi8_epi16(_mm_loadu_si128(bp.add(1)));
                for (row, a_row) in acc.iter_mut().zip(a) {
                    let a4 = (a_row.add(g * 4) as *const i32).read_unaligned();
                    let av = _mm256_cvtepu8_epi16(_mm_set1_epi32(a4));
                    row[0] = _mm256_add_epi32(row[0], _mm256_madd_epi16(av, b0));
                    row[1] = _mm256_add_epi32(row[1], _mm256_madd_epi16(av, b1));
                }
            }
            for (sums, row) in block.iter_mut().zip(acc) {
                // `hadd` works per 128-bit lane: columns [0 1 4 5 | 2 3 6 7].
                let s = _mm256_permute4x64_epi64(_mm256_hadd_epi32(row[0], row[1]), 0b11_01_10_00);
                _mm256_storeu_si256(sums.as_mut_ptr().add(8 * half) as *mut __m256i, s);
            }
        }
    }

    /// The AVX-512 body: `S` adjacent strips (two, or one for the last of
    /// an odd count) in twelve or six 16-lane i32 accumulators. A strip's
    /// k-group is 64 bytes, one zmm load; each row broadcasts its 4 bytes
    /// once for every strip, and `vpdpbusd` adds the four products into the
    /// lane that is that column's sum, as in the AVX-VNNI body. Strip `s`
    /// starts `s * stride` bytes after `b` and its sums land in `blocks[s]`.
    ///
    /// # Safety
    /// Requires AVX-512 F and VNNI. Every `a[r]` must be readable for
    /// `4 * k4` bytes and, for `s < S`, `b + s * stride` for `64 * k4`.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub unsafe fn tile_q8_avx512<const S: usize>(k4: usize, a: [*const u8; 6], b: *const i8, stride: usize, blocks: &mut [super::Q8Block; 2]) {
        let mut acc = [[_mm512_setzero_si512(); S]; 6];
        let mut bv = [_mm512_setzero_si512(); S];
        for g in 0..k4 {
            for (s, v) in bv.iter_mut().enumerate() {
                *v = _mm512_loadu_si512(b.add(s * stride + g * 64) as *const __m512i);
            }
            for (row, a_row) in acc.iter_mut().zip(a) {
                let av = _mm512_set1_epi32((a_row.add(g * 4) as *const i32).read_unaligned());
                for (sum, &w) in row.iter_mut().zip(&bv) {
                    *sum = _mm512_dpbusd_epi32(*sum, av, w);
                }
            }
        }
        for (s, block) in blocks.iter_mut().enumerate().take(S) {
            for (sums, row) in block.iter_mut().zip(&acc) {
                _mm512_storeu_si512(sums.as_mut_ptr() as *mut __m512i, row[s]);
            }
        }
    }

    /// The f32 GEMM micro-kernel: a 6 x 16 tile of `A·B` in twelve 8-lane
    /// accumulators (with two B vectors and one broadcast, 15 of the 16
    /// registers). `A(r, p)` is broadcast from `a[r] + p * a_cs` — the
    /// caller's matrix, not a packed copy — and `b` is one packed strip of 16
    /// columns. Per element and for `p` ascending the tile runs
    /// `acc = fma(A(r, p), B(p, j), acc)` from `acc = 0`, then finishes the
    /// leading `rows x cols` of C in registers:
    /// `c[r * ldc + j] = (c[r * ldc + j] +) acc (+ bias[j])`. An edge tile
    /// still computes all 6 x 16 (its `a` repeats a real row, its strip is
    /// zero-padded) and masks what it loads and stores.
    ///
    /// # Safety
    /// Requires AVX2+FMA. For every `r < 6` and `p < kc`, `a[r] + p * a_cs`
    /// must be readable; `b` must hold `kc * 16` floats; for `r < rows`,
    /// `c + r * ldc` must be writable (and, with `accumulate`, readable) for
    /// `cols <= 16` floats; `bias` is null or holds `cols` floats.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn tile_6x16_avx2(
        kc: usize,
        a: [*const f32; 6],
        a_cs: usize,
        b: *const f32,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
        accumulate: bool,
        bias: *const f32,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; 6];
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(b.add(p * 16));
            let b1 = _mm256_loadu_ps(b.add(p * 16 + 8));
            for (row, a_row) in acc.iter_mut().zip(a) {
                let av = _mm256_broadcast_ss(&*a_row.add(p * a_cs));
                row[0] = _mm256_fmadd_ps(av, b0, row[0]);
                row[1] = _mm256_fmadd_ps(av, b1, row[1]);
            }
        }
        // Lane `l` of half `h` is column `8h + l`: live when below `cols`.
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let live = [
            _mm256_cmpgt_epi32(_mm256_set1_epi32(cols as i32), lane),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(cols as i32 - 8), lane),
        ];
        for (r, row) in acc.iter().enumerate().take(rows) {
            for (h, (&half, &live)) in row.iter().zip(&live).enumerate() {
                let dst = c.add(r * ldc + 8 * h);
                let mut v = half;
                if accumulate {
                    v = _mm256_add_ps(_mm256_maskload_ps(dst, live), v);
                }
                if !bias.is_null() {
                    v = _mm256_add_ps(v, _mm256_maskload_ps(bias.add(8 * h), live));
                }
                _mm256_maskstore_ps(dst, live, v);
            }
        }
    }

    /// The AVX-512 f32 micro-kernel: the 6 x 16 tile of `tile_6x16_avx2` on
    /// `S` adjacent packed strips at once — with `S = 2` a 6 x 32 tile in
    /// twelve 16-lane accumulators (two B loads and six broadcasts feed 12
    /// FMAs per step), with `S = 1` the last strip of an odd count. Strip `s`
    /// starts `s * stride` floats after `b` and covers columns `16s..16s+16`
    /// of the tile. Every element runs the same chain and epilogue as the
    /// AVX2 tile, in the same order, so the two agree bit for bit; edge
    /// columns are masked out of every load and store.
    ///
    /// # Safety
    /// Requires AVX-512 F. For every `r < 6` and `p < kc`, `a[r] + p * a_cs`
    /// must be readable; for `s < S`, `b + s * stride` must hold `kc * 16`
    /// floats; for `r < rows`, `c + r * ldc` must be writable (and, with
    /// `accumulate`, readable) for `cols <= 16 * S` floats; `bias` is null or
    /// holds `cols` floats.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile_6x32_avx512<const S: usize>(
        kc: usize,
        a: [*const f32; 6],
        a_cs: usize,
        b: *const f32,
        stride: usize,
        c: *mut f32,
        ldc: usize,
        rows: usize,
        cols: usize,
        accumulate: bool,
        bias: *const f32,
    ) {
        let mut acc = [[_mm512_setzero_ps(); S]; 6];
        let mut bv = [_mm512_setzero_ps(); S];
        for p in 0..kc {
            for (s, v) in bv.iter_mut().enumerate() {
                *v = _mm512_loadu_ps(b.add(s * stride + p * 16));
            }
            for (row, a_row) in acc.iter_mut().zip(a) {
                let av = _mm512_set1_ps(*a_row.add(p * a_cs));
                for (sum, &w) in row.iter_mut().zip(&bv) {
                    *sum = _mm512_fmadd_ps(av, w, *sum);
                }
            }
        }
        for s in 0..S {
            // Lane `l` of strip `s` is column `16s + l`: live when below `cols`.
            let width = cols.saturating_sub(16 * s).min(16);
            let live: __mmask16 = ((1u32 << width) - 1) as u16;
            for (r, row) in acc.iter().enumerate().take(rows) {
                let dst = c.add(r * ldc + 16 * s);
                let mut v = row[s];
                if accumulate {
                    v = _mm512_add_ps(_mm512_maskz_loadu_ps(live, dst), v);
                }
                if !bias.is_null() {
                    v = _mm512_add_ps(v, _mm512_maskz_loadu_ps(live, bias.add(16 * s)));
                }
                _mm512_mask_storeu_ps(dst, live, v);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{min_max_avx2, quantize_span_u8_avx2, tile_q8_avx2, tile_q8_avx512, tile_q8_vnni};
#[cfg(target_arch = "x86_64")]
pub(crate) use x86::{tile_6x16_avx2, tile_6x32_avx512};

/// Helpers for this crate's tier bit-identity tests.
#[cfg(test)]
pub(crate) mod test_util {
    use super::{on_every_tier, Site, RAN, SWEEP};
    use std::sync::PoisonError;

    /// What `f` returns under every tier, after asserting that every tier
    /// returns the same as the portable one.
    pub(crate) fn agreed_on_every_tier<T: PartialEq + std::fmt::Debug>(mut f: impl FnMut() -> T) -> T {
        let mut runs = on_every_tier(|_| f()).into_iter();
        let (_, portable) = runs.next().expect("every CPU runs the portable tier");
        for (tier, other) in runs {
            assert_eq!(other, portable, "{tier:?} differs from the portable tier");
        }
        portable
    }

    /// Runs `f` while no [`on_every_tier`] sweep can move the cap.
    pub(crate) fn between_sweeps<T>(f: impl FnOnce() -> T) -> T {
        let _turn = SWEEP.lock().unwrap_or_else(PoisonError::into_inner);
        f()
    }

    /// Bodies of `site` this thread has run, indexed by tier.
    pub(crate) fn ran(site: Site) -> [u64; 4] {
        RAN.with(|ran| ran.get()[site as usize])
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::{agreed_on_every_tier, bits, ran};
    use super::*;

    #[test]
    fn gemm_matches_the_definition_on_every_tier() {
        let mut state = 0x1234_5678u32;
        let mut next = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            state >> 16
        };
        // Full tiles, both edges and a k that needs padded rows — with the
        // 255 x ±127 corners that would expose a saturating maddubs shortcut.
        // `tests/prop_q8.rs` sweeps the shapes and calls each body directly.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (6, 32, 16), (7, 133, 17), (13, 64, 35), (3, 0, 5), (0, 8, 4)] {
            let mut a: Vec<u8> = (0..m * k).map(|_| (next() % 256) as u8).collect();
            let mut w: Vec<i8> = (0..k * n).map(|_| (next() as i32 % 255 - 127) as i8).collect();
            a[..(m * k).min(2)].fill(255);
            w[..k.min(2)].fill(-127);
            let mut expect = vec![0i32; m * n];
            gemm_u8i8_scalar(&a, m, &w, k, n, &mut expect);
            for (tier, out) in on_every_tier(|_| {
                let mut out = vec![i32::MIN; m * n];
                gemm_u8i8(&a, m, &w, k, n, &mut out);
                out
            }) {
                assert_eq!(out, expect, "{tier:?} m={m} k={k} n={n}");
            }
        }
    }

    #[test]
    fn quantize_span_tiers_are_bit_identical() {
        let xs: Vec<f32> = (0..71)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.173 + if i % 9 == 0 { 0.5 } else { 0.0 })
            .collect();
        // Include an exact .5 product to pin ties-to-even agreement and
        // values that clamp at both ends.
        agreed_on_every_tier(|| {
            let mut q = vec![0u8; xs.len()];
            quantize_span_u8(&xs, 2.0, 12, &mut q);
            (q, min_max(&xs))
        });
    }

    #[test]
    fn min_max_answers_nan_for_any_non_finite_element() {
        let xs: Vec<f32> = (0..21).map(|i| i as f32 * 0.5 - 3.0).collect();
        assert_eq!(min_max(&xs), (-3.0, 7.0));
        // In the vector body and in the tail, on every tier.
        for at in [0, 7, 15, 16, 20] {
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut poisoned = xs.clone();
                poisoned[at] = bad;
                for (tier, (mn, mx)) in on_every_tier(|_| min_max(&poisoned)) {
                    assert!(mn.is_nan() && mx.is_nan(), "{tier:?}, {bad} at {at}: ({mn}, {mx})");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "gemm_u8i8")]
    fn gemm_rejects_short_activations() {
        gemm_u8i8(&[0; 7], 2, &[0; 8], 4, 2, &mut [0; 4]);
    }

    #[test]
    #[should_panic(expected = "gemm_u8i8")]
    fn gemm_rejects_short_weights() {
        gemm_u8i8(&[0; 8], 2, &[0; 7], 4, 2, &mut [0; 4]);
    }

    #[test]
    #[should_panic(expected = "gemm_u8i8")]
    fn gemm_rejects_a_short_accumulator() {
        gemm_u8i8(&[0; 8], 2, &[0; 8], 4, 2, &mut [0; 3]);
    }

    #[test]
    #[should_panic(expected = "quantize_span_u8")]
    fn quantize_span_rejects_a_short_destination() {
        quantize_span_u8(&[0.0; 9], 1.0, 0, &mut [0; 8]);
    }

    #[test]
    #[should_panic(expected = "reaches past its slice")]
    fn tiles_reject_rows_past_the_activations() {
        let strips = pack_strips_i8(&[1; 8], 8, 1);
        tiles_u8i8(level(), &[0; 15], 2, 8, &strips, 2, 1, |_, _, _, _, _| {});
    }

    #[test]
    #[should_panic(expected = "strips are not")]
    fn tiles_reject_strips_of_the_wrong_size() {
        tiles_u8i8(level(), &[0; 16], 2, 8, &[0; 64], 2, 1, |_, _, _, _, _| {});
    }

    #[test]
    #[should_panic(expected = "row stride")]
    fn tiles_reject_a_stride_under_the_row() {
        let strips = pack_strips_i8(&[1; 8], 8, 1);
        tiles_u8i8(level(), &[0; 16], 2, 4, &strips, 2, 1, |_, _, _, _, _| {});
    }

    /// libm reference for the tanh GELU and its analytic derivative, in f64.
    fn exact_gelu(x: f32) -> (f64, f64) {
        let (c, k, x) = (f64::from(GELU_C), f64::from(GELU_K), f64::from(x));
        let t = (c * (x + k * x * x * x)).tanh();
        let du = c * (1.0 + 3.0 * k * x * x);
        (0.5 * x * (1.0 + t), 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)
    }

    /// The activation range the feed-forward blocks see, plus deep tails
    /// where tanh has saturated to exactly ±1.
    fn gelu_sweep() -> Vec<f32> {
        let mut xs: Vec<f32> = (0..=2400).map(|i| -12.0 + i as f32 * 0.01).collect();
        xs.extend_from_slice(&[0.0, -0.0, 1e-20, -1e-20, 100.0, -100.0]);
        xs
    }

    #[test]
    fn fast_gelu_tracks_the_exact_op() {
        // The polynomial's ~3e-6 relative error on e^{2|u|} is ~1.7e-6 on
        // tanh, i.e. under 2e-6 * |x| on the output.
        for x in gelu_sweep() {
            let (want, _) = exact_gelu(x);
            let got = f64::from(fast_gelu(x));
            let bound = 2e-6 * f64::from(x.abs()) + 1e-7;
            assert!((got - want).abs() <= bound, "fast_gelu({x}) = {got}, exact {want}, bound {bound}");
        }
        assert_eq!(fast_gelu(0.0), 0.0);
        assert_eq!(fast_gelu(100.0), 100.0);
        assert_eq!(fast_gelu(-100.0), 0.0);
    }

    #[test]
    fn fast_gelu_grad_tracks_the_analytic_derivative() {
        for x in gelu_sweep() {
            let (_, want) = exact_gelu(x);
            let got = f64::from(fast_gelu_grad(x));
            assert!((got - want).abs() <= 1e-5, "fast_gelu_grad({x}) = {got}, exact {want}");
        }
        assert_eq!(fast_gelu_grad(100.0), 1.0);
        assert_eq!(fast_gelu_grad(-100.0), 0.0);
    }

    #[test]
    fn exp_nonpos_tracks_libm_and_clamps_underflow() {
        // ~3.3e-6 from the polynomial, plus the f32 rounding of `d * log2(e)`
        // — an absolute error on the exponent, so it grows with |d| while
        // e^d itself vanishes.
        let mut d = 0.0f32;
        while d > -87.0 {
            let want = f64::from(d).exp();
            let got = f64::from(exp_nonpos(d));
            let bound = (3.5e-6 + 1.5e-7 * f64::from(d.abs())) * want;
            assert!((got - want).abs() <= bound, "exp_nonpos({d}) = {got}, exact {want}");
            d -= 0.0137;
        }
        assert_eq!(exp_nonpos(0.0), 1.0);
        // Below the exponent range the result pins to the smallest normal.
        for d in [-88.0f32, -100.0, -1e4, f32::MIN] {
            assert_eq!(exp_nonpos(d), f32::MIN_POSITIVE, "exp_nonpos({d})");
        }
    }

    #[test]
    fn non_finite_inputs_stay_non_finite() {
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(!fast_gelu(x).is_finite(), "fast_gelu({x})");
            assert!(!fast_gelu_grad(x).is_finite(), "fast_gelu_grad({x})");
        }
        assert!(exp_nonpos(f32::NAN).is_nan());
        assert!(exp_nonpos(f32::NEG_INFINITY).is_nan());
    }

    #[test]
    fn gelu_span_tiers_are_bit_identical() {
        let mut vals: Vec<f32> = Vec::new();
        let mut s = 0xdead_beefu32;
        for _ in 0..61 {
            s = s.wrapping_mul(1664525).wrapping_add(1013904223);
            vals.push(((s >> 16) as f32 / 4096.0) - 8.0);
        }
        vals.extend_from_slice(&[0.0, -0.0, 1e-20, -1e-20, 40.0, -40.0]);
        let fast = agreed_on_every_tier(|| {
            let mut v = vals.clone();
            gelu_span(&mut v);
            bits(&v)
        });
        // The span kernel is the elementwise definition, whatever the length.
        let each: Vec<f32> = vals.iter().map(|&x| fast_gelu(x)).collect();
        assert_eq!(fast, bits(&each));

        let g: Vec<f32> = vals.iter().map(|x| x * 0.37 - 1.0).collect();
        let fast = agreed_on_every_tier(|| {
            let mut dx = vec![0.0; vals.len()];
            gelu_grad_span(&vals, &g, &mut dx);
            bits(&dx)
        });
        let each: Vec<f32> = vals.iter().zip(&g).map(|(&x, &gi)| gi * fast_gelu_grad(x)).collect();
        assert_eq!(fast, bits(&each));
    }

    #[test]
    fn forced_scalar_pins_level() {
        // A cap pins dispatch to the best supported tier under it, and every
        // supported tier is reachable.
        for (tier, dispatched) in on_every_tier(|_| level()) {
            assert_eq!(dispatched, tier);
        }
        let restore = level();
        test_util::between_sweeps(|| {
            set_max_level(Level::Scalar);
            assert_eq!(level(), Level::Scalar);
            set_max_level(Level::Avx512);
            assert_eq!(level(), detected());
            set_max_level(restore);
        });
        assert!(supports(Level::Scalar) && supports(detected()));
        assert!(available().all(|tier| tier <= detected()));
    }

    /// The body each call site runs for a dispatch tier. A site with no body
    /// of a tier's own runs the best one below it; a missing `match` arm
    /// falls through to the portable body with the same bits, and only
    /// these counts see it.
    fn expected_body(site: Site, tier: Level) -> Level {
        match (site, tier) {
            (_, Level::Scalar) => Level::Scalar,
            (Site::TilesU8i8, tier) => tier,
            (Site::GemmF32, Level::Avx512) => Level::Avx512,
            _ => Level::Avx2,
        }
    }

    #[test]
    fn every_tier_dispatches_to_its_own_body() {
        // Shapes with an odd and an even number of 16-column strips, and
        // ragged row and column edges.
        let (m, k, n) = (13usize, 40usize, 53usize);
        let tiles = (m.div_ceil(6) * n.div_ceil(16)) as u64;
        let a: Vec<f32> = (0..m * k).map(|i| (i % 17) as f32 * 0.1 - 0.8).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 13) as f32 * 0.05 - 0.3).collect();
        let (a8, w8): (Vec<u8>, Vec<i8>) = ((0..m * k).map(|i| (i * 7 % 256) as u8).collect(), (0..k * n).map(|i| (i * 5 % 255) as i8).collect());
        let strips = pack_strips_i8(&w8, k, n);
        let counted = |site: Site, run: &mut dyn FnMut()| {
            let before = ran(site);
            run();
            let after = ran(site);
            std::array::from_fn::<u64, 4, _>(|t| after[t] - before[t])
        };
        let labels = on_every_tier(|tier| {
            let only = |site: Site, n: u64| {
                let mut want = [0u64; 4];
                want[expected_body(site, tier) as usize] = n;
                want
            };
            let mut out = vec![0.0f32; m * n];
            let got = counted(Site::GemmF32, &mut || crate::kernels::gemm_nn(m, k, n, &a, &b, &mut out));
            assert_eq!(got, only(Site::GemmF32, tiles), "{tier:?}: gemm_nn");
            // Attention-over-attention multiplies through a packed panel it
            // holds itself: two `Iᵀ` products of 7 rows by 13 columns, and
            // nothing else in its forward is a GEMM.
            let got = counted(Site::GemmF32, &mut || {
                let pair = (&a[..], &b[..7 * k]);
                crate::fwd::aoa_pool_into(&[pair, pair], k, &mut vec![0.0; 2 * k], None);
            });
            assert_eq!(got, only(Site::GemmF32, 2 * (7usize.div_ceil(6) * m.div_ceil(16)) as u64), "{tier:?}: aoa_pool");
            let got = counted(Site::TilesU8i8, &mut || tiles_u8i8(level(), &a8, m, k, &strips, k / 4, n, |_, _, _, _, _| {}));
            assert_eq!(got, only(Site::TilesU8i8, tiles), "{tier:?}: tiles_u8i8");
            let mut q = vec![0u8; k];
            let got = counted(Site::QuantizeSpan, &mut || quantize_span_u8(&a[..k], 3.0, 7, &mut q));
            assert_eq!(got, only(Site::QuantizeSpan, 1), "{tier:?}: quantize_span_u8");
            let got = counted(Site::MinMax, &mut || {
                min_max(&a[..k]);
            });
            assert_eq!(got, only(Site::MinMax, 1), "{tier:?}: min_max");
            crate::BackendKind::Int8.label()
        });
        // Reports name the int8 body that served them: one label per tier.
        let names: Vec<&str> = labels.iter().map(|&(_, name)| name).collect();
        assert!(names.iter().enumerate().all(|(i, l)| !names[..i].contains(l)), "{names:?}");
        if let Some(&(_, name)) = labels.iter().find(|(tier, _)| *tier == Level::Avx512) {
            assert_eq!(name, "int8-avx512-vnni");
        }
    }
}
