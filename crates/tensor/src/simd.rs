//! Cached CPU-feature detection and explicit `std::arch` micro-kernels.
//!
//! Detection runs once per process (`is_x86_feature_detected!` walks CPUID
//! every call, which is far too slow for a per-GEMM decision) and is cached
//! in an atomic. A forced-scalar override — seeded from the
//! `EMBA_FORCE_SCALAR` environment variable and togglable in-process via
//! [`set_forced_scalar`] — lets CI and the quantization bench exercise the
//! portable fallback on any machine, and lets a single bench process measure
//! both paths interleaved on the same core.
//!
//! Four kernel families live here:
//!
//! * quantized GEMM ([`gemm_u8i8`]): the workhorse of the int8 backend.
//!   Activations are *unsigned* (asymmetric per-row quantization, see
//!   `crate::quant`), weights signed — exactly the operand pair
//!   `vpdpbusd` (AVX-VNNI) fuses into one multiply-widen-accumulate. The
//!   plain-AVX2 tier must NOT use the tempting `_mm256_maddubs_epi16`
//!   shortcut: with u8 activations a pair sum reaches `2 * 255 * 127 =
//!   64770 > i16::MAX` and saturates silently. It instead widens both
//!   operands to i16 and uses `_mm256_madd_epi16`, which pair-sums into
//!   i32 exactly. Every tier therefore computes the same exact integer
//!   dot and all tiers are bit-identical.
//! * activation quantization ([`quantize_span_u8`]): the min/max pass and
//!   the scale-round-clamp pass, both vectorized — at transformer widths
//!   the scalar version costs as much as the GEMM it feeds.
//! * f32 GEMM tile (`tile_6x16_avx2`): the explicit AVX2+FMA micro-kernel
//!   under every f32 matrix product; `kernels::tile_portable` is its twin,
//!   the same FMA chain spelled with `f32::mul_add`.
//! * transcendentals ([`gelu_span`], [`gelu_grad_span`], the softmax
//!   exponent): one range-reduced exp2 polynomial shared by the f32 and
//!   int8 backends, forward and backward — no libm on the hot path.
//!
//! Rounding contract: all tiers round ties-to-even (`vcvtps2dq`'s default
//! mode; `f32::round_ties_even` in the scalar fallback) so forced-scalar
//! runs reproduce SIMD runs bit-for-bit.

use std::sync::atomic::{AtomicU8, Ordering};

/// Instruction-set tier selected for kernel dispatch, best first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Portable fallback; also what `EMBA_FORCE_SCALAR` pins.
    Scalar,
    /// AVX2 (+FMA for f32): widen-and-`madd_epi16` integer dot products.
    Avx2,
    /// AVX2 plus AVX-VNNI `vpdpbusd` fused u8xi8 dot-accumulate.
    Avx2Vnni,
}

impl Level {
    /// Stable lower-case label used in bench reports and backend names.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Avx2Vnni => "avx2+vnni",
        }
    }
}

const DETECT_UNKNOWN: u8 = 0;
const DETECT_SCALAR: u8 = 1;
const DETECT_AVX2: u8 = 2;
const DETECT_AVX2_VNNI: u8 = 3;

static DETECTED: AtomicU8 = AtomicU8::new(DETECT_UNKNOWN);

const FORCE_UNKNOWN: u8 = 0;
const FORCE_OFF: u8 = 1;
const FORCE_ON: u8 = 2;

static FORCED_SCALAR: AtomicU8 = AtomicU8::new(FORCE_UNKNOWN);

#[cfg(target_arch = "x86_64")]
fn detect() -> u8 {
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        if is_x86_feature_detected!("avxvnni") {
            DETECT_AVX2_VNNI
        } else {
            DETECT_AVX2
        }
    } else {
        DETECT_SCALAR
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> u8 {
    DETECT_SCALAR
}

/// The best tier this CPU supports, detected once and cached.
pub fn detected() -> Level {
    match DETECTED.load(Ordering::Relaxed) {
        DETECT_UNKNOWN => {
            let d = detect();
            DETECTED.store(d, Ordering::Relaxed);
            decode(d)
        }
        d => decode(d),
    }
}

fn decode(d: u8) -> Level {
    match d {
        DETECT_AVX2 => Level::Avx2,
        DETECT_AVX2_VNNI => Level::Avx2Vnni,
        _ => Level::Scalar,
    }
}

/// Whether the scalar fallback is currently forced (env or programmatic).
pub fn forced_scalar() -> bool {
    match FORCED_SCALAR.load(Ordering::Relaxed) {
        FORCE_UNKNOWN => {
            let on = std::env::var("EMBA_FORCE_SCALAR")
                .map(|v| !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false"))
                .unwrap_or(false);
            FORCED_SCALAR.store(if on { FORCE_ON } else { FORCE_OFF }, Ordering::Relaxed);
            on
        }
        f => f == FORCE_ON,
    }
}

/// Override the forced-scalar knob in-process (benches interleave both
/// paths on the same core; tests pin the portable path deterministically).
pub fn set_forced_scalar(on: bool) {
    FORCED_SCALAR.store(if on { FORCE_ON } else { FORCE_OFF }, Ordering::Relaxed);
}

/// The tier kernels actually dispatch on: [`detected`] unless scalar is
/// forced.
pub fn level() -> Level {
    if forced_scalar() {
        Level::Scalar
    } else {
        detected()
    }
}

// ---------------------------------------------------------------------------
// Activation quantization: q[i] = clamp(round_even(x[i] * inv) + zp, 0, 255)
// ---------------------------------------------------------------------------

/// Quantizes a span of activations with a precomputed affine transform.
/// The caller guarantees `x[i] * inv + zp` stays far inside i32 range (the
/// per-row scale construction in `crate::quant` bounds it by ~2^28).
pub fn quantize_span_u8(x: &[f32], inv: f32, zp: i32, q: &mut [u8]) {
    debug_assert_eq!(x.len(), q.len());
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx2Vnni => unsafe { quantize_span_u8_avx2(x, inv, zp, q) },
        _ => quantize_span_u8_scalar(x, inv, zp, q),
    }
}

/// Portable twin of the SIMD quantization pass — ties-to-even rounding so
/// the two are bit-identical.
pub fn quantize_span_u8_scalar(x: &[f32], inv: f32, zp: i32, q: &mut [u8]) {
    for (qi, &v) in q.iter_mut().zip(x) {
        *qi = ((v * inv).round_ties_even() as i32 + zp).clamp(0, 255) as u8;
    }
}

/// `(min, max)` over a span. min/max are exact and order-independent, so
/// the vectorized and scalar reductions agree bit-for-bit.
pub fn min_max(x: &[f32]) -> (f32, f32) {
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 | Level::Avx2Vnni if x.len() >= 8 => unsafe { min_max_avx2(x) },
        _ => min_max_scalar(x),
    }
}

fn min_max_scalar(x: &[f32]) -> (f32, f32) {
    let mut mn = f32::INFINITY;
    let mut mx = f32::NEG_INFINITY;
    for &v in x {
        mn = mn.min(v);
        mx = mx.max(v);
    }
    (mn, mx)
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
// Quantized GEMM: acc[r*n + j] = sum_i a[r*k + i] * w[j*k + i]
//   a: m x k row-major u8 activations, w: column-major i8 weights
// ---------------------------------------------------------------------------

/// Exact integer GEMM between quantized activations (`m` rows of length
/// `k`, unsigned) and a column-major i8 weight matrix (`n` columns of
/// length `k`). Accumulation is exact i32, so every tier is bit-identical.
pub fn gemm_u8i8(a: &[u8], m: usize, w: &[i8], k: usize, n: usize, acc: &mut [i32]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(w.len(), k * n);
    debug_assert_eq!(acc.len(), m * n);
    match level() {
        #[cfg(target_arch = "x86_64")]
        Level::Avx2 => unsafe { gemm_u8i8_avx2(a, m, w, k, n, acc) },
        #[cfg(target_arch = "x86_64")]
        Level::Avx2Vnni => unsafe { gemm_u8i8_vnni(a, m, w, k, n, acc) },
        _ => gemm_u8i8_scalar(a, m, w, k, n, acc),
    }
}

/// Portable reference implementation; also the dispatch target when
/// `EMBA_FORCE_SCALAR` pins the scalar tier.
pub fn gemm_u8i8_scalar(a: &[u8], m: usize, w: &[i8], k: usize, n: usize, acc: &mut [i32]) {
    for r in 0..m {
        let row = &a[r * k..(r + 1) * k];
        let out = &mut acc[r * n..(r + 1) * n];
        for (j, o) in out.iter_mut().enumerate() {
            let col = &w[j * k..(j + 1) * k];
            let mut s = 0i32;
            for i in 0..k {
                s += row[i] as i32 * col[i] as i32;
            }
            *o = s;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Horizontal sum of the eight i32 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn hsum_epi32(v: __m256i) -> i32 {
        let hi = _mm256_extracti128_si256(v, 1);
        let lo = _mm256_castsi256_si128(v);
        let s = _mm_add_epi32(hi, lo);
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_01_10_11));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        _mm_cvtsi128_si32(s)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn min_max_avx2(x: &[f32]) -> (f32, f32) {
        let mut vmn = _mm256_set1_ps(f32::INFINITY);
        let mut vmx = _mm256_set1_ps(f32::NEG_INFINITY);
        let kc = x.len() - x.len() % 8;
        let p = x.as_ptr();
        let mut i = 0;
        while i < kc {
            let v = _mm256_loadu_ps(p.add(i));
            vmn = _mm256_min_ps(vmn, v);
            vmx = _mm256_max_ps(vmx, v);
            i += 8;
        }
        let mut mn = [0.0f32; 8];
        let mut mx = [0.0f32; 8];
        _mm256_storeu_ps(mn.as_mut_ptr(), vmn);
        _mm256_storeu_ps(mx.as_mut_ptr(), vmx);
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for l in 0..8 {
            lo = lo.min(mn[l]);
            hi = hi.max(mx[l]);
        }
        while i < x.len() {
            let v = *x.get_unchecked(i);
            lo = lo.min(v);
            hi = hi.max(v);
            i += 1;
        }
        (lo, hi)
    }

    /// Vectorized affine quantization: 8 floats -> 8 u8 per step via
    /// `vcvtps2dq` (ties-even, matching the scalar `round_ties_even`) and
    /// the saturating i32 -> i16 -> u8 packs, which implement the
    /// `[0, 255]` clamp for free.
    #[target_feature(enable = "avx2")]
    pub unsafe fn quantize_span_u8_avx2(x: &[f32], inv: f32, zp: i32, q: &mut [u8]) {
        let vinv = _mm256_set1_ps(inv);
        let vzp = _mm256_set1_epi32(zp);
        let kc = x.len() - x.len() % 8;
        let xp = x.as_ptr();
        let qp = q.as_mut_ptr();
        let mut i = 0;
        while i < kc {
            let v = _mm256_mul_ps(_mm256_loadu_ps(xp.add(i)), vinv);
            let qi = _mm256_add_epi32(_mm256_cvtps_epi32(v), vzp);
            let lo = _mm256_castsi256_si128(qi);
            let hi = _mm256_extracti128_si256(qi, 1);
            let p16 = _mm_packs_epi32(lo, hi);
            let p8 = _mm_packus_epi16(p16, p16);
            _mm_storel_epi64(qp.add(i) as *mut __m128i, p8);
            i += 8;
        }
        while i < x.len() {
            *qp.add(i) =
                ((*xp.add(i) * inv).round_ties_even() as i32 + zp).clamp(0, 255) as u8;
            i += 1;
        }
    }

    /// AVX2 (no VNNI) u8xi8 GEMM tile: widen both operands to i16 and use
    /// `madd_epi16`, whose pairwise i32 sums are exact — `maddubs` would
    /// saturate at u8 range. Two rows x four columns per tile.
    ///
    /// # Safety
    /// Requires AVX2; `a` must be `m * k` row-major, `w` `n * k`
    /// column-major, `acc` `m * n`.
    #[allow(clippy::needless_range_loop)] // `c` indexes the register tile in lockstep with the column offset
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_u8i8_avx2(a: &[u8], m: usize, w: &[i8], k: usize, n: usize, acc: &mut [i32]) {
        let kc = k - k % 16;
        let mut r = 0;
        while r < m {
            let pair = r + 1 < m;
            let a0 = a.as_ptr().add(r * k);
            let a1 = if pair { a.as_ptr().add((r + 1) * k) } else { a0 };
            let mut j = 0;
            while j + 4 <= n {
                let mut s = [[_mm256_setzero_si256(); 4]; 2];
                let mut i = 0;
                while i < kc {
                    let va0 = _mm256_cvtepu8_epi16(_mm_loadu_si128(a0.add(i) as *const __m128i));
                    let va1 = if pair {
                        _mm256_cvtepu8_epi16(_mm_loadu_si128(a1.add(i) as *const __m128i))
                    } else {
                        va0
                    };
                    for c in 0..4 {
                        let wp = w.as_ptr().add((j + c) * k + i);
                        let vw = _mm256_cvtepi8_epi16(_mm_loadu_si128(wp as *const __m128i));
                        s[0][c] = _mm256_add_epi32(s[0][c], _mm256_madd_epi16(va0, vw));
                        s[1][c] = _mm256_add_epi32(s[1][c], _mm256_madd_epi16(va1, vw));
                    }
                    i += 16;
                }
                for c in 0..4 {
                    let mut t0 = hsum_epi32(s[0][c]);
                    let mut t1 = hsum_epi32(s[1][c]);
                    let wp = w.as_ptr().add((j + c) * k);
                    let mut i = kc;
                    while i < k {
                        let wv = *wp.add(i) as i32;
                        t0 += *a0.add(i) as i32 * wv;
                        t1 += *a1.add(i) as i32 * wv;
                        i += 1;
                    }
                    *acc.get_unchecked_mut(r * n + j + c) = t0;
                    if pair {
                        *acc.get_unchecked_mut((r + 1) * n + j + c) = t1;
                    }
                }
                j += 4;
            }
            // Remainder columns (AOA/head projections have n = 1 or 2).
            while j < n {
                let wp = w.as_ptr().add(j * k);
                let mut s0 = _mm256_setzero_si256();
                let mut s1 = _mm256_setzero_si256();
                let mut i = 0;
                while i < kc {
                    let vw = _mm256_cvtepi8_epi16(_mm_loadu_si128(wp.add(i) as *const __m128i));
                    let va0 = _mm256_cvtepu8_epi16(_mm_loadu_si128(a0.add(i) as *const __m128i));
                    s0 = _mm256_add_epi32(s0, _mm256_madd_epi16(va0, vw));
                    if pair {
                        let va1 =
                            _mm256_cvtepu8_epi16(_mm_loadu_si128(a1.add(i) as *const __m128i));
                        s1 = _mm256_add_epi32(s1, _mm256_madd_epi16(va1, vw));
                    }
                    i += 16;
                }
                let mut t0 = hsum_epi32(s0);
                let mut t1 = hsum_epi32(s1);
                while i < k {
                    let wv = *wp.add(i) as i32;
                    t0 += *a0.add(i) as i32 * wv;
                    t1 += *a1.add(i) as i32 * wv;
                    i += 1;
                }
                *acc.get_unchecked_mut(r * n + j) = t0;
                if pair {
                    *acc.get_unchecked_mut((r + 1) * n + j) = t1;
                }
                j += 1;
            }
            r += 2;
        }
    }

    /// AVX-VNNI u8xi8 GEMM tile: `vpdpbusd` takes unsigned x signed bytes
    /// natively and accumulates into i32 in one instruction. Two rows x
    /// four columns per tile.
    ///
    /// # Safety
    /// Requires AVX2 and AVX-VNNI; `a` must be `m * k` row-major, `w`
    /// `n * k` column-major, `acc` `m * n`.
    #[allow(clippy::needless_range_loop)] // `c` indexes the register tile in lockstep with the column offset
    #[target_feature(enable = "avx2,avxvnni")]
    pub unsafe fn gemm_u8i8_vnni(a: &[u8], m: usize, w: &[i8], k: usize, n: usize, acc: &mut [i32]) {
        let kc = k - k % 32;
        let mut r = 0;
        while r < m {
            let pair = r + 1 < m;
            let a0 = a.as_ptr().add(r * k);
            let a1 = if pair { a.as_ptr().add((r + 1) * k) } else { a0 };
            let mut j = 0;
            while j + 4 <= n {
                let mut s = [[_mm256_setzero_si256(); 4]; 2];
                let mut i = 0;
                while i < kc {
                    let va0 = _mm256_loadu_si256(a0.add(i) as *const __m256i);
                    let va1 = if pair {
                        _mm256_loadu_si256(a1.add(i) as *const __m256i)
                    } else {
                        va0
                    };
                    for c in 0..4 {
                        let wp = w.as_ptr().add((j + c) * k + i);
                        let vw = _mm256_loadu_si256(wp as *const __m256i);
                        s[0][c] = _mm256_dpbusd_avx_epi32(s[0][c], va0, vw);
                        s[1][c] = _mm256_dpbusd_avx_epi32(s[1][c], va1, vw);
                    }
                    i += 32;
                }
                for c in 0..4 {
                    let mut t0 = hsum_epi32(s[0][c]);
                    let mut t1 = hsum_epi32(s[1][c]);
                    let wp = w.as_ptr().add((j + c) * k);
                    let mut i = kc;
                    while i < k {
                        let wv = *wp.add(i) as i32;
                        t0 += *a0.add(i) as i32 * wv;
                        t1 += *a1.add(i) as i32 * wv;
                        i += 1;
                    }
                    *acc.get_unchecked_mut(r * n + j + c) = t0;
                    if pair {
                        *acc.get_unchecked_mut((r + 1) * n + j + c) = t1;
                    }
                }
                j += 4;
            }
            while j < n {
                let wp = w.as_ptr().add(j * k);
                let mut s0 = _mm256_setzero_si256();
                let mut s1 = _mm256_setzero_si256();
                let mut i = 0;
                while i < kc {
                    let vw = _mm256_loadu_si256(wp.add(i) as *const __m256i);
                    let va0 = _mm256_loadu_si256(a0.add(i) as *const __m256i);
                    s0 = _mm256_dpbusd_avx_epi32(s0, va0, vw);
                    if pair {
                        let va1 = _mm256_loadu_si256(a1.add(i) as *const __m256i);
                        s1 = _mm256_dpbusd_avx_epi32(s1, va1, vw);
                    }
                    i += 32;
                }
                let mut t0 = hsum_epi32(s0);
                let mut t1 = hsum_epi32(s1);
                while i < k {
                    let wv = *wp.add(i) as i32;
                    t0 += *a0.add(i) as i32 * wv;
                    t1 += *a1.add(i) as i32 * wv;
                    i += 1;
                }
                *acc.get_unchecked_mut(r * n + j) = t0;
                if pair {
                    *acc.get_unchecked_mut((r + 1) * n + j) = t1;
                }
                j += 1;
            }
            r += 2;
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
}

#[cfg(target_arch = "x86_64")]
use x86::{gemm_u8i8_avx2, gemm_u8i8_vnni, min_max_avx2, quantize_span_u8_avx2};
#[cfg(target_arch = "x86_64")]
pub(crate) use x86::tile_6x16_avx2;

/// Helpers for this crate's tier bit-identity tests.
#[cfg(test)]
pub(crate) mod test_util {
    use super::{forced_scalar, set_forced_scalar};

    /// Runs `f` on the detected tier and again with the scalar tier forced.
    pub(crate) fn on_both_tiers<T>(f: impl Fn() -> T) -> (T, T) {
        let detected = f();
        let before = forced_scalar();
        set_forced_scalar(true);
        let scalar = f();
        set_forced_scalar(before);
        (detected, scalar)
    }

    pub(crate) fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::{bits, on_both_tiers};
    use super::*;

    fn ref_gemm(a: &[u8], m: usize, w: &[i8], k: usize, n: usize) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for r in 0..m {
            for j in 0..n {
                out[r * n + j] = (0..k)
                    .map(|i| a[r * k + i] as i32 * w[j * k + i] as i32)
                    .sum();
            }
        }
        out
    }

    #[test]
    fn gemm_tiers_match_reference_exactly() {
        let mut state = 0x1234_5678u32;
        let mut next = move || {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            state >> 16
        };
        // Hit the 2x4 main tile, the single-row and remainder-column edges,
        // and the scalar k-tail — with the 255 x ±127 corners that would
        // expose a saturating maddubs shortcut.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 31, 3),
            (3, 32, 4),
            (5, 64, 7),
            (4, 133, 6),
            (7, 16, 9),
        ] {
            let mut a: Vec<u8> = (0..m * k).map(|_| (next() % 256) as u8).collect();
            let mut w: Vec<i8> = (0..k * n).map(|_| (next() as i32 % 255 - 127) as i8).collect();
            a[0] = 255;
            w[0] = -127;
            if k > 1 {
                a[1] = 255;
                w[1] = -127;
            }
            let expect = ref_gemm(&a, m, &w, k, n);
            let mut out = vec![0i32; m * n];
            gemm_u8i8_scalar(&a, m, &w, k, n, &mut out);
            assert_eq!(out, expect, "scalar m={m} k={k} n={n}");
            #[cfg(target_arch = "x86_64")]
            {
                if detected() >= Level::Avx2 {
                    let mut out = vec![0i32; m * n];
                    unsafe { gemm_u8i8_avx2(&a, m, &w, k, n, &mut out) };
                    assert_eq!(out, expect, "avx2 m={m} k={k} n={n}");
                }
                if detected() >= Level::Avx2Vnni {
                    let mut out = vec![0i32; m * n];
                    unsafe { gemm_u8i8_vnni(&a, m, &w, k, n, &mut out) };
                    assert_eq!(out, expect, "vnni m={m} k={k} n={n}");
                }
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
        let inv = 2.0f32;
        let zp = 12;
        let mut q_scalar = vec![0u8; xs.len()];
        quantize_span_u8_scalar(&xs, inv, zp, &mut q_scalar);
        #[cfg(target_arch = "x86_64")]
        if detected() >= Level::Avx2 {
            let mut q_simd = vec![0u8; xs.len()];
            unsafe { quantize_span_u8_avx2(&xs, inv, zp, &mut q_simd) };
            assert_eq!(q_scalar, q_simd);
        }
        let (mn, mx) = min_max(&xs);
        assert_eq!(min_max_scalar(&xs), (mn, mx));
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
        let (fast, scalar) = on_both_tiers(|| {
            let mut v = vals.clone();
            gelu_span(&mut v);
            v
        });
        assert_eq!(bits(&fast), bits(&scalar));
        // The span kernel is the elementwise definition, whatever the length.
        let each: Vec<f32> = vals.iter().map(|&x| fast_gelu(x)).collect();
        assert_eq!(bits(&fast), bits(&each));

        let g: Vec<f32> = vals.iter().map(|x| x * 0.37 - 1.0).collect();
        let (fast, scalar) = on_both_tiers(|| {
            let mut dx = vec![0.0; vals.len()];
            gelu_grad_span(&vals, &g, &mut dx);
            dx
        });
        assert_eq!(bits(&fast), bits(&scalar));
        let each: Vec<f32> = vals.iter().zip(&g).map(|(&x, &gi)| gi * fast_gelu_grad(x)).collect();
        assert_eq!(bits(&fast), bits(&each));
    }

    #[test]
    fn forced_scalar_pins_level() {
        let before = forced_scalar();
        set_forced_scalar(true);
        assert_eq!(level(), Level::Scalar);
        set_forced_scalar(before);
    }
}
