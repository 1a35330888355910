//! Kernel roofline probes: this core's measured peak arithmetic rate, and
//! the rate the program's public kernels achieve at the model's real shapes.
//!
//! The peak is a register-resident loop of independent multiply-accumulate
//! chains at the SIMD tier the program dispatches on (`simd::level()`), so
//! "achieved / peak" compares like with like. Bytes moved are **computed
//! from tensor sizes, not measured**: a CPU sandbox has no counter for them.
//! Operation counts are `2*m*k*n` per GEMM.

use std::hint::black_box;
use std::time::Instant;

use emba_tensor::quant::{linear_q8_forward, quantize_row_u8};
use emba_tensor::simd::{self, Level};
use emba_tensor::{kernels, Graph, QuantizedMatrix, Tensor};

use crate::registry::MetricSet;
use crate::stats::median;

/// Rows of a typical grouped encode call (64 records x ~16 tokens).
const ROWS: usize = 1024;
/// Hidden width of the base backbone.
const HIDDEN: usize = 128;
/// Feed-forward width.
const FFN: usize = 512;
/// Rows per quantized GEMM call (`quant`'s row block).
const Q8_ROWS: usize = 32;

/// Median seconds per call of `f`, over five batches of at least ~8 ms each.
fn secs_per_call(mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy state
    let start = Instant::now();
    let mut calls = 0u32;
    while start.elapsed().as_secs_f64() < 0.008 {
        f();
        calls += 1;
    }
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() / f64::from(calls)
        })
        .collect();
    median(&batches)
}

/// Deterministic pseudo-random fill in `[-1, 1)`; the probes need values
/// that are neither constant nor denormal, not statistical quality.
fn fill(len: usize, salt: u32) -> Vec<f32> {
    let mut x = 0x9e37_79b9u32 ^ salt;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 8) as f32 / (1u32 << 23) as f32 - 1.0
        })
        .collect()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;
    use std::hint::black_box;

    /// Ten independent FMA chains, eight lanes each: 160 FLOP per round.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn fma_rounds(rounds: u64) -> f32 {
        let a = _mm256_set1_ps(black_box(0.999_999));
        let b = _mm256_set1_ps(black_box(1e-7));
        let mut acc = [_mm256_set1_ps(1.0); 10];
        for _ in 0..rounds {
            for x in acc.iter_mut() {
                *x = _mm256_fmadd_ps(*x, a, b);
            }
        }
        let mut sum = acc[0];
        for x in &acc[1..] {
            sum = _mm256_add_ps(sum, *x);
        }
        _mm_cvtss_f32(_mm256_castps256_ps128(sum))
    }

    /// Ten independent `vpmaddwd` chains: 16 multiply-adds (32 ops) each.
    #[target_feature(enable = "avx2")]
    pub unsafe fn madd_rounds(rounds: u64) -> i32 {
        let w = _mm256_set1_epi32(black_box(0x0000_0001));
        let mut acc = [_mm256_set1_epi16(black_box(3)); 10];
        for _ in 0..rounds {
            for x in acc.iter_mut() {
                *x = _mm256_madd_epi16(*x, w);
            }
        }
        let mut sum = acc[0];
        for x in &acc[1..] {
            sum = _mm256_add_epi32(sum, *x);
        }
        _mm_cvtsi128_si32(_mm256_castsi256_si128(sum))
    }

    /// Ten independent `vpdpbusd` chains: 32 multiply-adds (64 ops) each.
    #[target_feature(enable = "avx2,avxvnni")]
    pub unsafe fn dpbusd_rounds(rounds: u64) -> i32 {
        let a = _mm256_set1_epi8(black_box(3));
        let w = _mm256_set1_epi8(black_box(-2));
        let mut acc = [_mm256_setzero_si256(); 10];
        for _ in 0..rounds {
            for x in acc.iter_mut() {
                *x = _mm256_dpbusd_avx_epi32(*x, a, w);
            }
        }
        let mut sum = acc[0];
        for x in &acc[1..] {
            sum = _mm256_add_epi32(sum, *x);
        }
        _mm_cvtsi128_si32(_mm256_castsi256_si128(sum))
    }
}

/// Eight independent scalar multiply-add chains: 16 FLOP per round.
fn scalar_f32_rounds(rounds: u64) -> f32 {
    let (a, b) = (black_box(0.999_999f32), black_box(1e-7f32));
    let mut acc = [1.0f32; 8];
    for _ in 0..rounds {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    acc.iter().sum()
}

/// Eight independent scalar integer multiply-add chains: 16 ops per round.
fn scalar_i32_rounds(rounds: u64) -> i32 {
    let (a, b) = (black_box(3i32), black_box(1i32));
    let mut acc = [1i32; 8];
    for _ in 0..rounds {
        for x in acc.iter_mut() {
            *x = x.wrapping_mul(a).wrapping_add(b);
        }
    }
    acc.iter().fold(0, |s, x| s.wrapping_add(*x))
}

/// Peak f32 GFLOP/s and int8 GOP/s of one core at the dispatched tier.
fn peaks() -> (f64, f64) {
    const ROUNDS: u64 = 200_000;
    let level = simd::level();
    #[cfg(target_arch = "x86_64")]
    {
        let fma = is_x86_feature_detected!("fma");
        if level != Level::Scalar && fma {
            // SAFETY: `level()` reports AVX2 only after the program's own
            // CPUID detection found it, and FMA was detected just above;
            // AVX-VNNI is required only for the `Avx2Vnni` tier, which is
            // reported only when CPUID has it.
            let f32_secs = secs_per_call(|| {
                black_box(unsafe { x86::fma_rounds(black_box(ROUNDS)) });
            });
            let (i8_secs, ops) = if level == Level::Avx2Vnni {
                (
                    secs_per_call(|| {
                        black_box(unsafe { x86::dpbusd_rounds(black_box(ROUNDS)) });
                    }),
                    640.0,
                )
            } else {
                (
                    secs_per_call(|| {
                        black_box(unsafe { x86::madd_rounds(black_box(ROUNDS)) });
                    }),
                    320.0,
                )
            };
            return (
                ROUNDS as f64 * 160.0 / f32_secs / 1e9,
                ROUNDS as f64 * ops / i8_secs / 1e9,
            );
        }
    }
    let _ = level;
    let f32_secs = secs_per_call(|| {
        black_box(scalar_f32_rounds(black_box(ROUNDS)));
    });
    let i8_secs = secs_per_call(|| {
        black_box(scalar_i32_rounds(black_box(ROUNDS)));
    });
    (
        ROUNDS as f64 * 16.0 / f32_secs / 1e9,
        ROUNDS as f64 * 16.0 / i8_secs / 1e9,
    )
}

/// GFLOP/s of one f32 GEMM entry point at `[m,k]x[k,n]`.
fn gemm_rate(m: usize, k: usize, n: usize, transposed_b: bool) -> f64 {
    let (a, b) = (fill(m * k, 1), fill(k * n, 2));
    let mut out = vec![0.0f32; m * n];
    let secs = secs_per_call(|| {
        if transposed_b {
            kernels::gemm_nt(m, k, n, black_box(&a), black_box(&b), &mut out);
        } else {
            kernels::gemm_nn(m, k, n, black_box(&a), black_box(&b), &mut out);
        }
        black_box(&out);
    });
    2.0 * (m * k * n) as f64 / secs / 1e9
}

/// GOP/s of `simd::gemm_u8i8` at the row block the quantized linear uses.
fn q8_gemm_rate(k: usize, n: usize) -> f64 {
    let a: Vec<u8> = fill(Q8_ROWS * k, 3)
        .iter()
        .map(|v| ((v + 1.0) * 127.0) as u8)
        .collect();
    let w: Vec<i8> = fill(k * n, 4).iter().map(|v| (v * 127.0) as i8).collect();
    let mut acc = vec![0i32; Q8_ROWS * n];
    let secs = secs_per_call(|| {
        simd::gemm_u8i8(black_box(&a), Q8_ROWS, black_box(&w), k, n, &mut acc);
        black_box(&acc);
    });
    2.0 * (Q8_ROWS * k * n) as f64 / secs / 1e9
}

/// Runs every kernel probe, records the `tensor.*` probe metrics and returns
/// human-readable lines (shape, rate, computed bytes, share of peak).
pub fn probe(metrics: &mut MetricSet) -> Vec<String> {
    let (peak_f32, peak_i8) = peaks();
    let proj = gemm_rate(ROWS, HIDDEN, HIDDEN, false);
    let ffn = gemm_rate(ROWS, HIDDEN, FFN, false);
    // One record's one head: 24 tokens, head width 32.
    let qkt = gemm_rate(24, 32, 24, true);
    // Neither k nor n a multiple of the 4-, 16- or 32-lane tiles.
    let odd = gemm_rate(ROWS, 100, 130, false);
    let q8_proj = q8_gemm_rate(HIDDEN, HIDDEN);
    let q8_ffn = q8_gemm_rate(HIDDEN, FFN);

    let x = Tensor::from_vec(ROWS, HIDDEN, fill(ROWS * HIDDEN, 5));
    let w = QuantizedMatrix::quantize(&Tensor::from_vec(HIDDEN, FFN, fill(HIDDEN * FFN, 6)));
    let bias = Tensor::from_vec(1, FFN, fill(FFN, 7));
    let linear_secs = secs_per_call(|| {
        black_box(linear_q8_forward(black_box(&x), &w, &bias, true));
    });
    let linear_q8 = 2.0 * (ROWS * HIDDEN * FFN) as f64 / linear_secs / 1e9;

    let elems = ROWS * FFN;
    let wide = Tensor::from_vec(ROWS, FFN, fill(elems, 8));
    let tanh_secs = secs_per_call(|| {
        let g = Graph::new();
        let v = g.leaf(wide.clone());
        black_box(g.gelu(v));
        g.recycle();
    });
    let mut span = fill(elems, 9);
    let span_secs = secs_per_call(|| {
        simd::gelu_span(black_box(&mut span));
    });
    let rows = fill(ROWS * HIDDEN, 10);
    let mut q = vec![0u8; HIDDEN];
    let quant_secs = secs_per_call(|| {
        for row in rows.chunks_exact(HIDDEN) {
            black_box(quantize_row_u8(black_box(row), &mut q));
        }
    });

    metrics.put("tensor.peak_f32_gflops", peak_f32);
    metrics.put("tensor.peak_i8_gops", peak_i8);
    metrics.put("tensor.gemm_nn_gflops_proj", proj);
    metrics.put("tensor.gemm_nn_gflops_ffn", ffn);
    metrics.put("tensor.gemm_nt_gflops_qkt", qkt);
    metrics.put("tensor.gemm_nn_gflops_odd", odd);
    metrics.put("tensor.gemm_q8_gops_proj", q8_proj);
    metrics.put("tensor.gemm_q8_gops_ffn", q8_ffn);
    metrics.put("tensor.linear_q8_gops_ffn", linear_q8);
    metrics.put("tensor.gemm_f32_peak_share", proj.max(ffn) / peak_f32);
    metrics.put("tensor.gemm_q8_peak_share", q8_proj.max(q8_ffn) / peak_i8);
    metrics.put(
        "tensor.gelu_tanh_ns_per_elem",
        tanh_secs * 1e9 / elems as f64,
    );
    metrics.put(
        "tensor.gelu_span_ns_per_elem",
        span_secs * 1e9 / elems as f64,
    );
    metrics.put(
        "tensor.quantize_rows_ns_per_elem",
        quant_secs * 1e9 / (ROWS * HIDDEN) as f64,
    );

    let f32_line = |name: &str, m: usize, k: usize, n: usize, rate: f64| {
        let bytes = 4 * (m * k + k * n + m * n);
        format!(
            "kernel {name} [{m}x{k}]x[{k}x{n}] {rate:.2} GFLOP/s = {:.0}% of peak; {bytes} bytes computed from sizes, {:.1} FLOP/byte",
            100.0 * rate / peak_f32,
            2.0 * (m * k * n) as f64 / bytes as f64
        )
    };
    let q8_line = |name: &str, k: usize, n: usize, rate: f64| {
        let bytes = Q8_ROWS * k + k * n + 4 * Q8_ROWS * n;
        format!(
            "kernel {name} [{Q8_ROWS}x{k}]x[{k}x{n}] {rate:.2} GOP/s = {:.0}% of peak; {bytes} bytes computed from sizes",
            100.0 * rate / peak_i8
        )
    };
    vec![
        format!("kernel peak at tier {}: {peak_f32:.2} f32 GFLOP/s, {peak_i8:.2} int8 GOP/s (one core, register-resident)", simd::level().name()),
        f32_line("gemm_nn proj", ROWS, HIDDEN, HIDDEN, proj),
        f32_line("gemm_nn ffn", ROWS, HIDDEN, FFN, ffn),
        f32_line("gemm_nt qkt", 24, 32, 24, qkt),
        f32_line("gemm_nn odd", ROWS, 100, 130, odd),
        q8_line("gemm_u8i8 proj", HIDDEN, HIDDEN, q8_proj),
        q8_line("gemm_u8i8 ffn", HIDDEN, FFN, q8_ffn),
        format!("kernel linear_q8_forward+gelu [{ROWS}x{HIDDEN}]x[{HIDDEN}x{FFN}] {linear_q8:.2} GOP/s = {:.0}% of peak", 100.0 * linear_q8 / peak_i8),
    ]
}
