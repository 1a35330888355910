//! Self-contained kernel timing for the `reproduce bench` target.
//!
//! Criterion benches need `cargo bench`; this module gives the reproduce
//! binary a dependency-free way to time the GEMM kernels and emit
//! `BENCH_tensor.json`: each shape as achieved GFLOP/s and as a share of this
//! core's measured multiply-add peak, so "near peak" is a number.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use crate::tables::Artifact;
use emba_tensor::{kernels, simd};

/// One timed shape.
#[derive(Debug, Clone, Serialize)]
pub struct KernelTiming {
    /// Benchmark name (mirrors the criterion ids, e.g. `matmul/nn/128`).
    pub name: String,
    /// Product dimensions `[m, k, n]`.
    pub shape: [usize; 3],
    /// Median ns per call.
    pub ns: f64,
    /// Achieved rate, counting `2·m·k·n` operations per call.
    pub gflops: f64,
    /// `gflops` over the measured peak.
    pub peak_share: f64,
}

/// Times `f` and returns the median ns per call over `samples` samples,
/// calibrating the per-sample iteration count to at least ~2 ms.
pub(crate) fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed.as_micros() >= 2_000 || iters >= 1 << 20 {
            break;
        }
        iters *= 2;
    }
    let mut times: Vec<f64> = (0..samples.max(3))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// This core's multiply-add peak in GFLOP/s: ten independent 8-lane chains
/// that never leave their registers, 160 FLOP per round.
fn fma_peak_gflops(samples: usize) -> f64 {
    const ROUNDS: u64 = 20_000;
    let ns = median_ns(samples, || {
        let (a, b) = (black_box(0.999_999f32), black_box(1e-7f32));
        let mut chains = [[1.0f32; 8]; 10];
        for _ in 0..ROUNDS {
            for chain in &mut chains {
                for x in chain {
                    *x = x.mul_add(a, b);
                }
            }
        }
        black_box(chains);
    });
    ROUNDS as f64 * 160.0 / ns
}

type Gemm = fn(usize, usize, usize, &[f32], &[f32], &mut [f32]);

/// Times the GEMM entry points and renders the result as an [`Artifact`] with
/// id `BENCH_tensor`.
pub fn bench_tensor_kernels(samples: usize) -> Artifact {
    let mut rng = StdRng::seed_from_u64(42);
    let peak = fma_peak_gflops(samples);

    // Square products at the criterion shapes, then the model's hot shapes:
    // a 64-record encode launch through a projection and the FFN, the AOA
    // interaction matrix and one head's `Q·Kᵀ` at full length, one pair's.
    let shapes: [(&str, Gemm, usize, usize, usize); 11] = [
        ("matmul/nn", kernels::gemm_nn, 32, 32, 32),
        ("matmul/tn", kernels::gemm_tn, 32, 32, 32),
        ("matmul/nn", kernels::gemm_nn, 64, 64, 64),
        ("matmul/tn", kernels::gemm_tn, 64, 64, 64),
        ("matmul/nn", kernels::gemm_nn, 128, 128, 128),
        ("matmul/tn", kernels::gemm_tn, 128, 128, 128),
        ("model/encode_proj", kernels::gemm_nn, 1888, 128, 128),
        ("model/encode_ffn_up", kernels::gemm_nn, 1888, 128, 512),
        ("model/aoa_interaction", kernels::gemm_nt, 128, 128, 128),
        ("model/attn_qkt", kernels::gemm_nt, 128, 32, 128),
        ("model/attn_qkt_record", kernels::gemm_nt, 24, 32, 24),
    ];
    let timings: Vec<KernelTiming> = shapes
        .into_iter()
        .map(|(name, gemm, m, k, n)| {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            let mut out = vec![0.0f32; m * n];
            let ns = median_ns(samples, || {
                gemm(m, k, n, &a, &b, &mut out);
                black_box(out[0]);
            });
            let gflops = 2.0 * (m * k * n) as f64 / ns;
            KernelTiming {
                name: format!("{name}/{m}x{k}x{n}"),
                shape: [m, k, n],
                ns,
                gflops,
                peak_share: gflops / peak,
            }
        })
        .collect();

    let tier = simd::level().name();
    let mut text = format!(
        "BENCH_tensor — f32 GEMM entry points against this core's multiply-add peak\n\
         (median ns per call; tier {tier}; peak {peak:.1} GFLOP/s, ten register-resident 8-lane FMA chains)\n\n",
    );
    for t in &timings {
        text.push_str(&format!(
            "{:<36} {:>10.0} ns  {:>6.1} GFLOP/s  {:>5.1}% of peak\n",
            t.name,
            t.ns,
            t.gflops,
            100.0 * t.peak_share
        ));
    }

    #[derive(Serialize)]
    struct Report {
        description: &'static str,
        samples: usize,
        simd_tier: &'static str,
        peak_gflops: f64,
        timings: Vec<KernelTiming>,
    }
    let report = Report {
        description: "Median ns/call and achieved GFLOP/s of the f32 GEMM entry points, with their share of a measured register-resident FMA peak",
        samples,
        simd_tier: tier,
        peak_gflops: peak,
        timings,
    };
    Artifact {
        id: "BENCH_tensor",
        text,
        json: serde_json::to_value(&report).expect("kernel report serializes"),
    }
}
