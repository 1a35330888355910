//! Microbenchmarks of the tensor kernels that dominate training time.
//!
//! The `matmul` group times the three GEMM entry points at square shapes;
//! `model_shapes` covers the model's real hot paths: the AOA interaction
//! matrix `E1·E2ᵀ` at `max_len × hidden` (128×128 · (128×128)ᵀ), the per-head
//! transformer `Q·Kᵀ` at `seq × head_dim` (128×32), and a rectangular
//! projection 64×128 · 128×64. `reproduce bench` reports the same kernels as
//! GFLOP/s against a measured peak.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emba_tensor::{Graph, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut group = c.benchmark_group("matmul");
    group.sample_size(20);
    for &n in &[32usize, 64, 128] {
        let a = Tensor::rand_normal(n, n, 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(n, n, 0.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("nn", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
        group.bench_with_input(BenchmarkId::new("nt", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_nt(&b)));
        });
        group.bench_with_input(BenchmarkId::new("tn", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_tn(&b)));
        });
    }
    group.finish();
}

fn bench_model_shapes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("model_shapes");
    group.sample_size(20);

    // AOA interaction matrix at full length: E1 [128,128] · E2ᵀ [128,128].
    let e1 = Tensor::rand_normal(128, 128, 0.0, 1.0, &mut rng);
    let e2 = Tensor::rand_normal(128, 128, 0.0, 1.0, &mut rng);
    group.bench_function("aoa_interaction_128x128", |b| {
        b.iter(|| black_box(e1.matmul_nt(&e2)));
    });

    // Per-head attention scores: Q [128,32] · Kᵀ [32,128].
    let q = Tensor::rand_normal(128, 32, 0.0, 1.0, &mut rng);
    let k = Tensor::rand_normal(128, 32, 0.0, 1.0, &mut rng);
    group.bench_function("attn_qkt_128x32", |b| {
        b.iter(|| black_box(q.matmul_nt(&k)));
    });

    // Rectangular projection: 64×128 · 128×64.
    let x = Tensor::rand_normal(64, 128, 0.0, 1.0, &mut rng);
    let w = Tensor::rand_normal(128, 64, 0.0, 1.0, &mut rng);
    group.bench_function("proj_64x128x64", |b| {
        b.iter(|| black_box(x.matmul(&w)));
    });

    // Fused attention scores vs the three-op sequence they replace.
    let scale = 1.0 / 32.0f32.sqrt();
    group.bench_function("fused_attention_scores_128x32", |b| {
        b.iter(|| {
            let g = Graph::new();
            let (vq, vk) = (g.leaf(q.clone()), g.leaf(k.clone()));
            let p = g.attention_scores(vq, vk, scale);
            black_box(g.value(p));
            g.recycle();
        });
    });
    group.bench_function("unfused_attention_scores_128x32", |b| {
        b.iter(|| {
            let g = Graph::new();
            let (vq, vk) = (g.leaf(q.clone()), g.leaf(k.clone()));
            let p = g.softmax_rows(g.scale(g.matmul_nt(vq, vk), scale));
            black_box(g.value(p));
            g.recycle();
        });
    });
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let t = Tensor::rand_normal(64, 64, 0.0, 2.0, &mut rng);
    let mut group = c.benchmark_group("softmax");
    group.sample_size(30);
    group.bench_function("rows_64x64", |b| b.iter(|| black_box(t.softmax_rows())));
    group.bench_function("cols_64x64", |b| b.iter(|| black_box(t.softmax_cols())));
    group.finish();
}

fn bench_autograd_overhead(c: &mut Criterion) {
    // Forward + backward through a small MLP-shaped graph, measuring tape
    // overhead relative to the raw kernels.
    let mut rng = StdRng::seed_from_u64(2);
    let x = Tensor::rand_normal(32, 64, 0.0, 1.0, &mut rng);
    let w1 = Tensor::rand_normal(64, 64, 0.0, 0.1, &mut rng);
    let w2 = Tensor::rand_normal(64, 1, 0.0, 0.1, &mut rng);
    let mut group = c.benchmark_group("autograd");
    group.sample_size(30);
    group.bench_function("mlp_forward_backward", |b| {
        b.iter(|| {
            let g = Graph::new();
            let xv = g.leaf(x.clone());
            let w1v = g.leaf(w1.clone());
            let w2v = g.leaf(w2.clone());
            let h = g.gelu(g.matmul(xv, w1v));
            let y = g.matmul(h, w2v);
            let loss = g.mean_all(g.mul(y, y));
            let grads = g.backward(loss);
            grads.recycle();
            g.recycle();
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_model_shapes,
    bench_softmax,
    bench_autograd_overhead
);
criterion_main!(benches);
