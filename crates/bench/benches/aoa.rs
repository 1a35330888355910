//! Benchmarks the AOA module against the cheaper pooling strategies it is
//! ablated against — the design-choice bench for DESIGN.md's "AOA vs
//! single-level attention vs averaging" discussion.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use emba_core::aoa::{attention_over_attention, attention_over_attention_batch};
use emba_tensor::{Graph, RowView, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_pooling_strategies(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut group = c.benchmark_group("pair_pooling");
    group.sample_size(30);
    for &len in &[16usize, 32, 64] {
        let e1 = Tensor::rand_normal(len, 128, 0.0, 1.0, &mut rng);
        let e2 = Tensor::rand_normal(len, 128, 0.0, 1.0, &mut rng);

        group.bench_with_input(BenchmarkId::new("aoa", len), &len, |b, _| {
            b.iter(|| {
                let g = Graph::new();
                let v1 = g.leaf(e1.clone());
                let v2 = g.leaf(e2.clone());
                black_box(g.value(attention_over_attention(&g, v1, v2).pooled));
            });
        });

        // What the model runs: one fused op over a window of candidates that
        // share their left record, read from cached encodings. 32 pairs per
        // iteration — divide by 32 to compare with the per-pair reference.
        let rights: Vec<Tensor> = (0..32).map(|_| Tensor::rand_normal(len, 128, 0.0, 1.0, &mut rng)).collect();
        group.bench_with_input(BenchmarkId::new("aoa_fused_batch32", len), &len, |b, _| {
            b.iter(|| {
                let g = Graph::new();
                let left = vec![RowView::Tensor(&e1); rights.len()];
                let right: Vec<RowView<'_>> = rights.iter().map(RowView::Tensor).collect();
                black_box(g.value(attention_over_attention_batch(&g, &left, &right).pooled));
                g.recycle();
            });
        });

        group.bench_with_input(BenchmarkId::new("surfcon_single_level", len), &len, |b, _| {
            b.iter(|| {
                let g = Graph::new();
                let v1 = g.leaf(e1.clone());
                let v2 = g.leaf(e2.clone());
                let attn = g.softmax_rows(g.matmul_nt(v1, v2));
                let ctx = g.matmul(attn, v2);
                black_box(g.value(g.mean_axis0(g.mul(v1, ctx))));
            });
        });

        group.bench_with_input(BenchmarkId::new("token_average", len), &len, |b, _| {
            b.iter(|| {
                let g = Graph::new();
                let v1 = g.leaf(e1.clone());
                let v2 = g.leaf(e2.clone());
                let m1 = g.mean_axis0(v1);
                let m2 = g.mean_axis0(v2);
                black_box(g.value(g.concat_cols(&[m1, m2])));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pooling_strategies);
criterion_main!(benches);
