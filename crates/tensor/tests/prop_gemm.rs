//! The direct-operand GEMM against its written specification.
//!
//! `kernels::gemm_strided` promises, per element of C and per `KC`-deep slice
//! of the shared dimension, the one chain `acc = fma(A(i,p), B(p,j), acc)`
//! for `p` ascending from zero, the slices summed in order, then the
//! epilogue. That chain is spelled out here with `f32::mul_add` and compared
//! **bit for bit** on every SIMD tier this CPU runs, over shapes that
//! straddle the 6-row, 16- and 32-column and `KC` edges (an odd and an even
//! number of 16-column strips, for the AVX-512 tile's strip pairs), with
//! every operand a view (leading dimension
//! wider than the view, non-zero column offset) into a buffer of canary
//! words that must come back untouched. The grouped attention ops that hand
//! such views to the kernel are checked at the tape level: head views against
//! sliced-out copies, a sequence alone against the same sequence in a batch,
//! and every gradient against finite differences.

use emba_tensor::gradcheck::check_gradients;
use emba_tensor::kernels::{self, Epilogue, KC};
use emba_tensor::{fwd, simd, Graph, RowGroups, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MS: [usize; 5] = [1, 5, 6, 7, 13];
const NS: [usize; 10] = [1, 2, 15, 16, 17, 31, 32, 33, 48, 130];
const KS: [usize; 6] = [1, 32, 100, 256, 257, 600];

/// A quiet NaN with a payload no arithmetic here produces.
const CANARY: u32 = 0x7fc0_beef;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Which operand is stored transposed.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Nn,
    Nt,
    Tn,
}

/// A `rows × cols` matrix stored row-major (or, `transposed`, column-major)
/// at column offset `off` of a wider canary-filled buffer.
struct View {
    buf: Vec<f32>,
    off: usize,
    /// Stride between logical rows / logical columns.
    rs: usize,
    cs: usize,
}

impl View {
    fn random(
        rng: &mut StdRng,
        rows: usize,
        cols: usize,
        transposed: bool,
        off: usize,
        pad: usize,
    ) -> Self {
        let (srows, scols) = if transposed {
            (cols, rows)
        } else {
            (rows, cols)
        };
        let ld = off + scols + pad;
        let mut buf = vec![f32::from_bits(CANARY); srows * ld];
        for r in 0..srows {
            for c in 0..scols {
                buf[r * ld + off + c] = rng.gen_range(-1.0f32..1.0);
            }
        }
        let (rs, cs) = if transposed { (1, ld) } else { (ld, 1) };
        Self { buf, off, rs, cs }
    }

    fn at(&self, i: usize, j: usize) -> f32 {
        self.buf[self.off + i * self.rs + j * self.cs]
    }

    fn slice(&self) -> &[f32] {
        &self.buf[self.off..]
    }
}

/// The specification: one FMA chain per `KC` slice, slices added in order.
fn chain(a: &View, b: &View, i: usize, j: usize, k: usize, start: Option<f32>) -> f32 {
    let mut c = start;
    for p0 in (0..k.max(1)).step_by(KC) {
        let mut acc = 0.0f32;
        for p in p0..(p0 + KC).min(k) {
            acc = a.at(i, p).mul_add(b.at(p, j), acc);
        }
        c = Some(match c {
            Some(c) => c + acc,
            None => acc,
        });
    }
    c.expect("at least one slice")
}

/// An output view at column offset `off` of a canary buffer with `pad`
/// trailing columns per row, plus a canary margin before and after.
struct Out {
    buf: Vec<f32>,
    m: usize,
    n: usize,
    ld: usize,
    start: usize,
}

impl Out {
    fn new(m: usize, n: usize, off: usize, pad: usize) -> Self {
        let ld = off + n + pad;
        let margin = 19;
        Self {
            buf: vec![f32::from_bits(CANARY); margin + m * ld + margin],
            m,
            n,
            ld,
            start: margin + off,
        }
    }

    fn view(&mut self) -> &mut [f32] {
        let end = self.start + (self.m - 1) * self.ld + self.n;
        &mut self.buf[self.start..end]
    }

    fn at(&self, i: usize, j: usize) -> f32 {
        self.buf[self.start + i * self.ld + j]
    }

    fn set(&mut self, i: usize, j: usize, v: f32) {
        self.buf[self.start + i * self.ld + j] = v;
    }

    /// Every word outside the `m × n` view still holds the canary.
    fn canaries_intact(&self) -> bool {
        self.buf.iter().enumerate().all(|(at, v)| {
            let inside = at >= self.start && {
                let rel = at - self.start;
                rel / self.ld < self.m && rel % self.ld < self.n
            };
            inside || v.to_bits() == CANARY
        })
    }
}

/// `gemm_strided` on two [`View`]s.
#[allow(clippy::too_many_arguments)]
fn gemm(
    a: &View,
    b: &View,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    ldc: usize,
    ep: Epilogue<'_>,
) {
    kernels::gemm_strided(
        m,
        k,
        n,
        a.slice(),
        a.rs,
        a.cs,
        b.slice(),
        b.rs,
        b.cs,
        out,
        ldc,
        ep,
    );
}

fn operands(rng: &mut StdRng, kind: Kind, m: usize, k: usize, n: usize) -> (View, View) {
    let a = View::random(rng, m, k, matches!(kind, Kind::Tn), 3, 2);
    let b = View::random(rng, k, n, matches!(kind, Kind::Nt), 5, 1);
    (a, b)
}

#[test]
fn every_element_is_the_fma_chain_then_the_epilogue_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(41);
    for kind in [Kind::Nn, Kind::Nt, Kind::Tn] {
        for m in MS {
            for n in NS {
                for k in KS {
                    let (a, b) = operands(&mut rng, kind, m, k, n);
                    let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    let prior: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    for epilogue in 0..4 {
                        let tag = format!("{kind:?} {m}x{k}x{n} epilogue {epilogue}");
                        let run = || {
                            let mut out = Out::new(m, n, 7, 4);
                            // `pre` sits inside canaries of its own.
                            let mut pre = vec![f32::from_bits(CANARY); 11 + m * n + 11];
                            if epilogue == 1 {
                                for (at, &v) in prior.iter().enumerate() {
                                    out.set(at / n, at % n, v);
                                }
                            }
                            let ld = out.ld;
                            let ep = match epilogue {
                                0 => Epilogue::Store,
                                1 => Epilogue::Add,
                                2 => Epilogue::Bias(&bias),
                                _ => Epilogue::BiasGelu {
                                    bias: &bias,
                                    pre: &mut pre[11..11 + m * n],
                                },
                            };
                            gemm(&a, &b, m, k, n, out.view(), ld, ep);
                            (out, pre)
                        };
                        let runs = simd::on_every_tier(|_| run());
                        for (tier, (out, pre)) in &runs {
                            assert!(
                                out.canaries_intact(),
                                "{tag} {tier:?}: wrote outside the output view"
                            );
                            let pre_touched = epilogue == 3;
                            assert!(
                                pre[..11]
                                    .iter()
                                    .chain(&pre[11 + m * n..])
                                    .all(|v| v.to_bits() == CANARY)
                                    && (pre_touched
                                        || pre.iter().all(|v| v.to_bits() == CANARY)),
                                "{tag} {tier:?}: wrote outside the pre-activation buffer"
                            );
                        }
                        for i in 0..m {
                            for j in 0..n {
                                let start = (epilogue == 1).then(|| prior[i * n + j]);
                                let mut want = chain(&a, &b, i, j, k, start);
                                if epilogue >= 2 {
                                    want += bias[j];
                                }
                                let pre_want = want;
                                if epilogue == 3 {
                                    want = simd::fast_gelu(want);
                                }
                                for (tier, (out, pre)) in &runs {
                                    if epilogue == 3 {
                                        assert_eq!(
                                            pre[11 + i * n + j].to_bits(),
                                            pre_want.to_bits(),
                                            "{tag} {tier:?}: pre[{i},{j}]"
                                        );
                                    }
                                    assert_eq!(
                                        out.at(i, j).to_bits(),
                                        want.to_bits(),
                                        "{tag} {tier:?}: C[{i},{j}] = {} want {want}",
                                        out.at(i, j)
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn public_entry_points_are_the_same_chain() {
    let mut rng = StdRng::seed_from_u64(42);
    for (m, k, n) in [(1, 1, 1), (7, 100, 17), (13, 257, 130), (24, 32, 24)] {
        for kind in [Kind::Nn, Kind::Nt, Kind::Tn] {
            let a = View::random(&mut rng, m, k, matches!(kind, Kind::Tn), 0, 0);
            let b = View::random(&mut rng, k, n, matches!(kind, Kind::Nt), 0, 0);
            let mut out = vec![0.0f32; m * n];
            match kind {
                Kind::Nn => kernels::gemm_nn(m, k, n, &a.buf, &b.buf, &mut out),
                Kind::Nt => kernels::gemm_nt(m, k, n, &a.buf, &b.buf, &mut out),
                Kind::Tn => kernels::gemm_tn(m, k, n, &a.buf, &b.buf, &mut out),
            }
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(
                        out[i * n + j].to_bits(),
                        chain(&a, &b, i, j, k, None).to_bits(),
                        "{kind:?} {m}x{k}x{n} [{i},{j}]"
                    );
                }
            }
        }
    }
}

#[test]
fn a_row_of_c_does_not_depend_on_the_rows_around_it() {
    let mut rng = StdRng::seed_from_u64(43);
    for (k, n) in [(32, 24), (128, 128), (257, 130), (600, 17)] {
        for kind in [Kind::Nn, Kind::Nt, Kind::Tn] {
            let (a, b) = operands(&mut rng, kind, 64, k, n);
            let mut all = vec![0.0f32; 64 * n];
            gemm(&a, &b, 64, k, n, &mut all, n, Epilogue::Store);
            for i in [0, 5, 6, 31, 63] {
                let mut alone = vec![0.0f32; n];
                let row = &a.slice()[i * a.rs..];
                kernels::gemm_strided(
                    1,
                    k,
                    n,
                    row,
                    a.rs,
                    a.cs,
                    b.slice(),
                    b.rs,
                    b.cs,
                    &mut alone,
                    n,
                    Epilogue::Store,
                );
                assert_eq!(
                    bits(&alone),
                    bits(&all[i * n..(i + 1) * n]),
                    "{kind:?} k {k} n {n}: row {i} alone vs among 64"
                );
            }
        }
    }
}

#[test]
fn epilogues_match_f64() {
    const GELU_C: f64 = 0.797_884_560_802_865_4;
    const GELU_K: f64 = 0.044_715;
    let mut rng = StdRng::seed_from_u64(44);
    for (m, k, n) in [(13, 100, 17), (7, 600, 130), (64, 128, 256)] {
        let (a, b) = operands(&mut rng, Kind::Nn, m, k, n);
        let bias: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut with_bias = vec![0.0f32; m * n];
        gemm(&a, &b, m, k, n, &mut with_bias, n, Epilogue::Bias(&bias));
        let mut activated = vec![0.0f32; m * n];
        let mut pre = vec![0.0f32; m * n];
        let ep = Epilogue::BiasGelu {
            bias: &bias,
            pre: &mut pre,
        };
        gemm(&a, &b, m, k, n, &mut activated, n, ep);
        assert_eq!(
            bits(&pre),
            bits(&with_bias),
            "the saved pre-activation is the bias epilogue's output"
        );
        for i in 0..m {
            for j in 0..n {
                let dot: f64 = (0..k)
                    .map(|p| f64::from(a.at(i, p)) * f64::from(b.at(p, j)))
                    .sum();
                let want = dot + f64::from(bias[j]);
                // Inputs in [-1, 1): each of the k products and adds rounds
                // at most half an ulp of a partial sum below k.
                let bound = 1e-7 * (k as f64) * (1.0 + want.abs());
                let got = f64::from(with_bias[i * n + j]);
                assert!(
                    (got - want).abs() <= bound,
                    "{m}x{k}x{n} bias [{i},{j}]: {got} vs {want}"
                );
                let gelu = 0.5 * want * (1.0 + (GELU_C * (want + GELU_K * want.powi(3))).tanh());
                let got = f64::from(activated[i * n + j]);
                // GELU is 1.13-Lipschitz; `fast_gelu` adds 2e-6·|x| + 1e-7.
                assert!(
                    (got - gelu).abs() <= 1.2 * bound + 2e-6 * want.abs() + 1e-7,
                    "{m}x{k}x{n} gelu [{i},{j}]: {got} vs {gelu}"
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "reaches past its slice")]
fn a_view_past_its_slice_is_rejected() {
    let a = vec![0.0f32; 6 * 8 - 1];
    let b = vec![0.0f32; 8 * 4];
    let mut out = vec![0.0f32; 6 * 4];
    kernels::gemm_strided(6, 8, 4, &a, 8, 1, &b, 4, 1, &mut out, 4, Epilogue::Store);
}

#[test]
#[should_panic(expected = "reaches past its slice")]
fn an_output_view_past_its_slice_is_rejected() {
    let a = vec![0.0f32; 6 * 8];
    let b = vec![0.0f32; 8 * 4];
    let mut out = vec![0.0f32; 5 * 9 + 3];
    kernels::gemm_strided(6, 8, 4, &a, 8, 1, &b, 4, 1, &mut out, 9, Epilogue::Store);
}

// ----- head views at the tape level -------------------------------------------

fn packed(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    Tensor::rand_normal(rows, cols, 0.0, 0.8, rng)
}

/// Multi-head attention over `x`-shaped q/k/v through the view-taking ops:
/// per-head probabilities and the `[ΣT, hidden]` context.
fn attend(
    g: &Graph,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    groups: &RowGroups,
) -> (Vec<Tensor>, Tensor) {
    let (vq, vk, vv) = (g.leaf(q.clone()), g.leaf(k.clone()), g.leaf(v.clone()));
    let hd = q.cols() / heads;
    let probs: Vec<_> = (0..heads)
        .map(|h| g.attention_scores_grouped(vq, vk, h * hd..(h + 1) * hd, 0.4, groups))
        .collect();
    let ctx = g.matmul_grouped(&probs, vv, groups);
    (probs.iter().map(|&p| g.value(p)).collect(), g.value(ctx))
}

#[test]
fn head_views_equal_sliced_out_heads_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(45);
    let groups = RowGroups::from_lens(&[3, 17, 1, 8]);
    let (heads, hd) = (4, 8);
    let n = groups.total();
    let (q, k, v) = (
        packed(&mut rng, n, heads * hd),
        packed(&mut rng, n, heads * hd),
        packed(&mut rng, n, heads * hd),
    );
    let g = Graph::new();
    let (probs, ctx) = attend(&g, &q, &k, &v, heads, &groups);
    assert_eq!(ctx.shape(), (n, heads * hd));
    for (h, p) in probs.iter().enumerate() {
        // The old route: copy the head's columns out, attend, and read the
        // context back from a tensor of its own.
        let (c0, c1) = (h * hd, (h + 1) * hd);
        let (qh, kh, vh) = (
            g.leaf(q.slice_cols(c0, c1)),
            g.leaf(k.slice_cols(c0, c1)),
            g.leaf(v.slice_cols(c0, c1)),
        );
        let ph = g.attention_scores_grouped(qh, kh, 0..hd, 0.4, &groups);
        assert_eq!(p.shape(), (n, groups.max_len()));
        assert_eq!(
            bits(p.data()),
            bits(g.value(ph).data()),
            "head {h} probabilities"
        );
        let ch = g.value(g.matmul_grouped(&[ph], vh, &groups));
        assert_eq!(
            bits(ctx.slice_cols(c0, c1).data()),
            bits(ch.data()),
            "head {h} context"
        );
    }
}

#[test]
fn a_sequence_attends_the_same_alone_and_in_a_batch() {
    let mut rng = StdRng::seed_from_u64(46);
    let lens = [5usize, 2, 23, 6];
    let groups = RowGroups::from_lens(&lens);
    let (heads, hd) = (2, 16);
    let n = groups.total();
    let (q, k, v) = (
        packed(&mut rng, n, heads * hd),
        packed(&mut rng, n, heads * hd),
        packed(&mut rng, n, heads * hd),
    );
    let g = Graph::new();
    let (probs, ctx) = attend(&g, &q, &k, &v, heads, &groups);
    for (gi, &t) in lens.iter().enumerate() {
        let (r0, r1) = groups.range(gi);
        let one = RowGroups::from_lens(&[t]);
        let (p1, c1) = attend(
            &g,
            &q.slice_rows(r0, r1),
            &k.slice_rows(r0, r1),
            &v.slice_rows(r0, r1),
            heads,
            &one,
        );
        assert_eq!(
            bits(c1.data()),
            bits(ctx.slice_rows(r0, r1).data()),
            "group {gi} context"
        );
        for h in 0..heads {
            for r in 0..t {
                let in_batch = probs[h].row_slice(r0 + r);
                assert_eq!(
                    bits(p1[h].row_slice(r)),
                    bits(&in_batch[..t]),
                    "group {gi} head {h} row {r}"
                );
                assert!(
                    in_batch[t..].iter().all(|&x| x == 0.0),
                    "padding must stay zero"
                );
            }
        }
    }
}

#[test]
fn gradients_flow_through_head_views_and_dropped_probabilities() {
    let mut rng = StdRng::seed_from_u64(47);
    let groups = RowGroups::from_lens(&[3, 1, 4]);
    let (heads, hd) = (2, 3);
    let n = groups.total();
    let inputs = [
        packed(&mut rng, n, heads * hd),
        packed(&mut rng, n, heads * hd),
        packed(&mut rng, n, heads * hd),
    ];
    let mix = packed(&mut rng, n, heads * hd);
    let spice = packed(&mut rng, n, groups.max_len());
    check_gradients(
        &inputs,
        |g, v| {
            // Train-mode attention: the same dropout masks on every call.
            let mut mask_rng = StdRng::seed_from_u64(9);
            let mut dropped = Vec::new();
            let mut reg = None;
            for h in 0..heads {
                let p = g.attention_scores_grouped(v[0], v[1], h * hd..(h + 1) * hd, 0.6, &groups);
                // The undropped probabilities are read too (`last_attention`).
                let term = g.sum_all(g.mul(p, g.leaf(spice.clone())));
                reg = Some(reg.map_or(term, |r| g.add(r, term)));
                dropped.push(g.dropout(p, 0.25, &mut mask_rng));
            }
            let ctx = g.matmul_grouped(&dropped, v[2], &groups);
            g.add(
                g.sum_all(g.mul(ctx, g.leaf(mix.clone()))),
                reg.expect("two heads"),
            )
        },
        1e-2,
        5e-2,
    )
    .unwrap();
}

#[test]
fn aoa_views_at_row_offsets_read_their_own_rows() {
    // The fused AOA op multiplies the groups of packed matrices in place:
    // each pair's result must be, bit for bit, what the same rows give as
    // standalone slices.
    let mut rng = StdRng::seed_from_u64(48);
    let (ga, gb) = (
        RowGroups::from_lens(&[4, 9, 2]),
        RowGroups::from_lens(&[7, 3, 12]),
    );
    let h = 20;
    let (a, b) = (
        packed(&mut rng, ga.total(), h),
        packed(&mut rng, gb.total(), h),
    );
    let g = Graph::new();
    let (va, vb) = (g.leaf(a.clone()), g.leaf(b.clone()));
    let (pooled, gamma) = g.aoa_pool(va, &ga, vb, &gb);
    let pooled = g.value(pooled);
    assert_eq!(pooled.shape(), (ga.len(), h));
    assert_eq!(gamma.shape(), (ga.total(), 1));
    for gi in 0..ga.len() {
        let ((ar0, ar1), (br0, br1)) = (ga.range(gi), gb.range(gi));
        let (e1, e2) = (a.slice_rows(ar0, ar1), b.slice_rows(br0, br1));
        let (mut alone, mut alone_gamma) = (vec![0.0; h], vec![0.0; e1.rows()]);
        fwd::aoa_pool_into(&[(e1.data(), e2.data())], h, &mut alone, Some(&mut alone_gamma));
        assert_eq!(bits(pooled.row_slice(gi)), bits(&alone), "pair {gi} pooled");
        assert_eq!(bits(&gamma.data()[ar0..ar1]), bits(&alone_gamma), "pair {gi} gamma");
    }
}
