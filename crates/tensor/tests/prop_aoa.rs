//! Fused attention-over-attention held to its contract: the forward loop the
//! pair scorer runs (`fwd::aoa_pool_into`, over slices) is a fixed
//! arithmetic, bit for bit, on every SIMD tier this CPU runs, and the tape op
//! (`Graph::aoa_pool`, over the groups of two packed nodes) returns the same
//! bits; a pair's bits do not depend on the launch around it or on whether
//! its packed `E1` was reused; scratch never leaks between pairs; gradients
//! match the per-pair composition of general tape ops; an empty side and a
//! non-finite input keep their documented results.

use emba_tensor::kernels::{dot, gemm_nt, scaled_softmax_in_place, KC, NC, NR};
use emba_tensor::{fwd, pool, simd, Graph, RowGroups, Tensor, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn encoding(rng: &mut StdRng, rows: usize, h: usize) -> Tensor {
    Tensor::rand_normal(rows, h, 0.0, 0.6, rng)
}

/// The op's arithmetic for one pair, spelled out from the public kernels:
/// `(pooled [h], γ [m])`.
fn reference_pair(e1: &Tensor, e2: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let ((m, h), n) = (e1.shape(), e2.rows());
    let mut interaction = vec![0.0f32; m * n];
    gemm_nt(m, h, n, e1.data(), e2.data(), &mut interaction);
    // α: softmax down each column, through the one softmax funnel.
    let mut alpha = vec![0.0f32; m * n];
    for c in 0..n {
        let mut col: Vec<f32> = (0..m).map(|i| interaction[i * n + c]).collect();
        scaled_softmax_in_place(&mut col, 1.0);
        for (i, v) in col.into_iter().enumerate() {
            alpha[i * n + c] = v;
        }
    }
    // β: softmax along each row; β̄ sums the rows in order, then scales.
    let mut beta = interaction;
    let mut beta_bar = vec![0.0f32; n];
    for row in beta.chunks_exact_mut(n) {
        scaled_softmax_in_place(row, 1.0);
        for (o, &v) in beta_bar.iter_mut().zip(row.iter()) {
            *o += v;
        }
    }
    let inv = 1.0 / m as f32;
    beta_bar.iter_mut().for_each(|o| *o *= inv);
    let gamma: Vec<f32> = alpha.chunks_exact(n).map(|row| dot(row, &beta_bar)).collect();
    let mut pooled = vec![0.0f32; h];
    for (&gi, row) in gamma.iter().zip(e1.data().chunks_exact(h)) {
        for (o, &x) in pooled.iter_mut().zip(row) {
            *o = gi.mul_add(x, *o);
        }
    }
    (pooled, gamma)
}

/// One forward-only launch over whole tensors, read where they lie, into
/// output buffers drawn from the scratch pool as the pair scorer's are;
/// returns `(pooled [G, h], γ [ΣM, 1])`.
fn launch(pairs: &[(&Tensor, &Tensor)]) -> (Tensor, Tensor) {
    let h = pairs[0].0.cols();
    let operands: Vec<(&[f32], &[f32])> = pairs.iter().map(|(a, b)| (a.data(), b.data())).collect();
    let mut pooled = pool::take_uninit(pairs.len() * h);
    let mut gamma = pool::take_uninit(pairs.iter().map(|p| p.0.rows()).sum());
    fwd::aoa_pool_into(&operands, h, &mut pooled, Some(&mut gamma));
    (Tensor::from_vec(pairs.len(), h, pooled), Tensor::from_vec(gamma.len(), 1, gamma))
}

/// The same pairs through the tape op, as training runs it: each side
/// packed into one leaf whose groups are its records.
fn tape(pairs: &[(&Tensor, &Tensor)]) -> (Tensor, Tensor) {
    let pack = |side: Vec<&Tensor>| (Tensor::concat_rows(&side), RowGroups::from_lens(&side.iter().map(|t| t.rows()).collect::<Vec<_>>()));
    let (e1, g1) = pack(pairs.iter().map(|p| p.0).collect());
    let (e2, g2) = pack(pairs.iter().map(|p| p.1).collect());
    let g = Graph::new();
    let (pooled, gamma) = g.aoa_pool(g.leaf(e1), &g1, g.leaf(e2), &g2);
    (g.value(pooled), gamma)
}

const LENS: [usize; 9] = [1, 2, 5, 6, 7, 16, 17, 30, 64];

// ----- (a) the forward is the spelled-out arithmetic, bit for bit ------------

#[test]
fn forward_matches_the_public_kernel_arithmetic_on_both_tiers() {
    // Both routes — the forward loop over slices and the tape op over
    // groups — on every tier, against one reference.
    let mut rng = StdRng::seed_from_u64(101);
    for h in [3usize, 64, 128] {
        // One ragged launch holding every (m, n) combination, each with its
        // own operands so no panel is shared.
        let operands: Vec<(Tensor, Tensor)> = LENS
            .iter()
            .flat_map(|&m| LENS.iter().map(move |&n| (m, n)))
            .map(|(m, n)| (encoding(&mut rng, m, h), encoding(&mut rng, n, h)))
            .collect();
        let pairs: Vec<(&Tensor, &Tensor)> = operands.iter().map(|(a, b)| (a, b)).collect();
        // One reference; every tier's launch must reproduce its bits.
        let reference: Vec<_> = pairs.iter().map(|(e1, e2)| reference_pair(e1, e2)).collect();
        let runs = simd::on_every_tier(|_| [launch(&pairs), tape(&pairs)]);
        for (tier, (route, (pooled, gamma))) in runs.into_iter().flat_map(|(tier, both)| ["fwd", "tape"].into_iter().zip(both).map(move |r| (tier, r))) {
            assert_eq!(pooled.shape(), (pairs.len(), h));
            let mut at = 0;
            for (idx, ((e1, e2), (want_pooled, want_gamma))) in pairs.iter().zip(&reference).enumerate() {
                let (m, n) = (e1.rows(), e2.rows());
                assert_eq!(bits(pooled.row_slice(idx)), bits(want_pooled), "{route} {tier:?} h {h} pair {m}x{n}: pooled");
                assert_eq!(bits(&gamma.data()[at..at + m]), bits(want_gamma), "{route} {tier:?} h {h} pair {m}x{n}: gamma");
                let total: f32 = want_gamma.iter().sum();
                assert!((total - 1.0).abs() < 1e-4, "h {h} pair {m}x{n}: gamma sums to {total}");
                at += m;
            }
            assert_eq!(gamma.shape(), (at, 1));
        }
    }
}

// ----- (b) a pair's bits do not depend on the launch around it ---------------

#[test]
fn a_pair_is_bit_equal_alone_in_a_crowd_and_whatever_panel_it_finds() {
    let mut rng = StdRng::seed_from_u64(102);
    let h = 128;
    let (a, b) = (encoding(&mut rng, 30, h), encoding(&mut rng, 29, h));
    let others: Vec<Tensor> = (0..40).map(|i| encoding(&mut rng, 1 + (7 * i) % 64, h)).collect();
    let (alone_pooled, alone_gamma) = launch(&[(&a, &b)]);
    let alone = (bits(alone_pooled.data()), bits(alone_gamma.data()));

    // A 256-pair launch. The target sits (1) first of a new run, after a pair
    // with another left: the panel is re-packed; (2) after two pairs that
    // share its left: the panel is reused; (3) last, after a different run.
    let mut pairs: Vec<(&Tensor, &Tensor)> = (0..256)
        .map(|i| (&others[i % others.len()], &others[(3 * i + 1) % others.len()]))
        .collect();
    pairs[100] = (&a, &b);
    pairs[180] = (&a, &others[5]);
    pairs[181] = (&a, &others[9]);
    pairs[182] = (&a, &b);
    pairs[255] = (&a, &b);
    let (pooled, gamma) = launch(&pairs);
    let gamma_at = |idx: usize| {
        let at: usize = pairs[..idx].iter().map(|p| p.0.rows()).sum();
        bits(&gamma.data()[at..at + a.rows()])
    };
    for idx in [100, 182, 255] {
        assert_eq!(bits(pooled.row_slice(idx)), alone.0, "pooled of pair {idx}");
        assert_eq!(gamma_at(idx), alone.1, "gamma of pair {idx}");
    }

    // The same record as groups of a packed node at row offsets (other
    // memory, so another packing each time), as the tape op reads training
    // batches.
    let pairs = [(&a, &others[7]), (&a, &b), (&others[3], &others[8]), (&a, &b)];
    let (pooled, gamma) = tape(&pairs);
    for idx in [1, 3] {
        let at: usize = pairs[..idx].iter().map(|p| p.0.rows()).sum();
        assert_eq!(bits(pooled.row_slice(idx)), alone.0, "pooled through group {idx}");
        assert_eq!(bits(&gamma.data()[at..at + a.rows()]), alone.1, "gamma through group {idx}");
    }
}

// ----- (c) scratch stays scratch; groups stay inside their nodes -------------

/// A NaN with a payload no arithmetic here produces.
const CANARY: u32 = 0x7fc5_a5a5;

#[test]
fn stale_pool_contents_never_reach_a_result_and_writes_stay_in_their_blocks() {
    let mut rng = StdRng::seed_from_u64(103);
    let h = 64;
    let recs: Vec<Tensor> = [30usize, 17, 5, 64, 1].iter().map(|&m| encoding(&mut rng, m, h)).collect();
    let pairs: Vec<(&Tensor, &Tensor)> = vec![(&recs[0], &recs[1]), (&recs[0], &recs[3]), (&recs[2], &recs[4]), (&recs[3], &recs[3])];
    pool::clear();
    let clean = launch(&pairs);

    // Every buffer a launch can draw — the workspace (a power of two), the
    // panel, the [G, h] output, the packed γ — comes back full of canaries.
    let canary = f32::from_bits(CANARY);
    let rows: usize = pairs.iter().map(|p| p.0.rows()).sum();
    pool::clear();
    for len in (0..=16).map(|p| 1usize << p).chain([KC * NC, pairs.len() * h, rows]) {
        pool::put(vec![canary; len]);
    }
    let poisoned = launch(&pairs);
    assert_eq!(bits(clean.0.data()), bits(poisoned.0.data()), "pooled read stale scratch");
    assert_eq!(bits(clean.1.data()), bits(poisoned.1.data()), "gamma read stale scratch");
    assert!(poisoned.0.data().iter().all(|v| v.is_finite()));

    // The panel went back to the pool. The widest `E1` packed was 64 rows of
    // 64 floats in NR-wide strips; nothing past that was written.
    let panel = pool::take_uninit(KC * NC);
    let packed = h * 64usize.next_multiple_of(NR);
    assert!(panel[packed..].iter().all(|v| v.to_bits() == CANARY), "panel written past its strips");
    // The workspace: three m×n blocks, β̄ and γ, and the backward's dγ and
    // dβ̄ — for the largest pair, and not a float more.
    let need: usize = 3 * 64 * 64 + 3 * 64 + 2 * 64;
    let workspace = pool::take_uninit(need.next_power_of_two());
    assert!(workspace[..need].iter().any(|v| v.to_bits() != CANARY), "this is not the buffer the op used");
    assert!(workspace[need..].iter().all(|v| v.to_bits() == CANARY), "workspace written past its blocks");
    pool::clear();
}

#[test]
#[should_panic(expected = "groups cover 5 rows, the node has 4")]
fn a_view_past_its_nodes_rows_panics() {
    let g = Graph::new();
    let e = g.leaf(Tensor::ones(4, 3));
    g.aoa_pool(e, &RowGroups::from_lens(&[2, 3]), e, &RowGroups::from_lens(&[2, 2]));
}

#[test]
#[should_panic(expected = "width mismatch")]
fn operands_of_different_widths_panic() {
    let g = Graph::new();
    let one = RowGroups::from_lens(&[4]);
    g.aoa_pool(g.leaf(Tensor::ones(4, 3)), &one, g.leaf(Tensor::ones(4, 5)), &one);
}

// ----- (d) gradients ----------------------------------------------------------

/// Attention-over-attention of one pair from general tape ops: `[1, h]`.
fn per_pair_reference(g: &Graph, e1: Var, e2: Var) -> Var {
    let interaction = g.matmul_nt(e1, e2);
    let alpha = g.softmax_cols(interaction);
    let beta_bar = g.mean_axis0(g.softmax_rows(interaction));
    let gamma = g.matmul_nt(alpha, beta_bar);
    g.matmul_tn(gamma, e1)
}

fn assert_close(got: &Tensor, want: &Tensor, tol: f32, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (i, (&x, &y)) in got.data().iter().zip(want.data()).enumerate() {
        assert!((x - y).abs() <= tol * (1.0 + y.abs()), "{what}: element {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gradients_match_the_per_pair_composition(
        left_lens in proptest::collection::vec(1usize..9, 1..6), right_lens in proptest::collection::vec(1usize..9, 5),
        h in 1usize..20, seed in 0u64..1000,
    ) {
        let lens: Vec<(usize, usize)> = left_lens.into_iter().zip(right_lens).collect();
        // A packed batch on each side, as the joint forward pass builds it,
        // and a second op that pairs every LEFT record with itself, so that
        // matrix's rows collect gradient from both sides of one op and from
        // two ops.
        let mut rng = StdRng::seed_from_u64(seed);
        let (g1, g2) = (
            RowGroups::from_lens(&lens.iter().map(|l| l.0).collect::<Vec<_>>()),
            RowGroups::from_lens(&lens.iter().map(|l| l.1).collect::<Vec<_>>()),
        );
        let e1 = encoding(&mut rng, g1.total(), h);
        let e2 = encoding(&mut rng, g2.total(), h);
        let weights = Tensor::rand_normal(2 * lens.len(), h, 0.0, 1.0, &mut rng);

        let g = Graph::new();
        let (v1, v2) = (g.leaf(e1.clone()), g.leaf(e2.clone()));
        let (across, _) = g.aoa_pool(v1, &g1, v2, &g2);
        let (own, _) = g.aoa_pool(v1, &g1, v1, &g1);
        let pooled = g.concat_rows(&[across, own]);
        let loss = g.sum_all(g.mul(pooled, g.leaf(weights.clone())));
        let fused = g.backward(loss);

        let r = Graph::new();
        let (r1, r2) = (r.leaf(e1.clone()), r.leaf(e2.clone()));
        let side = |v: Var, groups: &RowGroups, i: usize| {
            let (r0, r1) = groups.range(i);
            r.slice_rows(v, r0, r1)
        };
        let mut rows: Vec<Var> = (0..lens.len()).map(|i| per_pair_reference(&r, side(r1, &g1, i), side(r2, &g2, i))).collect();
        rows.extend((0..lens.len()).map(|i| {
            let own = side(r1, &g1, i);
            per_pair_reference(&r, own, own)
        }));
        let ref_pooled = r.concat_rows(&rows);
        let ref_loss = r.sum_all(r.mul(ref_pooled, r.leaf(weights)));
        let reference = r.backward(ref_loss);

        assert_close(&g.value(pooled), &r.value(ref_pooled), 1e-5, "pooled");
        assert_close(fused.get(v1).unwrap(), reference.get(r1).unwrap(), 1e-5, "dE1");
        assert_close(fused.get(v2).unwrap(), reference.get(r2).unwrap(), 1e-5, "dE2");
    }
}

#[test]
fn backward_is_bit_identical_across_tiers() {
    let mut rng = StdRng::seed_from_u64(105);
    let h = 20;
    let (e1, e2) = (encoding(&mut rng, 13, h), encoding(&mut rng, 9, h));
    let (g1, g2) = (RowGroups::from_lens(&[6, 7]), RowGroups::from_lens(&[4, 5]));
    let run = || {
        let g = Graph::new();
        let (v1, v2) = (g.leaf(e1.clone()), g.leaf(e2.clone()));
        let (pooled, _) = g.aoa_pool(v1, &g1, v2, &g2);
        let grads = g.backward(g.mean_all(g.mul(pooled, pooled)));
        (bits(grads.get(v1).unwrap().data()), bits(grads.get(v2).unwrap().data()))
    };
    let runs = simd::on_every_tier(|_| run());
    let (_, portable) = &runs[0];
    for (tier, grads) in &runs {
        assert_eq!(grads, portable, "{tier:?}");
    }
    // Every row of both sides got some.
    for grad in [&portable.0, &portable.1] {
        assert!(grad.chunks(h).all(|row| row.iter().any(|&b| f32::from_bits(b) != 0.0)));
    }
}

// ----- (e) an empty side ---------------------------------------------------------

#[test]
fn an_empty_side_pools_to_a_zero_row() {
    let mut rng = StdRng::seed_from_u64(106);
    let h = 8;
    let (a, b, empty) = (encoding(&mut rng, 4, h), encoding(&mut rng, 3, h), Tensor::zeros(0, h));
    let pairs = [(&a, &b), (&a, &empty), (&empty, &b), (&empty, &empty), (&a, &b)];
    let (pooled, gamma) = launch(&pairs);
    let (tape_pooled, tape_gamma) = tape(&pairs);
    assert_eq!((bits(tape_pooled.data()), bits(tape_gamma.data())), (bits(pooled.data()), bits(gamma.data())), "tape vs fwd");
    for idx in 1..4 {
        assert!(pooled.row_slice(idx).iter().all(|&v| v == 0.0), "pair {idx} with an empty side");
    }
    // γ of (a, ∅) is four zeros; the pairs around it are untouched by it.
    assert_eq!(gamma.shape(), (12, 1));
    assert!(gamma.data()[4..8].iter().all(|&v| v == 0.0));
    assert_eq!(bits(pooled.row_slice(0)), bits(pooled.row_slice(4)));
    assert_eq!(bits(&gamma.data()[..4]), bits(&gamma.data()[8..]));

    // And no gradient flows from such a pair.
    let g = Graph::new();
    let (va, ve) = (g.leaf(a), g.leaf(empty));
    let (pooled, _) = g.aoa_pool(va, &RowGroups::from_lens(&[4]), ve, &RowGroups::from_lens(&[0]));
    let grads = g.backward(g.sum_all(pooled));
    assert!(grads.get(va).is_none_or(|d| d.data().iter().all(|&v| v == 0.0)));
}

// ----- (f) a non-finite input poisons its own pair only ---------------------------

#[test]
fn a_non_finite_input_poisons_only_the_pairs_that_read_it() {
    let mut rng = StdRng::seed_from_u64(107);
    let h = 16;
    let recs: Vec<Tensor> = (0..5).map(|i| encoding(&mut rng, 4 + 3 * i, h)).collect();
    let order = [(0usize, 1usize), (0, 2), (0, 3), (4, 1), (4, 2)];
    let clean = launch(&order.map(|(i, j)| (&recs[i], &recs[j])));
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for victim in [0usize, 2] {
            let mut data = recs[victim].data().to_vec();
            let at = rng.gen_range(0..data.len());
            data[at] = bad;
            let mut poisoned = recs.clone();
            poisoned[victim] = Tensor::from_vec(recs[victim].rows(), h, data);
            let (pooled, _) = launch(&order.map(|(i, j)| (&poisoned[i], &poisoned[j])));
            for (idx, (i, j)) in order.iter().enumerate() {
                if *i == victim || *j == victim {
                    assert!(pooled.row_slice(idx).iter().any(|v| !v.is_finite()), "{bad} in record {victim}: pair {idx} looks clean");
                } else {
                    assert_eq!(bits(pooled.row_slice(idx)), bits(clean.0.row_slice(idx)), "{bad} in record {victim} reached pair {idx}");
                }
            }
        }
    }
}
