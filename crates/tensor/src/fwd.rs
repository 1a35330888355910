//! Forward loops shared by the autodiff tape and the forward-only paths.
//!
//! Each function here is the one copy of an op's forward arithmetic over
//! plain slices. The tape op of the same name ([`Graph::embedding`](crate::Graph::embedding),
//! [`Graph::add`](crate::Graph::add), [`Graph::layer_norm`](crate::Graph::layer_norm),
//! [`Graph::linear`](crate::Graph::linear) with or without GELU,
//! [`Graph::concat_rows`](crate::Graph::concat_rows) and
//! [`Graph::concat_cols`](crate::Graph::concat_cols) through the
//! [`Tensor`](crate::Tensor) methods of those names,
//! [`Graph::attention_scores_grouped`](crate::Graph::attention_scores_grouped),
//! [`Graph::matmul_grouped`](crate::Graph::matmul_grouped),
//! [`Graph::aoa_pool`](crate::Graph::aoa_pool), the grouped reductions and
//! [`Graph::gather_rows`](crate::Graph::gather_rows)) calls it on its
//! parents' values and records a node; `emba_nn`'s forward-only interpreter
//! calls it on its own buffers and records only what [`note`] writes. The
//! ops that are one kernel call or one elementwise map (`matmul`, `softmax_rows`,
//! `mul`, `tanh`, `slice_rows`) call that kernel or map on both sides. The
//! kernels, their order and their operands are the same, so the tape is the
//! bit-exact oracle of both.

use std::ops::Range;

use crate::groups::RowGroups;
use crate::kernels::{self, Epilogue};
use crate::{guard, pool, prof};

/// What the tape does for every op it records, for an op that records no
/// node: the non-finite [`guard`] scan of its output (when enabled) and the
/// [`prof`] row under its tape name, FLOPs estimated from `operands` — the
/// parents' shapes, or the views it charged (only built while profiling).
pub fn note(op: &'static str, out: &[f32], shape: (usize, usize), operands: impl FnOnce() -> Vec<(usize, usize)>) {
    if guard::enabled() && !out.iter().all(|v| v.is_finite()) {
        guard::record(op, shape.0, shape.1);
    }
    if prof::enabled() {
        let flops = prof::estimate_flops(op, &operands(), shape);
        prof::record_op(op, false, 4 * (shape.0 * shape.1) as u64, flops);
    }
}

/// Rows `ids` of a `[vocab, width]` table, in order, into `out`
/// (`ids.len() × width`).
///
/// # Panics
///
/// Panics if an id is not below `vocab` or `out` does not fit.
pub fn embedding_into(table: &[f32], (vocab, width): (usize, usize), ids: &[usize], out: &mut [f32]) {
    assert_eq!(out.len(), ids.len() * width, "embedding: output must be {}x{width}", ids.len());
    for (&id, dst) in ids.iter().zip(out.chunks_exact_mut(width.max(1))) {
        assert!(id < vocab, "embedding id {id} out of range for vocab {vocab}");
        dst.copy_from_slice(&table[id * width..(id + 1) * width]);
    }
}

/// `acc += b`, element by element: each element is the one rounding `a + b`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn add_assign(acc: &mut [f32], b: &[f32]) {
    assert_eq!(acc.len(), b.len(), "add: {} vs {} elements", acc.len(), b.len());
    for (a, &x) in acc.iter_mut().zip(b) {
        *a += x;
    }
}

/// Rows `rows` of the row-major width-`n` matrix `x`, in order, into `out`
/// (`rows.len() × n`).
///
/// # Panics
///
/// Panics if a row is out of bounds.
pub fn gather_rows_into(x: &[f32], n: usize, rows: &[usize], out: &mut [f32]) {
    let m = x.len() / n.max(1);
    for (&r, dst) in rows.iter().zip(out.chunks_exact_mut(n.max(1))) {
        assert!(r < m, "gather_rows: row {r} out of bounds for {m} rows");
        dst.copy_from_slice(&x[r * n..(r + 1) * n]);
    }
}

/// The shape of `parts` (each `(values, (rows, cols))`) stacked top to
/// bottom, or side by side when `side_by_side`, every part checked first.
///
/// # Panics
///
/// Panics if there are no parts, or they differ in width (in height, side
/// by side).
pub fn concat_shape(parts: &[(&[f32], (usize, usize))], side_by_side: bool) -> (usize, usize) {
    let (_, (rows, cols)) = *parts.first().expect("concat requires at least one part");
    let shapes = || parts.iter().map(|p| p.1);
    if side_by_side {
        assert!(shapes().all(|(r, _)| r == rows), "concat_cols: row mismatch {:?}", shapes().collect::<Vec<_>>());
        (rows, shapes().map(|s| s.1).sum())
    } else {
        assert!(shapes().all(|(_, c)| c == cols), "concat_rows: column mismatch {:?}", shapes().collect::<Vec<_>>());
        (shapes().map(|s| s.0).sum(), cols)
    }
}

/// `parts` (each `(values, (rows, cols))`) stacked top to bottom into `out`,
/// or side by side when `side_by_side`: row `r` of `out` is then row `r` of
/// every part in turn. [`concat_shape`] checks the parts and sizes `out`.
pub fn concat_into(parts: &[(&[f32], (usize, usize))], side_by_side: bool, out: &mut [f32]) {
    // Stacking is the side-by-side copy of parts one row tall.
    let rows = if side_by_side { parts[0].1 .0 } else { 1 };
    let mut at = 0;
    for r in 0..rows {
        for (p, _) in parts {
            let w = p.len() / rows;
            out[at..at + w].copy_from_slice(&p[r * w..(r + 1) * w]);
            at += w;
        }
    }
}

/// Each width-`n` row of `x` layer-normalized by `gamma` and `beta` (`n`
/// each) into `out`, and its `(mean, 1/std)` into `stats` when given.
pub fn layer_norm_into(x: &[f32], gamma: &[f32], beta: &[f32], out: &mut [f32], mut stats: Option<&mut [(f32, f32)]>) {
    let n = gamma.len().max(1);
    for (r, (xr, or)) in x.chunks_exact(n).zip(out.chunks_exact_mut(n)).enumerate() {
        let st = kernels::layer_norm_row(xr, gamma, beta, or);
        if let Some(stats) = stats.as_deref_mut() {
            stats[r] = st;
        }
    }
}

/// `x · w + bias` (`[m, k] · [k, n]`, `bias` `n` long) into `out`, the bias
/// added as each GEMM tile leaves its registers; with `pre`, GELU of it, the
/// pre-activation kept in `pre`.
pub fn linear_into(x: &[f32], w: &[f32], (m, k, n): (usize, usize, usize), bias: &[f32], pre: Option<&mut [f32]>, out: &mut [f32]) {
    let epilogue = match pre {
        Some(pre) => Epilogue::BiasGelu { bias, pre },
        None => Epilogue::Bias(bias),
    };
    kernels::gemm_strided(m, k, n, x, k, 1, w, n, 1, out, n, epilogue);
}

/// Each group's mean of the width-`n` rows of `x` packed by `groups`, into
/// `out` (`[G, n]`, every element written): the rows summed in order from
/// zero, then scaled by `1/T`; an empty group's row is zero.
pub fn mean_rows_grouped_into(x: &[f32], n: usize, groups: &RowGroups, out: &mut [f32]) {
    assert_eq!(groups.total() * n, x.len(), "mean_rows_grouped: groups cover {} rows, got {}", groups.total(), x.len() / n.max(1));
    for (gi, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
        let (r0, r1) = groups.range(gi);
        orow.fill(0.0);
        for xrow in x[r0 * n..r1 * n].chunks_exact(n.max(1)) {
            for (o, &v) in orow.iter_mut().zip(xrow) {
                *o += v;
            }
        }
        if r1 > r0 {
            let inv = 1.0 / (r1 - r0) as f32;
            orow.iter_mut().for_each(|o| *o *= inv);
        }
    }
}

/// Each group's `Σ_r w[r] · x[r]` over the width-`n` rows of `x` packed by
/// `groups`, `w` one weight per row, into `out` (`[G, n]`, every element
/// written). A one-row `wᵀ·X` through the GEMM tile would pack `X` and
/// compute six rows to keep one; this is the tile's own FMA chain (`r`
/// ascending from zero) for that row, so it agrees bit for bit with
/// `matmul_tn`.
pub fn weighted_sum_rows_grouped_into(w: &[f32], x: &[f32], n: usize, groups: &RowGroups, out: &mut [f32]) {
    for (gi, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
        let (r0, r1) = groups.range(gi);
        orow.fill(0.0);
        for (&wr, xrow) in w[r0..r1].iter().zip(x[r0 * n..r1 * n].chunks_exact(n.max(1))) {
            for (o, &xv) in orow.iter_mut().zip(xrow) {
                *o = wr.mul_add(xv, *o);
            }
        }
    }
}

/// Each group's segment of the packed column `x` (one value per row)
/// softmaxed in place.
pub fn softmax_col_grouped_in_place(x: &mut [f32], groups: &RowGroups) {
    for (r0, r1) in groups.blocks() {
        kernels::scaled_softmax_in_place(&mut x[r0..r1], 1.0);
    }
}

/// One head of block-diagonal attention: `q` and `k` are `[ΣT, ld]` packed by
/// `groups` and the head is their column range `cols`; `out` is `[ΣT, W]`
/// (`W = groups.max_len()`) and receives, in the rows of group `g`,
/// `softmax_rows(scale · q_g · k_gᵀ)` in columns `0..T_g` and zeros beyond.
pub fn attention_scores_grouped_into(q: &[f32], k: &[f32], ld: usize, cols: Range<usize>, scale: f32, groups: &RowGroups, out: &mut [f32]) {
    assert_eq!(k.len(), q.len(), "attention_scores_grouped: q/k shape mismatch");
    assert!(cols.start < cols.end && cols.end <= ld, "attention_scores_grouped: head {cols:?} outside width {ld}");
    assert_eq!(groups.total() * ld, q.len(), "attention_scores_grouped: groups cover {} rows, q has {}", groups.total(), q.len() / ld);
    let (c0, d) = (cols.start, cols.len());
    let w = groups.max_len();
    for (r0, r1) in groups.blocks() {
        let (t, at) = (r1 - r0, r0 * ld + c0);
        kernels::gemm_strided(t, d, t, &q[at..], ld, 1, &k[at..], 1, ld, &mut out[r0 * w..], w, Epilogue::Store);
        for row in out[r0 * w..r1 * w].chunks_exact_mut(w) {
            kernels::scaled_softmax_in_place(&mut row[..t], scale);
            row[t..].fill(0.0);
        }
    }
}

/// Block-diagonal `probs · values`, all heads: `v` is `[ΣT, ld]` split into
/// `probs.len()` equal column ranges, `probs[h]` is head `h`'s `[ΣT, W]`
/// group-masked probabilities, and `out` (`[ΣT, ld]`) receives `P_{h,g} ·
/// V_{h,g}` in group `g`'s rows of head `h`'s columns — every element of it.
pub fn matmul_grouped_into(probs: &[&[f32]], v: &[f32], ld: usize, groups: &RowGroups, out: &mut [f32]) {
    let w = groups.max_len();
    assert!(!probs.is_empty() && ld.is_multiple_of(probs.len()), "matmul_grouped: {} heads do not divide width {ld}", probs.len());
    assert_eq!(groups.total() * ld, v.len(), "matmul_grouped: groups cover {} rows, got {}", groups.total(), v.len() / ld);
    assert!(probs.iter().all(|p| p.len() == groups.total() * w), "matmul_grouped: probs must be [{}, {w}]", groups.total());
    let d = ld / probs.len();
    for (r0, r1) in groups.blocks() {
        let t = r1 - r0;
        for (h, p) in probs.iter().enumerate() {
            let at = r0 * ld + h * d;
            kernels::gemm_strided(t, t, d, &p[r0 * w..], w, 1, &v[at..], ld, 1, &mut out[at..], ld, Epilogue::Store);
        }
    }
}

/// Attention-over-attention pooling of `G` record pairs: pair `g` is
/// `pairs[g] = (E1, E2)`, row-major `[m, h]` and `[n, h]` token matrices.
/// With `I = E1·E2ᵀ`: `α` = column softmax of `I`, `β` = row softmax, `β̄` =
/// mean of `β`'s rows, `γ = α·β̄ᵀ`, and row `g` of `pooled` (`[G, h]`, every
/// element written) is `γᵀ·E1` — zero if a side is empty. When `gamma` is
/// given (`ΣM` long) it receives every pair's `γ`, pair after pair.
///
/// Pairs run one at a time in one reused workspace, so a launch of any size
/// keeps one pair's `m × n` blocks; a run of pairs whose `E1` is the same
/// slice (a catalog's candidates sorted by left record) shares one packing
/// of it.
///
/// # Panics
///
/// Panics if `pooled` is not `G × h` or an operand is not a whole number of
/// rows.
pub fn aoa_pool_into(pairs: &[(&[f32], &[f32])], h: usize, pooled: &mut [f32], mut gamma: Option<&mut [f32]>) {
    assert_eq!(pooled.len(), pairs.len() * h, "aoa_pool: output must be {}x{h}", pairs.len());
    let mut at = 0;
    aoa_pairs(pairs, h, |idx, ws, e1, _| {
        // `γᵀ·E1` as the GEMM tile's own chain for one row of C: `i`
        // ascending from zero.
        let row = &mut pooled[idx * h..(idx + 1) * h];
        row.fill(0.0);
        for (&gi, e1_row) in ws.gamma.iter().zip(e1.chunks_exact(h.max(1))) {
            for (o, &x) in row.iter_mut().zip(e1_row) {
                *o = gi.mul_add(x, *o);
            }
        }
        if let Some(gamma) = gamma.as_deref_mut() {
            gamma[at..at + ws.gamma.len()].copy_from_slice(ws.gamma);
        }
        at += ws.gamma.len();
    });
}

/// Every pair's operands for [`aoa_pool_into`]: group `g`'s rows of the
/// packed width-`h` `left` (`E1`s laid out by `left_groups`) and of `right`
/// (`E2`s laid out by `right_groups`).
///
/// # Panics
///
/// Panics if there are no pairs, the sides differ in group count, or a
/// side's groups do not cover its rows.
pub fn aoa_operands<'a>(left: &'a [f32], left_groups: &RowGroups, right: &'a [f32], right_groups: &RowGroups, h: usize) -> Vec<(&'a [f32], &'a [f32])> {
    assert!(!left_groups.is_empty(), "aoa_pool: no pairs");
    assert_eq!(left_groups.len(), right_groups.len(), "aoa_pool: {} left vs {} right groups", left_groups.len(), right_groups.len());
    for (side, groups) in [(left, left_groups), (right, right_groups)] {
        assert_eq!(groups.total() * h, side.len(), "aoa_pool: groups cover {} rows, the node has {}", groups.total(), side.len() / h.max(1));
    }
    let rows = |side: &'a [f32], groups: &RowGroups, i: usize| {
        let (r0, r1) = groups.range(i);
        &side[r0 * h..r1 * h]
    };
    (0..left_groups.len()).map(|i| (rows(left, left_groups, i), rows(right, right_groups, i))).collect()
}

/// The workspace of [`aoa_pairs`] at one pair's `m × n`, as that pair's
/// forward leaves it: `αᵀ` (`[n, m]`, softmaxed in place from `Iᵀ`), `α`
/// (`[m, n]`, so each `γ_i` is a dot of two rows), `β` (`[m, n]`, softmaxed in
/// place from `I`), `β̄` (`[n]`), `γ` (`[m]`), and two vectors of scratch for
/// the tape's backward pass.
pub(crate) struct AoaBlocks<'a> {
    pub(crate) it: &'a mut [f32],
    pub(crate) alpha: &'a mut [f32],
    pub(crate) beta: &'a mut [f32],
    pub(crate) beta_bar: &'a mut [f32],
    pub(crate) gamma: &'a mut [f32],
    pub(crate) dgamma: &'a mut [f32],
    pub(crate) dbeta_bar: &'a mut [f32],
}

/// `dst[c*rows + r] = src[r*cols + c]` for a `rows × cols` block.
fn transpose_block(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// AOA's forward, pair by pair: computes each pair into one reused
/// workspace and hands it to `each(index, blocks, E1, E2)` before the next
/// pair overwrites it. [`aoa_pool_into`] and the tape op's backward pass
/// both run this — one implementation, and nothing of a pair outlives its
/// turn.
///
/// The interaction is computed as `Iᵀ = E2·E1ᵀ`, not `I`: `E1` is then the
/// GEMM's packed operand, so consecutive pairs with the same left slice share
/// one [`kernels::PackedPanel`], and `α`'s columns are contiguous rows for
/// [`kernels::scaled_softmax_in_place`]. Either way an element is the chain
/// `fma(E2(j,p), E1(i,p), acc)` over ascending `p`.
pub(crate) fn aoa_pairs(pairs: &[(&[f32], &[f32])], h: usize, mut each: impl FnMut(usize, &mut AoaBlocks<'_>, &[f32], &[f32])) {
    let rows = |e: &[f32]| {
        assert!(e.len().is_multiple_of(h.max(1)), "aoa_pool: {} values are not rows of width {h}", e.len());
        e.len() / h.max(1)
    };
    let dims = |&(e1, e2): &(&[f32], &[f32])| (rows(e1), rows(e2));
    let need = pairs.iter().map(dims).map(|(m, n)| 3 * m * n + 3 * m + 2 * n).max().unwrap_or(0);
    // Rounded up so the pool sees a handful of sizes, not one per batch.
    let mut ws = pool::take_uninit(need.next_power_of_two());
    let mut panel = kernels::PackedPanel::default();
    let mut packed: &[f32] = &[];
    for (idx, pair) in pairs.iter().enumerate() {
        let (e1, e2) = *pair;
        let (m, n) = dims(pair);
        let (it, rest) = ws.split_at_mut(m * n);
        let (alpha, rest) = rest.split_at_mut(m * n);
        let (beta, rest) = rest.split_at_mut(m * n);
        let (beta_bar, rest) = rest.split_at_mut(n);
        let (gamma, rest) = rest.split_at_mut(m);
        let (dgamma, rest) = rest.split_at_mut(m);
        let b = &mut AoaBlocks { it, alpha, beta, beta_bar, gamma, dgamma, dbeta_bar: &mut rest[..n] };
        // A panel holds at most `KC × NC`; a wider or longer `E1` is packed
        // slice by slice inside `gemm_strided` instead.
        let fits = h <= kernels::KC && m <= kernels::NC;
        if fits && !std::ptr::eq(packed, e1) {
            panel.pack(e1, 1, h, h, m);
            packed = e1;
        }
        if m > 0 && n > 0 {
            if fits {
                kernels::gemm_panel(n, e2, h, 1, &panel, b.it, m, Epilogue::Store);
            } else {
                kernels::gemm_strided(n, h, m, e2, h, 1, e1, 1, h, b.it, m, Epilogue::Store);
            }
            transpose_block(b.it, n, m, b.beta);
            for col in b.it.chunks_exact_mut(m) {
                kernels::scaled_softmax_in_place(col, 1.0);
            }
            b.beta_bar.fill(0.0);
            for row in b.beta.chunks_exact_mut(n) {
                kernels::scaled_softmax_in_place(row, 1.0);
                for (o, &v) in b.beta_bar.iter_mut().zip(row.iter()) {
                    *o += v;
                }
            }
            let inv = 1.0 / m as f32;
            b.beta_bar.iter_mut().for_each(|o| *o *= inv);
            transpose_block(b.it, n, m, b.alpha);
            for (o, row) in b.gamma.iter_mut().zip(b.alpha.chunks_exact(n)) {
                *o = kernels::dot(row, b.beta_bar);
            }
        } else {
            b.gamma.fill(0.0);
        }
        each(idx, b, e1, e2);
    }
    pool::put(ws);
}
