//! Forward loops shared by the autodiff tape and the forward-only encoder.
//!
//! Each function here is the one copy of an op's forward arithmetic over
//! plain slices. The tape op ([`Graph::embedding`](crate::Graph::embedding),
//! [`Graph::add`](crate::Graph::add),
//! [`Graph::attention_scores_grouped`](crate::Graph::attention_scores_grouped),
//! [`Graph::matmul_grouped`](crate::Graph::matmul_grouped)) calls it on its
//! parents' values and records a node; `emba_nn`'s forward-only encoder calls
//! it on its own buffers and records only what [`note`] writes. The kernels,
//! their order and their operands are the same, so the tape is the bit-exact
//! oracle of the encoder.

use std::ops::Range;

use crate::groups::RowGroups;
use crate::kernels::{self, Epilogue};
use crate::{guard, prof};

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

/// One head of block-diagonal attention: `q` and `k` are `[ΣT, ld]` packed by
/// `groups` and the head is their column range `cols`; `out` is `[ΣT, W]`
/// (`W = groups.max_len()`) and receives, in the rows of group `g`,
/// `softmax_rows(scale · q_g · k_gᵀ)` in columns `0..T_g` and zeros beyond.
pub fn attention_scores_grouped_into(q: &[f32], k: &[f32], ld: usize, cols: Range<usize>, scale: f32, groups: &RowGroups, out: &mut [f32]) {
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
    let d = ld / probs.len();
    for (r0, r1) in groups.blocks() {
        let t = r1 - r0;
        for (h, p) in probs.iter().enumerate() {
            let at = r0 * ld + h * d;
            kernels::gemm_strided(t, t, d, &p[r0 * w..], w, 1, &v[at..], ld, 1, &mut out[at..], ld, Epilogue::Store);
        }
    }
}
