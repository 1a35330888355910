//! One forward, two interpreters. The encoder's layers and `emba_core`'s
//! task heads are written once, generic over [`Ops`], and run by either of
//! its two implementations:
//!
//! * [`Tape`] records each op on a [`Graph`] — the training path and the
//!   bit-exact oracle (`tests/eval_bits.rs`);
//! * [`Exec`] runs each op forward only into a pooled [`Buffer`], with no
//!   graph node and no dropout — joint inference and the split path's
//!   encode and pair score.
//!
//! Every [`Exec`] op is the tape op's own forward (a kernel call, a
//! [`fwd`] loop, or a copy) on the same operands in the same order, and
//! reports to the profiler and the non-finite guard under the tape op's name
//! through [`fwd::note`].

use std::ops::Range;

use emba_tensor::kernels;
use emba_tensor::quant::{self, QuantizedRows};
use emba_tensor::{fwd, pool, BackendKind, Graph, RowGroups, Tensor, Var};
use rand::RngCore;

use crate::layers::{dropout, Embedding, LayerNorm, Linear};

/// The ops an encoder forward is written in. `V` is an activation: a
/// row-major `[rows, cols]` matrix owned by the interpreter.
pub trait Ops {
    /// An activation.
    type V;

    /// The rows of `table` for `ids`, `[len(ids), dim]`.
    fn embedding(&mut self, table: &Embedding, ids: &[usize]) -> Self::V;

    /// `a + b`, elementwise.
    fn add(&mut self, a: Self::V, b: Self::V) -> Self::V;

    /// Each row of `x` layer-normalized.
    fn layer_norm(&mut self, ln: &LayerNorm, x: Self::V) -> Self::V;

    /// `layer_norm(x + residual)`: a post-LN residual block's tail.
    fn add_layer_norm(&mut self, ln: &LayerNorm, x: Self::V, residual: Self::V) -> Self::V;

    /// `x · W + b`, or GELU of it when `gelu`.
    fn linear(&mut self, lin: &Linear, x: &Self::V, gelu: bool) -> Self::V;

    /// One head's block-diagonal `softmax(scale · q kᵀ)` over the packed rows
    /// of `groups`, the head being columns `cols` of `q` and `k`: `[ΣT, W]`
    /// with zeros past each sequence's length.
    fn attention_scores(&mut self, q: &Self::V, k: &Self::V, cols: Range<usize>, scale: f32, groups: &RowGroups) -> Self::V;

    /// Every head's `dropout(P_h) · V_h` into its columns of one `[ΣT, H]`
    /// context, block by block.
    fn attend(&mut self, probs: &[Self::V], v: &Self::V, dropout: f32, groups: &RowGroups) -> Self::V;

    /// Inverted dropout with probability `p` while training; `x` otherwise.
    fn dropout(&mut self, x: Self::V, p: f32) -> Self::V;

    /// Rows `rows` of `x`, in order.
    fn gather_rows(&mut self, x: &Self::V, rows: &[usize]) -> Self::V;

    /// Rows `r0..r1` of `x`.
    fn slice_rows(&mut self, x: &Self::V, r0: usize, r1: usize) -> Self::V;

    /// `parts` stacked top to bottom.
    fn concat_rows(&mut self, parts: &[Self::V]) -> Self::V;

    /// `parts` side by side.
    fn concat_cols(&mut self, parts: &[Self::V]) -> Self::V;

    /// The mean of `x`'s rows, `[1, cols]`.
    fn mean_axis0(&mut self, x: &Self::V) -> Self::V;

    /// The mean of each group's rows of `x`, `[G, cols]`.
    fn mean_rows_grouped(&mut self, x: &Self::V, groups: &RowGroups) -> Self::V;

    /// `a · b`.
    fn matmul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// `a · bᵀ`.
    fn matmul_nt(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// `a ⊙ b`, elementwise.
    fn mul(&mut self, a: &Self::V, b: &Self::V) -> Self::V;

    /// `tanh` of each element.
    fn tanh(&mut self, x: Self::V) -> Self::V;

    /// Each row of `x` softmaxed.
    fn softmax_rows(&mut self, x: Self::V) -> Self::V;

    /// Each group's segment of the `[ΣT, 1]` column `x` softmaxed.
    fn softmax_col_grouped(&mut self, x: Self::V, groups: &RowGroups) -> Self::V;

    /// `Σ w[r] · x[r]` over each group's rows, `[G, cols]`, for a `[ΣT, 1]`
    /// column of weights `w`.
    fn weighted_sum_rows_grouped(&mut self, w: &Self::V, x: &Self::V, groups: &RowGroups) -> Self::V;

    /// Attention-over-attention pooling of `G` pairs, pair `g` being group
    /// `g` of `left` against group `g` of `right`: the `[G, h]` pooled rows
    /// and every pair's γ, packed `[ΣM, 1]` (a plain tensor, nothing
    /// differentiates through it).
    fn aoa_pool(&mut self, left: &Self::V, left_groups: &RowGroups, right: &Self::V, right_groups: &RowGroups) -> (Self::V, Tensor);

    /// The values of `x`, read back.
    fn read(&self, x: &Self::V) -> Tensor;
}

/// The training interpreter: each op is a differentiable node on `g`.
pub struct Tape<'a> {
    g: &'a Graph,
    /// The RNG dropout draws from; `None` is eval mode, which draws nothing.
    rng: Option<&'a mut dyn RngCore>,
}

impl<'a> Tape<'a> {
    /// Records on `g`, training (dropout on) when given an `rng`.
    pub fn new(g: &'a Graph, rng: Option<&'a mut dyn RngCore>) -> Self {
        Self { g, rng }
    }
}

impl Ops for Tape<'_> {
    type V = Var;

    fn embedding(&mut self, table: &Embedding, ids: &[usize]) -> Var {
        table.forward(self.g, ids)
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        self.g.add(a, b)
    }

    fn layer_norm(&mut self, ln: &LayerNorm, x: Var) -> Var {
        ln.forward(self.g, x)
    }

    fn add_layer_norm(&mut self, ln: &LayerNorm, x: Var, residual: Var) -> Var {
        ln.forward(self.g, self.g.add(x, residual))
    }

    fn linear(&mut self, lin: &Linear, x: &Var, gelu: bool) -> Var {
        lin.forward(self.g, *x, gelu)
    }

    fn attention_scores(&mut self, q: &Var, k: &Var, cols: Range<usize>, scale: f32, groups: &RowGroups) -> Var {
        self.g.attention_scores_grouped(*q, *k, cols, scale, groups)
    }

    fn attend(&mut self, probs: &[Var], v: &Var, p: f32, groups: &RowGroups) -> Var {
        let dropped: Vec<Var> = probs.iter().map(|&h| self.dropout(h, p)).collect();
        self.g.matmul_grouped(&dropped, *v, groups)
    }

    fn dropout(&mut self, x: Var, p: f32) -> Var {
        match &mut self.rng {
            Some(rng) => dropout(self.g, x, p, true, &mut **rng),
            None => x,
        }
    }

    fn gather_rows(&mut self, x: &Var, rows: &[usize]) -> Var {
        self.g.gather_rows(*x, rows)
    }

    fn slice_rows(&mut self, x: &Var, r0: usize, r1: usize) -> Var {
        self.g.slice_rows(*x, r0, r1)
    }

    fn concat_rows(&mut self, parts: &[Var]) -> Var {
        self.g.concat_rows(parts)
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        self.g.concat_cols(parts)
    }

    fn mean_axis0(&mut self, x: &Var) -> Var {
        self.g.mean_axis0(*x)
    }

    fn mean_rows_grouped(&mut self, x: &Var, groups: &RowGroups) -> Var {
        self.g.mean_rows_grouped(*x, groups)
    }

    fn matmul(&mut self, a: &Var, b: &Var) -> Var {
        self.g.matmul(*a, *b)
    }

    fn matmul_nt(&mut self, a: &Var, b: &Var) -> Var {
        self.g.matmul_nt(*a, *b)
    }

    fn mul(&mut self, a: &Var, b: &Var) -> Var {
        self.g.mul(*a, *b)
    }

    fn tanh(&mut self, x: Var) -> Var {
        self.g.tanh(x)
    }

    fn softmax_rows(&mut self, x: Var) -> Var {
        self.g.softmax_rows(x)
    }

    fn softmax_col_grouped(&mut self, x: Var, groups: &RowGroups) -> Var {
        self.g.softmax_col_grouped(x, groups)
    }

    fn weighted_sum_rows_grouped(&mut self, w: &Var, x: &Var, groups: &RowGroups) -> Var {
        self.g.weighted_sum_rows_grouped(*w, *x, groups)
    }

    fn aoa_pool(&mut self, left: &Var, left_groups: &RowGroups, right: &Var, right_groups: &RowGroups) -> (Var, Tensor) {
        self.g.aoa_pool(*left, left_groups, *right, right_groups)
    }

    fn read(&self, x: &Var) -> Tensor {
        self.g.value(*x)
    }
}

/// The forward-only interpreter of one launch: its backend, read once, and
/// the int8 path's quantized input.
pub struct Exec {
    quantized: bool,
    /// The activation the last int8 linear read, quantized once for every
    /// linear that reads it (Q, K and V share one), and its tag.
    q8: QuantizedRows,
    q8_input: Option<u32>,
    tags: u32,
}

/// An [`Exec`] activation: `[rows, cols]` in a pooled buffer whose length is
/// rounded up to a power of two, so a launch of any token count reuses a
/// handful of pool sizes; it goes back to the pool on drop. Its tag names
/// its values for the int8 input cache: an op that writes a buffer in place
/// gives it a new one.
pub struct Buffer {
    data: Vec<f32>,
    rows: usize,
    cols: usize,
    tag: u32,
}

impl Buffer {
    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The values, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data[..self.rows * self.cols]
    }

    /// The values, row-major, to fill in before any op reads them.
    fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data[..self.rows * self.cols]
    }

    /// The values as a [`Tensor`] of their own.
    pub fn to_tensor(&self) -> Tensor {
        Tensor::from_vec(self.rows, self.cols, self.data().to_vec())
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        pool::put(std::mem::take(&mut self.data));
    }
}

impl Exec {
    /// Execution under `backend`, read once here and never per op.
    pub fn new(backend: BackendKind) -> Self {
        Self { quantized: backend.quantized(), q8: QuantizedRows::default(), q8_input: None, tags: 0 }
    }

    /// A fresh `[rows, cols]` activation with arbitrary contents, for the
    /// caller to overwrite.
    fn buffer(&mut self, rows: usize, cols: usize) -> Buffer {
        Buffer { data: pool::take_uninit((rows * cols).next_power_of_two()), rows, cols, tag: self.tag() }
    }

    /// A tag no buffer of this launch has had.
    fn tag(&mut self) -> u32 {
        self.tags += 1;
        self.tags
    }

    /// A fresh `[rows, cols]` activation that `fill` writes every element
    /// of, reported as the tape's `op` over `operands`.
    fn run(&mut self, op: &'static str, (rows, cols): (usize, usize), operands: impl FnOnce() -> Vec<(usize, usize)>, fill: impl FnOnce(&mut [f32])) -> Buffer {
        let mut out = self.buffer(rows, cols);
        fill(out.data_mut());
        fwd::note(op, out.data(), (rows, cols), operands);
        out
    }

    /// `x` rewritten in place by `f`, reported as the tape's `op` on it; new
    /// values, so a new tag.
    fn in_place(&mut self, op: &'static str, mut x: Buffer, f: impl FnOnce(&mut [f32])) -> Buffer {
        let shape = x.shape();
        f(x.data_mut());
        fwd::note(op, x.data(), shape, || vec![shape]);
        x.tag = self.tag();
        x
    }

    /// Attention-over-attention pooling of `pairs` of row-major width-`h`
    /// token matrices `(E1, E2)`, read where they lie: the `[G, h]` pooled
    /// rows of [`fwd::aoa_pool_into`], and every pair's γ into `gamma` when
    /// given. [`Ops::aoa_pool`] runs it on groups of packed rows, the split
    /// path's pair score on cached encodings.
    pub fn aoa_pool_pairs(&mut self, pairs: &[(&[f32], &[f32])], h: usize, gamma: Option<&mut [f32]>) -> Buffer {
        let rows = |e: &[f32]| (e.len() / h.max(1), h);
        let operands = || pairs.iter().flat_map(|&(e1, e2)| [rows(e1), rows(e2)]).collect();
        self.run("aoa_pool", (pairs.len(), h), operands, |out| fwd::aoa_pool_into(pairs, h, out, gamma))
    }

    /// `parts` stacked by [`fwd::concat_into`], reported as the tape's `op`.
    fn concat(&mut self, op: &'static str, parts: &[Buffer], side_by_side: bool) -> Buffer {
        let views: Vec<_> = parts.iter().map(|p| (p.data(), p.shape())).collect();
        let operands = || views.iter().map(|v| v.1).collect();
        self.run(op, fwd::concat_shape(&views, side_by_side), operands, |out| fwd::concat_into(&views, side_by_side, out))
    }
}

impl Ops for Exec {
    type V = Buffer;

    fn embedding(&mut self, table: &Embedding, ids: &[usize]) -> Buffer {
        let shape = table.weight.value.shape();
        self.run("embedding", (ids.len(), shape.1), || vec![shape], |out| fwd::embedding_into(table.weight.value.data(), shape, ids, out))
    }

    fn add(&mut self, a: Buffer, b: Buffer) -> Buffer {
        assert_eq!(a.shape(), b.shape(), "add: shape mismatch");
        self.in_place("add", a, |a| fwd::add_assign(a, b.data()))
    }

    fn layer_norm(&mut self, ln: &LayerNorm, x: Buffer) -> Buffer {
        let (m, h) = x.shape();
        let (gamma, beta) = (ln.gamma.value.data(), ln.beta.value.data());
        self.run("layer_norm", (m, h), || vec![(m, h), (1, h), (1, h)], |out| fwd::layer_norm_into(x.data(), gamma, beta, out, None))
    }

    /// The residual add is folded into the row pass and is no op of its own:
    /// each row of `residual` takes the sum, then normalizes into `x`'s row.
    fn add_layer_norm(&mut self, ln: &LayerNorm, x: Buffer, mut residual: Buffer) -> Buffer {
        assert_eq!(x.shape(), residual.shape(), "add_layer_norm: shape mismatch");
        let h = x.cols;
        let (gamma, beta) = (ln.gamma.value.data(), ln.beta.value.data());
        self.in_place("layer_norm", x, |x| {
            for (xr, rr) in x.chunks_exact_mut(h).zip(residual.data_mut().chunks_exact_mut(h)) {
                fwd::add_assign(rr, xr);
                kernels::layer_norm_row(rr, gamma, beta, xr);
            }
        })
    }

    /// The tape's [`Linear::forward`] values, bit for bit, reported under
    /// the same op name: the int8 tile, on one quantization of `x` however
    /// many linears read it, when the backend is quantized and the layer big
    /// enough; [`fwd::linear_into`] otherwise.
    fn linear(&mut self, lin: &Linear, x: &Buffer, gelu: bool) -> Buffer {
        let (k, n) = lin.weight.value.shape();
        let m = x.rows;
        assert_eq!(x.cols, k, "linear: [{m}, {}] · {k}x{n}", x.cols);
        let mut out = self.buffer(m, n);
        if self.quantized && lin.quantizable() {
            if self.q8_input != Some(x.tag) {
                self.q8.requantize_rows(x.data(), (m, k));
                self.q8_input = Some(x.tag);
            }
            quant::linear_q8_rows_into(&self.q8, &lin.quantized_weight(), &lin.bias.value, gelu, out.data_mut());
            let op = if gelu { "linear_q8_gelu" } else { "linear_q8" };
            fwd::note(op, out.data(), (m, n), || vec![(m, k)]);
            return out;
        }
        let mut pre = gelu.then(|| self.buffer(m, n));
        fwd::linear_into(x.data(), lin.weight.value.data(), (m, k, n), lin.bias.value.data(), pre.as_mut().map(Buffer::data_mut), out.data_mut());
        let op = if gelu { "linear_bias_gelu" } else { "linear" };
        fwd::note(op, out.data(), (m, n), || vec![(m, k), (k, n), (1, n)]);
        out
    }

    fn attention_scores(&mut self, q: &Buffer, k: &Buffer, cols: Range<usize>, scale: f32, groups: &RowGroups) -> Buffer {
        let (n, d) = (groups.total(), cols.len());
        self.run("attention_scores_grouped", (n, groups.max_len()), || vec![(n, d); 2], |out| {
            fwd::attention_scores_grouped_into(q.data(), k.data(), q.cols, cols, scale, groups, out)
        })
    }

    fn attend(&mut self, probs: &[Buffer], v: &Buffer, _dropout: f32, groups: &RowGroups) -> Buffer {
        let heads: Vec<&[f32]> = probs.iter().map(Buffer::data).collect();
        let operands = || probs.iter().map(Buffer::shape).chain([v.shape()]).collect();
        self.run("matmul_grouped", v.shape(), operands, |out| fwd::matmul_grouped_into(&heads, v.data(), v.cols, groups, out))
    }

    fn dropout(&mut self, x: Buffer, _p: f32) -> Buffer {
        x
    }

    fn gather_rows(&mut self, x: &Buffer, rows: &[usize]) -> Buffer {
        self.run("gather_rows", (rows.len(), x.cols), || vec![x.shape()], |out| fwd::gather_rows_into(x.data(), x.cols, rows, out))
    }

    fn slice_rows(&mut self, x: &Buffer, r0: usize, r1: usize) -> Buffer {
        assert!(r0 <= r1 && r1 <= x.rows, "row slice {r0}..{r1} out of bounds for {} rows", x.rows);
        self.run("slice_rows", (r1 - r0, x.cols), || vec![x.shape()], |out| out.copy_from_slice(&x.data()[r0 * x.cols..r1 * x.cols]))
    }

    fn concat_rows(&mut self, parts: &[Buffer]) -> Buffer {
        self.concat("concat_rows", parts, false)
    }

    fn concat_cols(&mut self, parts: &[Buffer]) -> Buffer {
        self.concat("concat_cols", parts, true)
    }

    /// [`fwd::mean_rows_grouped_into`] over one group: `Tensor::mean_axis0`'s
    /// own loop.
    fn mean_axis0(&mut self, x: &Buffer) -> Buffer {
        let all = RowGroups::from_lens(&[x.rows]);
        self.run("mean_axis0", (1, x.cols), || vec![x.shape()], |out| fwd::mean_rows_grouped_into(x.data(), x.cols, &all, out))
    }

    fn mean_rows_grouped(&mut self, x: &Buffer, groups: &RowGroups) -> Buffer {
        self.run("mean_rows_grouped", (groups.len(), x.cols), || vec![x.shape()], |out| fwd::mean_rows_grouped_into(x.data(), x.cols, groups, out))
    }

    fn matmul(&mut self, a: &Buffer, b: &Buffer) -> Buffer {
        assert_eq!(a.cols, b.rows, "matmul: {:?} · {:?}", a.shape(), b.shape());
        self.run("matmul", (a.rows, b.cols), || vec![a.shape(), b.shape()], |out| kernels::gemm_nn(a.rows, a.cols, b.cols, a.data(), b.data(), out))
    }

    fn matmul_nt(&mut self, a: &Buffer, b: &Buffer) -> Buffer {
        assert_eq!(a.cols, b.cols, "matmul_nt: {:?} · {:?}ᵀ", a.shape(), b.shape());
        self.run("matmul_nt", (a.rows, b.rows), || vec![a.shape(), b.shape()], |out| kernels::gemm_nt(a.rows, a.cols, b.rows, a.data(), b.data(), out))
    }

    fn mul(&mut self, a: &Buffer, b: &Buffer) -> Buffer {
        assert_eq!(a.shape(), b.shape(), "mul: shape mismatch");
        self.run("mul", a.shape(), || vec![a.shape(); 2], |out| {
            for ((o, &x), &y) in out.iter_mut().zip(a.data()).zip(b.data()) {
                *o = x * y;
            }
        })
    }

    fn tanh(&mut self, x: Buffer) -> Buffer {
        self.in_place("tanh", x, |x| x.iter_mut().for_each(|v| *v = v.tanh()))
    }

    fn softmax_rows(&mut self, x: Buffer) -> Buffer {
        let cols = x.cols.max(1);
        self.in_place("softmax_rows", x, |x| x.chunks_exact_mut(cols).for_each(|row| kernels::scaled_softmax_in_place(row, 1.0)))
    }

    fn softmax_col_grouped(&mut self, x: Buffer, groups: &RowGroups) -> Buffer {
        assert_eq!(x.shape(), (groups.total(), 1), "softmax_col_grouped expects a [{}, 1] column", groups.total());
        self.in_place("softmax_col_grouped", x, |x| fwd::softmax_col_grouped_in_place(x, groups))
    }

    fn weighted_sum_rows_grouped(&mut self, w: &Buffer, x: &Buffer, groups: &RowGroups) -> Buffer {
        assert_eq!(w.shape(), (x.rows, 1), "weighted_sum_rows_grouped: weights must be [{}, 1]", x.rows);
        assert_eq!(groups.total(), x.rows, "weighted_sum_rows_grouped: groups cover {} rows, got {}", groups.total(), x.rows);
        let operands = || vec![w.shape(), x.shape()];
        self.run("weighted_sum_rows_grouped", (groups.len(), x.cols), operands, |out| fwd::weighted_sum_rows_grouped_into(w.data(), x.data(), x.cols, groups, out))
    }

    fn aoa_pool(&mut self, left: &Buffer, left_groups: &RowGroups, right: &Buffer, right_groups: &RowGroups) -> (Buffer, Tensor) {
        let h = left.cols;
        assert_eq!(right.cols, h, "aoa_pool: width mismatch {} vs {h}", right.cols);
        let mut gamma = vec![0.0; left_groups.total()];
        let pooled = self.aoa_pool_pairs(&fwd::aoa_operands(left.data(), left_groups, right.data(), right_groups, h), h, Some(&mut gamma));
        (pooled, Tensor::from_vec(gamma.len(), 1, gamma))
    }

    fn read(&self, x: &Buffer) -> Tensor {
        x.to_tensor()
    }
}

/// Head 0 + head 1 + … of per-head `[rows, W]` probabilities, in head order:
/// the one sum behind [`MultiHeadAttention::summed_probs`](crate::MultiHeadAttention::summed_probs)
/// and the forward-only encoder's attention.
pub fn sum_heads<'a>(mut heads: impl Iterator<Item = &'a [f32]>, rows: usize) -> Tensor {
    let first = heads.next().expect("no attention probabilities recorded");
    let mut total = Tensor::from_vec(rows, first.len() / rows, first.to_vec());
    for head in heads {
        for (t, &p) in total.data_mut().iter_mut().zip(head) {
            *t += p;
        }
    }
    total
}
