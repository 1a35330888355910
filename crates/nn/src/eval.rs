//! One forward, two interpreters. The encoder's layers are written once,
//! generic over [`Ops`], and run by either of its two implementations:
//!
//! * [`Tape`] records each op on a [`Graph`] — the training path and the
//!   bit-exact oracle (`tests/eval_bits.rs`);
//! * [`Exec`] runs each op forward only into a pooled [`Buffer`], with no
//!   graph node and no dropout — the serving path, and the one linear
//!   dispatch (an f32 GEMM epilogue or the int8 tile) that `emba_core`'s
//!   pair scorer shares.
//!
//! Every [`Exec`] op is the tape op's own kernel call on the same operands in
//! the same order, and reports to the profiler and the non-finite guard under
//! the tape op's name through [`fwd::note`].

use std::ops::Range;

use emba_tensor::kernels::{self, Epilogue};
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
        if gelu {
            lin.forward_gelu(self.g, *x)
        } else {
            lin.forward(self.g, *x)
        }
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
    pub fn data_mut(&mut self) -> &mut [f32] {
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
    pub fn buffer(&mut self, rows: usize, cols: usize) -> Buffer {
        Buffer { data: pool::take_uninit((rows * cols).next_power_of_two()), rows, cols, tag: self.tag() }
    }

    /// A tag no buffer of this launch has had.
    fn tag(&mut self) -> u32 {
        self.tags += 1;
        self.tags
    }
}

impl Ops for Exec {
    type V = Buffer;

    fn embedding(&mut self, table: &Embedding, ids: &[usize]) -> Buffer {
        let shape = table.weight.value.shape();
        let mut out = self.buffer(ids.len(), shape.1);
        fwd::embedding_into(table.weight.value.data(), shape, ids, out.data_mut());
        fwd::note("embedding", out.data(), out.shape(), || vec![shape]);
        out
    }

    fn add(&mut self, mut a: Buffer, b: Buffer) -> Buffer {
        assert_eq!(a.shape(), b.shape(), "add: shape mismatch");
        fwd::add_assign(a.data_mut(), b.data());
        fwd::note("add", a.data(), a.shape(), || vec![b.shape(); 2]);
        a.tag = self.tag();
        a
    }

    fn layer_norm(&mut self, ln: &LayerNorm, x: Buffer) -> Buffer {
        let (m, h) = x.shape();
        let mut out = self.buffer(m, h);
        let (gamma, beta) = (ln.gamma.value.data(), ln.beta.value.data());
        for (xr, or) in x.data().chunks_exact(h).zip(out.data_mut().chunks_exact_mut(h)) {
            kernels::layer_norm_row(xr, gamma, beta, or);
        }
        note_layer_norm(&out);
        out
    }

    /// The residual add is folded into the row pass and is no op of its own:
    /// each row of `residual` takes the sum, then normalizes into `x`'s row.
    fn add_layer_norm(&mut self, ln: &LayerNorm, mut x: Buffer, mut residual: Buffer) -> Buffer {
        assert_eq!(x.shape(), residual.shape(), "add_layer_norm: shape mismatch");
        let h = x.cols;
        let (gamma, beta) = (ln.gamma.value.data(), ln.beta.value.data());
        for (xr, rr) in x.data_mut().chunks_exact_mut(h).zip(residual.data_mut().chunks_exact_mut(h)) {
            fwd::add_assign(rr, xr);
            kernels::layer_norm_row(rr, gamma, beta, xr);
        }
        note_layer_norm(&x);
        x.tag = self.tag();
        x
    }

    /// The tape's [`Linear::forward`] (or `forward_gelu`) values, bit for
    /// bit, reported under the same op name: the int8 tile, on one
    /// quantization of `x` however many linears read it, when the backend is
    /// quantized and the layer big enough; an f32 GEMM with a bias (or bias
    /// and GELU) epilogue otherwise.
    fn linear(&mut self, lin: &Linear, x: &Buffer, gelu: bool) -> Buffer {
        let (k, n) = lin.weight.value.shape();
        let m = x.rows;
        assert_eq!(x.cols, k, "linear: [{m}, {}] · {k}x{n}", x.cols);
        let mut out = self.buffer(m, n);
        let bias = lin.bias.value.data();
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
        let w = lin.weight.value.data();
        let op = if gelu {
            let mut pre = self.buffer(m, n);
            let epilogue = Epilogue::BiasGelu { bias, pre: pre.data_mut() };
            kernels::gemm_strided(m, k, n, x.data(), k, 1, w, n, 1, out.data_mut(), n, epilogue);
            "linear_bias_gelu"
        } else {
            kernels::gemm_strided(m, k, n, x.data(), k, 1, w, n, 1, out.data_mut(), n, Epilogue::Bias(bias));
            "linear"
        };
        fwd::note(op, out.data(), (m, n), || vec![(m, k), (k, n), (1, n)]);
        out
    }

    fn attention_scores(&mut self, q: &Buffer, k: &Buffer, cols: Range<usize>, scale: f32, groups: &RowGroups) -> Buffer {
        let (n, w, d) = (groups.total(), groups.max_len(), cols.len());
        let mut out = self.buffer(n, w);
        fwd::attention_scores_grouped_into(q.data(), k.data(), q.cols, cols, scale, groups, out.data_mut());
        fwd::note("attention_scores_grouped", out.data(), (n, w), || vec![(n, d); 2]);
        out
    }

    fn attend(&mut self, probs: &[Buffer], v: &Buffer, _dropout: f32, groups: &RowGroups) -> Buffer {
        let (n, ld) = v.shape();
        let mut out = self.buffer(n, ld);
        let heads: Vec<&[f32]> = probs.iter().map(Buffer::data).collect();
        fwd::matmul_grouped_into(&heads, v.data(), ld, groups, out.data_mut());
        fwd::note("matmul_grouped", out.data(), (n, ld), || probs.iter().map(Buffer::shape).chain([(n, ld)]).collect());
        out
    }

    fn dropout(&mut self, x: Buffer, _p: f32) -> Buffer {
        x
    }
}

fn note_layer_norm(out: &Buffer) {
    let (m, h) = out.shape();
    fwd::note("layer_norm", out.data(), (m, h), || vec![(m, h), (1, h), (1, h)]);
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
