//! What the forward-only paths run on: the one linear dispatch ([`Exec`]:
//! an f32 GEMM epilogue or the int8 tile), which
//! [`BertEncoder::encode_eval`](crate::BertEncoder::encode_eval) and
//! `emba_core`'s pair scorer share, and the encoder's per-launch buffer plan
//! and layer-norm row passes.
//!
//! Nothing here records a tape node. Every op is the tape op's own kernel
//! call on the same operands in the same order — the tape stays the training
//! path and the bit-exact oracle (`tests/eval_bits.rs`) — and reports to the
//! profiler and the non-finite guard under the tape op's name through
//! [`fwd::note`].

use emba_tensor::kernels::{self, Epilogue};
use emba_tensor::quant::{self, QuantizedRows};
use emba_tensor::{fwd, pool, BackendKind};

use crate::layers::{LayerNorm, Linear};

/// The forward-only executor of one launch: its backend, read once, and the
/// int8 path's quantized input.
pub struct Exec {
    quantized: bool,
    /// The activation the last int8 linear read, quantized once for every
    /// linear that reads it (Q, K and V share one), and its tag.
    q8: QuantizedRows,
    q8_input: Option<u32>,
    inputs: u32,
}

impl Exec {
    /// Execution under `backend`, read once here and never per op.
    pub fn new(backend: BackendKind) -> Self {
        Self { quantized: backend.quantized(), q8: QuantizedRows::default(), q8_input: None, inputs: 0 }
    }

    /// Whether `lin` runs int8 — the rule `Linear::forward` applies.
    pub(crate) fn runs_q8(&self, lin: &Linear) -> bool {
        self.quantized && lin.quantizable()
    }

    /// A fresh tag for an activation that linears are about to read: every
    /// linear given the same tag reads the same values, so an int8 input is
    /// quantized once per tag.
    pub fn input(&mut self) -> u32 {
        self.inputs += 1;
        self.inputs
    }

    /// `out = x · W + b` for the `[m, in]` rows `x` (tagged `x_id`), or
    /// `gelu` of it when `pre` is given (the f32 path's pre-activation
    /// scratch; the int8 tile applies GELU in place and ignores it).
    /// The tape's [`Linear::forward`] (or `forward_gelu`) values, bit for
    /// bit, reported under the same op name.
    pub fn linear(&mut self, lin: &Linear, x: &[f32], x_id: u32, out: &mut [f32], pre: Option<&mut [f32]>) {
        let (k, n) = lin.weight.value.shape();
        let m = x.len() / k;
        assert!(x.len() == m * k && out.len() == m * n, "linear: [{}] · {k}x{n} into [{}]", x.len(), out.len());
        let bias = lin.bias.value.data();
        if self.runs_q8(lin) {
            if self.q8_input != Some(x_id) {
                self.q8.requantize_rows(x, (m, k));
                self.q8_input = Some(x_id);
            }
            quant::linear_q8_rows_into(&self.q8, &lin.quantized_weight(), &lin.bias.value, pre.is_some(), out);
            let op = if pre.is_some() { "linear_q8_gelu" } else { "linear_q8" };
            fwd::note(op, out, (m, n), || vec![(m, k)]);
            return;
        }
        let w = lin.weight.value.data();
        let op = match pre {
            Some(pre) => {
                kernels::gemm_strided(m, k, n, x, k, 1, w, n, 1, out, n, Epilogue::BiasGelu { bias, pre });
                "linear_bias_gelu"
            }
            None => {
                kernels::gemm_strided(m, k, n, x, k, 1, w, n, 1, out, n, Epilogue::Bias(bias));
                "linear"
            }
        };
        fwd::note(op, out, (m, n), || vec![(m, k), (k, n), (1, n)]);
    }
}

/// The scratch of one launch over `n` packed rows, every piece sized once
/// from `(ΣT, hidden, ff_dim, heads, W)`. It is one pooled buffer, taken at
/// the start of the launch and returned when the plan drops; the layers
/// ping-pong through its parts (see [`Parts`]).
pub(crate) struct Plan {
    buf: Vec<f32>,
    sizes: [usize; 7],
}

/// A [`Plan`]'s buffers. Per layer: Q, K and V from `x`; the heads' scores
/// from Q and K into `probs`; the context from `probs` and V into `k`; the
/// output projection from `k` into `q`; `x ← LN(x + q)`; the FFN from `x`
/// through `ff` (`pre` holds the f32 pre-activation) into `k`; `x ← LN(x +
/// k)`. `row` is the residual sum of one row.
pub(crate) struct Parts<'a> {
    pub q: &'a mut [f32],
    pub k: &'a mut [f32],
    pub v: &'a mut [f32],
    pub probs: &'a mut [f32],
    pub ff: &'a mut [f32],
    pub pre: &'a mut [f32],
    pub row: &'a mut [f32],
}

impl Plan {
    /// `n` rows of width `hidden`, `heads` score blocks `W` wide, an FFN
    /// `ff_dim` wide, and its pre-activation scratch when `f32_ffn`.
    pub(crate) fn new(n: usize, hidden: usize, ff_dim: usize, heads: usize, w: usize, f32_ffn: bool) -> Self {
        let sizes = [n * hidden, n * hidden, n * hidden, heads * n * w, n * ff_dim, if f32_ffn { n * ff_dim } else { 0 }, hidden];
        // Rounded up, as `aoa_pool`'s workspace is, so the pool holds a
        // handful of sizes rather than one per ΣT.
        Self { buf: pool::take_uninit(sizes.iter().sum::<usize>().next_power_of_two()), sizes }
    }

    pub(crate) fn parts(&mut self) -> Parts<'_> {
        let mut rest = &mut self.buf[..];
        let [q, k, v, probs, ff, pre, row] = self.sizes.map(|len| {
            let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            part
        });
        Parts { q, k, v, probs, ff, pre, row }
    }
}

impl Drop for Plan {
    fn drop(&mut self) {
        pool::put(std::mem::take(&mut self.buf));
    }
}

/// `out = layer_norm(x)`, row by row.
pub(crate) fn layer_norm(ln: &LayerNorm, x: &[f32], out: &mut [f32]) {
    let (gamma, beta) = (ln.gamma.value.data(), ln.beta.value.data());
    let h = gamma.len();
    for (xr, or) in x.chunks_exact(h).zip(out.chunks_exact_mut(h)) {
        kernels::layer_norm_row(xr, gamma, beta, or);
    }
    note_layer_norm(out, h);
}

/// `x ← layer_norm(x + residual)`, row by row: the residual add is folded
/// into the row pass (`row` holds one row's sum) and is no op of its own.
pub(crate) fn add_layer_norm(ln: &LayerNorm, x: &mut [f32], residual: &[f32], row: &mut [f32]) {
    let (gamma, beta) = (ln.gamma.value.data(), ln.beta.value.data());
    let h = row.len();
    for (xr, rr) in x.chunks_exact_mut(h).zip(residual.chunks_exact(h)) {
        for ((s, &a), &b) in row.iter_mut().zip(&*xr).zip(rr) {
            *s = a + b;
        }
        kernels::layer_norm_row(row, gamma, beta, xr);
    }
    note_layer_norm(x, h);
}

fn note_layer_norm(out: &[f32], h: usize) {
    let m = out.len() / h;
    fwd::note("layer_norm", out, (m, h), || vec![(m, h), (1, h), (1, h)]);
}
