//! Reverse-mode automatic differentiation over a single-use tape.
//!
//! A [`Graph`] records every operation executed during a forward pass. Each
//! recorded node keeps its output tensor, the indices of its parents, and a
//! boxed closure that maps the gradient of the node's output to gradient
//! contributions for each parent. [`Graph::backward`] walks the tape in
//! reverse insertion order (which is a valid reverse topological order,
//! because parents are always recorded before children) and accumulates
//! gradients for every node.
//!
//! Graphs are cheap to create; the training loop in `emba-core` builds one
//! per row-packed sub-batch and accumulates parameter gradients across an
//! optimizer window. The tape is the training path and the oracle of the
//! forward-only encoder and pair scorer, which run the same forward loops
//! ([`crate::fwd`]) without recording anything.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::Rng;

use crate::groups::RowGroups;
use crate::kernels::Epilogue;
use crate::quant::{QuantizedMatrix, QuantizedRows};
use crate::tensor::Tensor;
use crate::{fwd, kernels, pool, prof, quant, simd};

/// One xorshift64 step (Marsaglia's 13/7/17 triple). It is linear over
/// GF(2)^64, so `n` steps are one 64 x 64 bit matrix `T^n`: that is how
/// [`dropout_span`] starts and skips its lanes.
const fn xorshift_step(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The uniform 24-bit draw of a stepped state: the top bits of its
/// xorshift64* product. As an `f32` it is `draw · 2^-24`, in `[0, 1)`.
#[inline(always)]
fn draw24(x: u64) -> u32 {
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as u32
}

/// A 64 x 64 matrix over GF(2), column `i` the image of bit `i`.
type Gf2 = [u64; 64];

const fn gf2_apply(m: &Gf2, x: u64) -> u64 {
    let mut acc = 0;
    let mut i = 0;
    while i < 64 {
        if (x >> i) & 1 == 1 {
            acc ^= m[i];
        }
        i += 1;
    }
    acc
}

/// `a · b`: `b`, then `a`.
const fn gf2_mul(a: &Gf2, b: &Gf2) -> Gf2 {
    let mut c = [0u64; 64];
    let mut j = 0;
    while j < 64 {
        c[j] = gf2_apply(a, b[j]);
        j += 1;
    }
    c
}

/// `T^n`, by squaring.
const fn xorshift_pow(mut n: usize) -> Gf2 {
    let mut base = [0u64; 64];
    let mut acc = [0u64; 64];
    let mut i = 0;
    while i < 64 {
        base[i] = xorshift_step(1 << i);
        acc[i] = 1 << i;
        i += 1;
    }
    while n > 0 {
        if n & 1 == 1 {
            acc = gf2_mul(&acc, &base);
        }
        base = gf2_mul(&base, &base);
        n >>= 1;
    }
    acc
}

/// Independent xorshift states the dropout stream runs side by side, and
/// the run of consecutive elements each covers per round: one `u64` of
/// keep bits.
const LANES: usize = 16;
const BLOCK: usize = 64;
const ROUND: usize = LANES * BLOCK;
const _: () = assert!(BLOCK == u64::BITS as usize, "a lane's block is one u64 of keep bits");

/// Column `i` of `T^(l·BLOCK)` at `[i][l]`: lane `l` starts at
/// `T^(l·BLOCK)(seed)`.
static LANE_START: [[u64; LANES]; 64] = {
    let mut t = [[0u64; LANES]; 64];
    let mut l = 0;
    while l < LANES {
        let m = xorshift_pow(l * BLOCK);
        let mut i = 0;
        while i < 64 {
            t[i][l] = m[i];
            i += 1;
        }
        l += 1;
    }
    t
};

/// `T^((LANES-1)·BLOCK)`: from the end of a lane's block to the start of
/// its block in the next round, past the other lanes' blocks.
static ROUND_SKIP: Gf2 = xorshift_pow((LANES - 1) * BLOCK);

/// `m` applied to every lane, as one branch-free pass over the columns.
fn gf2_apply_lanes(m: &Gf2, s: &[u64; LANES]) -> [u64; LANES] {
    let mut acc = [0u64; LANES];
    for (i, &col) in m.iter().enumerate() {
        for (a, &x) in acc.iter_mut().zip(s) {
            *a ^= col & ((x >> i) & 1).wrapping_neg();
        }
    }
    acc
}

/// Inverted dropout of `src` into `dst` with the xorshift64* mask of `seed`:
/// element `i` is kept, as `src[i] · scale`, when the draw of the state
/// `i + 1` steps past `seed` is under `keep · 2^24` (that is, when the draw
/// as an `f32` in `[0, 1)` is under `keep`), and zeroed otherwise.
///
/// The serial stream is a chain of dependent steps; this computes the same
/// mask on [`LANES`] independent states, stepped side by side in SIMD
/// registers. In each round of [`ROUND`] elements lane `l` runs the `l`-th
/// block of [`BLOCK`]: it starts at `T^(l·BLOCK)(seed)` and skips
/// `T^((LANES-1)·BLOCK)` between rounds. A lane's keep decisions for its
/// block are the bits of one `u64` (`BLOCK` is 64), so no draw has to move
/// between lanes. The tail after the last full round continues serially
/// from the last lane, which ends that round exactly where the serial chain
/// would be.
fn dropout_span(seed: u64, keep: f32, scale: f32, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "dropout_span: length mismatch");
    // `draw · 2^-24 < keep` ⟺ `draw < keep · 2^24` (exact in f32) ⟺
    // `draw < ceil(keep · 2^24)`, since the draw is an integer.
    let thr = (keep * (1u32 << 24) as f32).ceil() as u32;
    let rounds = src.len() / ROUND;
    let mut state = seed;
    if rounds > 0 {
        let mut lanes = [0u64; LANES];
        for (i, cols) in LANE_START.iter().enumerate() {
            let bit = ((seed >> i) & 1).wrapping_neg();
            for (s, &col) in lanes.iter_mut().zip(cols) {
                *s ^= col & bit;
            }
        }
        for (r, (dst, src)) in dst.chunks_exact_mut(ROUND).zip(src.chunks_exact(ROUND)).enumerate() {
            if r > 0 {
                lanes = gf2_apply_lanes(&ROUND_SKIP, &lanes);
            }
            let mut kept = [0u64; LANES];
            for b in 0..BLOCK {
                for (k, s) in kept.iter_mut().zip(lanes.iter_mut()) {
                    *s = xorshift_step(*s);
                    *k |= u64::from(draw24(*s) < thr) << b;
                }
            }
            for ((dst, src), &k) in dst.chunks_exact_mut(BLOCK).zip(src.chunks_exact(BLOCK)).zip(&kept) {
                for (b, (o, &x)) in dst.iter_mut().zip(src).enumerate() {
                    *o = if (k >> b) & 1 == 1 { x * scale } else { 0.0 };
                }
            }
        }
        state = lanes[LANES - 1];
    }
    let done = rounds * ROUND;
    for (o, &x) in dst[done..].iter_mut().zip(&src[done..]) {
        state = xorshift_step(state);
        *o = if draw24(state) < thr { x * scale } else { 0.0 };
    }
}

/// Handle to a node recorded on a [`Graph`].
///
/// A `Var` is only meaningful for the graph that created it; using it with a
/// different graph is a logic error that panics on out-of-bounds access or
/// silently reads the wrong node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

/// Receives gradient contributions for the parents of a node, indexed by the
/// parent's position in the node's parent list.
///
/// Ops whose parent gradient is dense (most of them) build a tensor and hand
/// it over with [`GradSink::add`]. Ops that only touch a *region* of the
/// parent (slices, gathers, embeddings) use [`GradSink::accum`] instead and
/// write straight into the accumulation buffer, which avoids materializing a
/// mostly-zero parent-shaped temporary per contribution.
pub trait GradSink {
    /// Adds `grad` to the accumulated gradient of the parent at `pos`.
    fn add(&mut self, pos: usize, grad: Tensor);

    /// Hands `f` the parent's `rows × cols` gradient accumulation buffer
    /// (zero-initialized the first time the parent is touched). `f` must
    /// *add* its contribution — other children of the same parent may have
    /// deposited gradient there already.
    fn accum(&mut self, pos: usize, rows: usize, cols: usize, f: &mut dyn FnMut(&mut [f32]));
}

type BackwardFn = Box<dyn Fn(&Tensor, &mut dyn GradSink)>;

struct Node {
    /// Tape-op name, kept so the backward sweep can attribute its time to
    /// the op that recorded the node (profiler) by name.
    op: &'static str,
    value: Tensor,
    parents: Vec<usize>,
    backward: Option<BackwardFn>,
    /// A pooled buffer other than `value` that `backward` captured (the FFN
    /// pre-activation): the tape holds the second handle so
    /// [`Graph::recycle`] can return it to the pool.
    saved: Option<Tensor>,
    /// The operand shapes the profiler charges FLOPs by, when the op read
    /// views of its parents (an attention head's columns, an AOA pair's
    /// groups) rather than whole parents. Built only while profiling.
    charged: Option<Vec<(usize, usize)>>,
}

/// A single-use reverse-mode autodiff tape.
///
/// All operation methods take `&self`; interior mutability keeps call sites
/// ergonomic while the tape grows.
pub struct Graph {
    id: u64,
    nodes: RefCell<Vec<Node>>,
    /// The node the last `linear_q8` read, quantized: the next one to read
    /// the same node (K and V after Q) multiplies these rows again instead of
    /// quantizing the input a second time, and the next one to read another
    /// node quantizes into the same buffer. Gone with the tape.
    q8_input: RefCell<(Option<usize>, QuantizedRows)>,
}

/// Gradients produced by [`Graph::backward`], addressable by [`Var`].
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the backward root with respect to `v`, if `v`
    /// participated in the computation.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }

    /// Hands every uniquely-owned gradient buffer back to the scratch
    /// [`pool`]. Call after copying what you need (e.g. accumulating into
    /// parameter `.grad` fields); shared buffers are left untouched.
    pub fn recycle(self) {
        for g in self.grads.into_iter().flatten() {
            g.recycle();
        }
    }
}

/// The [`GradSink`] used by [`Graph::backward`]: routes contributions into
/// the per-node gradient slots, accumulating when a parent already has one.
struct TapeSink<'a> {
    parents: &'a [usize],
    grads: &'a mut [Option<Tensor>],
}

impl GradSink for TapeSink<'_> {
    fn add(&mut self, pos: usize, grad: Tensor) {
        let pid = self.parents[pos];
        match &mut self.grads[pid] {
            Some(existing) => {
                existing.add_scaled_in_place(&grad, 1.0);
                grad.recycle();
            }
            slot @ None => *slot = Some(grad),
        }
    }

    fn accum(&mut self, pos: usize, rows: usize, cols: usize, f: &mut dyn FnMut(&mut [f32])) {
        let pid = self.parents[pos];
        let slot = &mut self.grads[pid];
        let t = slot.get_or_insert_with(|| Tensor::zeros(rows, cols));
        assert_eq!(
            t.shape(),
            (rows, cols),
            "accum: parent gradient is {:?}, op expected {rows}x{cols}",
            t.shape()
        );
        f(t.data_mut());
    }
}

impl Default for Graph {
    fn default() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Self { id: NEXT_ID.fetch_add(1, Ordering::Relaxed), nodes: RefCell::default(), q8_input: RefCell::default() }
    }
}

impl Graph {
    /// Creates an empty tape with a fresh [`Graph::id`].
    pub fn new() -> Self {
        Self::default()
    }

    /// This tape's identity, shared by no other `Graph` of the process:
    /// what a [`Var`] cached off the tape is keyed by.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a leaf (input or parameter) node.
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push("leaf", value, vec![], None)
    }

    /// The forward value of `v` (O(1) buffer share).
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.0].value.clone()
    }

    /// Shape of the forward value of `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.0].value.shape()
    }

    fn push(&self, op: &'static str, value: Tensor, parents: Vec<usize>, backward: Option<BackwardFn>) -> Var {
        self.push_node(op, value, parents, None, None, backward)
    }

    /// [`Graph::push`] for an op whose backward closure captured a pooled
    /// tensor besides `value` (`saved` holds a clone of it) or that read
    /// views of its parents (`charged` holds their shapes).
    fn push_node(
        &self,
        op: &'static str,
        value: Tensor,
        parents: Vec<usize>,
        saved: Option<Tensor>,
        charged: Option<Vec<(usize, usize)>>,
        backward: Option<BackwardFn>,
    ) -> Var {
        // The op's kernel already ran (its output is `value`): the guard
        // scans it and the profiler's self-time is the delta from the
        // previous event, which is exactly this op's compute inside a forward
        // pass. Disabled cost is the two `enabled()` checks.
        fwd::note(op, value.data(), value.shape(), || {
            charged.clone().unwrap_or_else(|| {
                let nodes = self.nodes.borrow();
                parents.iter().map(|&p| nodes[p].value.shape()).collect()
            })
        });
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            op,
            value,
            parents,
            backward,
            saved,
            charged,
        });
        Var(nodes.len() - 1)
    }

    // ----- elementwise arithmetic ------------------------------------------------

    /// Elementwise `a + b` (same shape).
    pub fn add(&self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "add: shape mismatch {:?} vs {:?}", va.shape(), vb.shape());
        let mut out = pool::take_uninit(va.len());
        out.copy_from_slice(va.data());
        fwd::add_assign(&mut out, vb.data());
        self.push("add",
            Tensor::from_vec(va.rows(), va.cols(), out),
            vec![a.0, b.0],
            Some(Box::new(|g, sink| {
                sink.add(0, g.clone());
                sink.add(1, g.clone());
            })),
        )
    }

    /// Elementwise `a - b` (same shape).
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let out = self.value(a).sub(&self.value(b));
        self.push("sub",
            out,
            vec![a.0, b.0],
            Some(Box::new(|g, sink| {
                sink.add(0, g.clone());
                sink.add(1, g.scale(-1.0));
            })),
        )
    }

    /// Elementwise (Hadamard) `a ⊙ b` (same shape).
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let va = self.value(a);
        let vb = self.value(b);
        let out = va.mul(&vb);
        self.push("mul",
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g, sink| {
                sink.add(0, g.mul(&vb));
                sink.add(1, g.mul(&va));
            })),
        )
    }

    /// `a * s` for a compile-time constant `s` (no gradient flows to `s`).
    pub fn scale(&self, a: Var, s: f32) -> Var {
        let out = self.value(a).scale(s);
        self.push("scale",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| sink.add(0, g.scale(s)))),
        )
    }

    // ----- matrix products -------------------------------------------------------

    /// Matrix product `a · b`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let va = self.value(a);
        let vb = self.value(b);
        let out = va.matmul(&vb);
        self.push("matmul",
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g, sink| {
                sink.add(0, g.matmul_nt(&vb));
                sink.add(1, va.matmul_tn(g));
            })),
        )
    }

    /// `a · bᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, a: Var, b: Var) -> Var {
        let va = self.value(a);
        let vb = self.value(b);
        let out = va.matmul_nt(&vb);
        self.push("matmul_nt",
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g, sink| {
                sink.add(0, g.matmul(&vb));
                sink.add(1, g.matmul_tn(&va));
            })),
        )
    }

    /// `aᵀ · b` without materializing the transpose.
    pub fn matmul_tn(&self, a: Var, b: Var) -> Var {
        let va = self.value(a);
        let vb = self.value(b);
        let out = va.matmul_tn(&vb);
        self.push("matmul_tn",
            out,
            vec![a.0, b.0],
            Some(Box::new(move |g, sink| {
                sink.add(0, vb.matmul_nt(g));
                sink.add(1, va.matmul(g));
            })),
        )
    }

    // ----- fused ops -------------------------------------------------------------
    //
    // Each fused op records ONE tape node for a sequence the layers used to
    // record as two or three, which saves the intermediate value tensors, the
    // boxed closures, and the extra full passes over the data in both
    // directions.

    /// Fused affine map `x · w + bias`, recorded as `linear`, or with `gelu`
    /// `gelu(x · w + bias)`, recorded as `linear_bias_gelu`: one node instead
    /// of a product, a bias add and a GELU. The GELU's pre-activation is
    /// saved for the backward pass.
    ///
    /// `bias` must be a `[1, n]` row matching the width of `w`.
    pub fn linear(&self, x: Var, w: Var, bias: Var, gelu: bool) -> Var {
        let (vx, vw, vb) = (self.value(x), self.value(w), self.value(bias));
        let (m, k, n) = affine_shape(&vx, &vw, &vb);
        let mut out = pool::take_uninit(m * n);
        let mut pre = gelu.then(|| pool::take_uninit(m * n));
        fwd::linear_into(vx.data(), vw.data(), (m, k, n), vb.data(), pre.as_deref_mut(), &mut out);
        let pre = pre.map(|pre| Tensor::from_vec(m, n, pre));
        self.push_node(if gelu { "linear_bias_gelu" } else { "linear" },
            Tensor::from_vec(m, n, out),
            vec![x.0, w.0, bias.0],
            pre.clone(),
            None,
            Some(Box::new(move |g, sink| {
                // Through GELU first: the gradient at the pre-activation.
                let dh = pre.as_ref().map(|pre| gelu_backward(pre, g));
                let d = dh.as_ref().unwrap_or(g);
                sink.add(0, d.matmul_nt(&vw));
                sink.add(1, vx.matmul_tn(d));
                sink.add(2, col_sums(d));
                dh.into_iter().for_each(Tensor::recycle);
            })),
        )
    }

    /// Quantized affine map `x · dequant(w) + bias`, recorded as
    /// `linear_q8`, or with `gelu` its GELU, recorded as `linear_q8_gelu`, on
    /// the int8 GEMM path of [`quant`] (inference only).
    ///
    /// The weight is a pre-quantized int8 matrix, not a tape node, and the
    /// op records **no backward closure**: a backward sweep treats it like a
    /// leaf and produces no gradient. Training must run under the f32
    /// backend; `emba-nn`'s `Linear` only emits this op when the installed
    /// [`BackendKind`](crate::BackendKind) is quantized.
    pub fn linear_q8(&self, x: Var, w: &QuantizedMatrix, bias: &Tensor, gelu: bool) -> Var {
        let out = {
            let mut input = self.q8_input.borrow_mut();
            // A node's value never changes once recorded, so its index is
            // the whole key.
            if input.0 != Some(x.0) {
                input.1.requantize(&self.value(x));
                input.0 = Some(x.0);
            }
            quant::linear_q8_rows(&input.1, w, bias, gelu)
        };
        self.push(if gelu { "linear_q8_gelu" } else { "linear_q8" }, out, vec![x.0], None)
    }

    /// Matrix transpose.
    pub fn transpose(&self, a: Var) -> Var {
        let out = self.value(a).transpose();
        self.push("transpose",
            out,
            vec![a.0],
            Some(Box::new(|g, sink| sink.add(0, g.transpose()))),
        )
    }

    // ----- nonlinearities ----------------------------------------------------------

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let out = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        let y = out.clone();
        self.push("sigmoid",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                sink.add(0, g.zip(&y, |gi, yi| gi * yi * (1.0 - yi)));
            })),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let out = self.value(a).map(f32::tanh);
        let y = out.clone();
        self.push("tanh",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                sink.add(0, g.zip(&y, |gi, yi| gi * (1.0 - yi * yi)));
            })),
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        let vx = self.value(a);
        let out = vx.map(|x| x.max(0.0));
        self.push("relu",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                sink.add(0, g.zip(&vx, |gi, xi| if xi > 0.0 { gi } else { 0.0 }));
            })),
        )
    }

    /// GELU with the tanh approximation used by BERT.
    pub fn gelu(&self, a: Var) -> Var {
        let vx = self.value(a);
        let out = gelu_of(&vx);
        self.push("gelu",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| sink.add(0, gelu_backward(&vx, g)))),
        )
    }

    // ----- softmax family ------------------------------------------------------------

    /// Softmax over each row.
    pub fn softmax_rows(&self, a: Var) -> Var {
        let out = self.value(a).softmax_rows();
        let p = out.clone();
        self.push("softmax_rows",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                sink.add(0, softmax_rows_backward(g, &p));
            })),
        )
    }

    /// Softmax over each column.
    pub fn softmax_cols(&self, a: Var) -> Var {
        let out = self.value(a).softmax_cols();
        let p = out.clone();
        self.push("softmax_cols",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                let (m, n) = g.shape();
                let mut dx = pool::take_uninit(m * n);
                kernels::softmax_cols_backward(m, n, g.data(), p.data(), &mut dx);
                sink.add(0, Tensor::from_vec(m, n, dx));
            })),
        )
    }

    // ----- normalization -----------------------------------------------------------

    /// Per-row layer normalization with learned scale and shift:
    /// `y = gamma ⊙ (x - mean)/sqrt(var + eps) + beta`.
    ///
    /// `gamma` and `beta` must be `[1, n]` rows matching the width of `x`.
    pub fn layer_norm(&self, x: Var, gamma: Var, beta: Var) -> Var {
        let vx = self.value(x);
        let vg = self.value(gamma);
        let vb = self.value(beta);
        let (m, n) = vx.shape();
        assert_eq!(vg.shape(), (1, n), "layer_norm: gamma must be [1,{n}]");
        assert_eq!(vb.shape(), (1, n), "layer_norm: beta must be [1,{n}]");

        let mut out = pool::take_uninit(m * n);
        // Per row `(mean, 1/std)`: with `x` itself (already on the tape) that
        // is everything the backward needs, so no normalized copy is saved.
        let mut stats = vec![(0.0f32, 0.0f32); m];
        fwd::layer_norm_into(vx.data(), vg.data(), vb.data(), &mut out, Some(&mut stats));

        self.push("layer_norm",
            Tensor::from_vec(m, n, out),
            vec![x.0, gamma.0, beta.0],
            Some(Box::new(move |g, sink| {
                let (m, n) = g.shape();
                let mut dx = pool::take_uninit(m * n);
                let mut dgamma = pool::take(n);
                let mut dbeta = pool::take(n);
                for (((grow, xrow), &(mean, istd)), drow) in g
                    .data()
                    .chunks_exact(n.max(1))
                    .zip(vx.data().chunks_exact(n.max(1)))
                    .zip(&stats)
                    .zip(dx.chunks_exact_mut(n.max(1)))
                {
                    kernels::layer_norm_row_backward(
                        grow, xrow, vg.data(), mean, istd, drow, &mut dgamma, &mut dbeta,
                    );
                }
                sink.add(0, Tensor::from_vec(m, n, dx));
                sink.add(1, Tensor::from_vec(1, n, dgamma));
                sink.add(2, Tensor::from_vec(1, n, dbeta));
            })),
        )
    }

    // ----- gather / structure ops --------------------------------------------------

    /// Gathers rows `ids` of an embedding matrix: `[V, h] -> [len(ids), h]`.
    ///
    /// The backward pass scatter-adds the output gradient into the rows of
    /// the weight gradient.
    pub fn embedding(&self, weight: Var, ids: &[usize]) -> Var {
        let vw = self.value(weight);
        let (v, h) = vw.shape();
        let mut out = pool::take_uninit(ids.len() * h);
        fwd::embedding_into(vw.data(), (v, h), ids, &mut out);
        let out = Tensor::from_vec(ids.len(), h, out);
        let ids = ids.to_vec();
        self.push("embedding",
            out,
            vec![weight.0],
            Some(Box::new(move |g, sink| {
                sink.accum(0, v, h, &mut |data| {
                    for (row, &id) in ids.iter().enumerate() {
                        let src = g.row_slice(row);
                        let dst = &mut data[id * h..(id + 1) * h];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                });
            })),
        )
    }

    /// Mean over rows: `[m, n] -> [1, n]`.
    pub fn mean_axis0(&self, a: Var) -> Var {
        let va = self.value(a);
        let m = va.rows();
        let out = va.mean_axis0();
        self.push("mean_axis0",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                let scaled = g.scale(1.0 / m as f32);
                let parts: Vec<&Tensor> = (0..m).map(|_| &scaled).collect();
                sink.add(0, Tensor::concat_rows(&parts));
            })),
        )
    }

    /// Sum of all elements, producing a `[1, 1]` scalar.
    pub fn sum_all(&self, a: Var) -> Var {
        let va = self.value(a);
        let (m, n) = va.shape();
        let out = Tensor::scalar(va.sum());
        self.push("sum_all",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                sink.add(0, Tensor::full(m, n, g.item()));
            })),
        )
    }

    /// Mean of all elements, producing a `[1, 1]` scalar.
    pub fn mean_all(&self, a: Var) -> Var {
        let va = self.value(a);
        let (m, n) = va.shape();
        let count = (m * n).max(1) as f32;
        let out = Tensor::scalar(va.mean());
        self.push("mean_all",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                sink.add(0, Tensor::full(m, n, g.item() / count));
            })),
        )
    }

    /// Vertically stacks variables with identical widths.
    pub fn concat_rows(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows requires at least one input");
        let values: Vec<Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let out = Tensor::concat_rows(&refs);
        let row_counts: Vec<usize> = values.iter().map(|t| t.rows()).collect();
        self.push("concat_rows",
            out,
            parts.iter().map(|p| p.0).collect(),
            Some(Box::new(move |g, sink| {
                let mut r = 0;
                for (i, &rc) in row_counts.iter().enumerate() {
                    sink.add(i, g.slice_rows(r, r + rc));
                    r += rc;
                }
            })),
        )
    }

    /// Horizontally stacks variables with identical heights.
    pub fn concat_cols(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols requires at least one input");
        let values: Vec<Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let out = Tensor::concat_cols(&refs);
        let col_counts: Vec<usize> = values.iter().map(|t| t.cols()).collect();
        self.push("concat_cols",
            out,
            parts.iter().map(|p| p.0).collect(),
            Some(Box::new(move |g, sink| {
                let mut c = 0;
                for (i, &cc) in col_counts.iter().enumerate() {
                    sink.add(i, g.slice_cols(c, c + cc));
                    c += cc;
                }
            })),
        )
    }

    /// Rows `[r0, r1)` of `a`.
    pub fn slice_rows(&self, a: Var, r0: usize, r1: usize) -> Var {
        let va = self.value(a);
        let (m, n) = va.shape();
        let out = va.slice_rows(r0, r1);
        self.push("slice_rows",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                sink.accum(0, m, n, &mut |data| {
                    for (d, &s) in data[r0 * n..r1 * n].iter_mut().zip(g.data()) {
                        *d += s;
                    }
                });
            })),
        )
    }

    /// Columns `[c0, c1)` of `a`.
    pub fn slice_cols(&self, a: Var, c0: usize, c1: usize) -> Var {
        let va = self.value(a);
        let (m, n) = va.shape();
        let out = va.slice_cols(c0, c1);
        let w = c1 - c0;
        self.push("slice_cols",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                sink.accum(0, m, n, &mut |data| {
                    for r in 0..m {
                        let dst = &mut data[r * n + c0..r * n + c1];
                        for (d, &s) in dst.iter_mut().zip(&g.row_slice(r)[..w]) {
                            *d += s;
                        }
                    }
                });
            })),
        )
    }

    // ----- grouped (batched) ops ---------------------------------------------------
    //
    // The batched execution layer packs several variable-length sequences
    // into one row-packed `[ΣT, H]` matrix and describes the per-sequence row
    // ranges with a [`RowGroups`]. The ops below apply their per-sequence
    // computation block-diagonally: attention cannot cross group boundaries,
    // softmaxes are masked to each group's valid prefix, and reductions run
    // per group. Score-like outputs use a padded width `W = max group len`
    // with structurally-zero columns beyond each group's width; gradients for
    // those columns are never read or written.

    /// Gathers arbitrary rows of `a`: `[m, n] -> [len(rows), n]`.
    ///
    /// Replaces per-example `slice_rows` storms on the batched path (CLS/SEP
    /// extraction, per-pair record splits). The backward pass scatter-adds
    /// straight into the parent's gradient accumulation buffer.
    pub fn gather_rows(&self, a: Var, rows: &[usize]) -> Var {
        let va = self.value(a);
        let (m, n) = va.shape();
        let mut out = pool::take_uninit(rows.len() * n);
        fwd::gather_rows_into(va.data(), n, rows, &mut out);
        let out = Tensor::from_vec(rows.len(), n, out);
        let rows = rows.to_vec();
        self.push("gather_rows",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                sink.accum(0, m, n, &mut |data| {
                    for (i, &r) in rows.iter().enumerate() {
                        let src = g.row_slice(i);
                        let dst = &mut data[r * n..(r + 1) * n];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                });
            })),
        )
    }

    /// Block-diagonal fused attention scores over packed rows, for one head.
    ///
    /// `q` and `k` are `[ΣT, H]` packed by `groups` and the head is their
    /// column range `cols` — a view, read in place (`0..H` for a single
    /// head). The output is `[ΣT, W]` (`W = groups.max_len()`) where the
    /// rows of group `g` hold `softmax_rows(scale · q_g · k_gᵀ)` in columns
    /// `0..T_g` and zeros beyond — sequences cannot attend across the batch
    /// by construction.
    pub fn attention_scores_grouped(&self, q: Var, k: Var, cols: Range<usize>, scale: f32, groups: &RowGroups) -> Var {
        let vq = self.value(q);
        let vk = self.value(k);
        let (nrows, ld) = vq.shape();
        let (c0, d) = (cols.start, cols.len());
        let w = groups.max_len();
        let mut out = pool::take_uninit(nrows * w);
        fwd::attention_scores_grouped_into(vq.data(), vk.data(), ld, cols, scale, groups, &mut out);
        let out = Tensor::from_vec(nrows, w, out);
        let p = out.clone();
        let groups = groups.clone();
        self.push_node("attention_scores_grouped",
            out,
            vec![q.0, k.0],
            None,
            prof::enabled().then(|| vec![(nrows, d); 2]),
            Some(Box::new(move |g, sink| {
                // Softmax JVP per group into one packed [Σ T²] buffer, then a
                // pair of GEMMs per group that add into the head's columns of
                // the parents' gradients.
                let mut ds_all = pool::take_uninit(groups.blocks().map(|(r0, r1)| (r1 - r0).pow(2)).sum());
                let mut off = 0;
                for (r0, r1) in groups.blocks() {
                    let t = r1 - r0;
                    for (r, ds) in (r0..r1).zip(ds_all[off..off + t * t].chunks_exact_mut(t)) {
                        kernels::softmax_row_backward_scaled(&g.data()[r * w..r * w + t], &p.data()[r * w..r * w + t], scale, ds);
                    }
                    off += t * t;
                }
                // dQ_g += dS_g · K_g and dK_g += dS_gᵀ · Q_g.
                for (pos, other, transposed) in [(0, &vk, false), (1, &vq, true)] {
                    sink.accum(pos, nrows, ld, &mut |dst| {
                        let mut off = 0;
                        for (r0, r1) in groups.blocks() {
                            let (t, at) = (r1 - r0, r0 * ld + c0);
                            let (ds, (rs, cs)) = (&ds_all[off..off + t * t], if transposed { (1, t) } else { (t, 1) });
                            kernels::gemm_strided(t, t, d, ds, rs, cs, &other.data()[at..], ld, 1, &mut dst[at..], ld, Epilogue::Add);
                            off += t * t;
                        }
                    });
                }
                pool::put(ds_all);
            })),
        )
    }

    /// Block-diagonal `probs · values` over packed rows, all heads at once.
    ///
    /// `v` is `[ΣT, H]` packed values, split into `probs.len()` equal column
    /// ranges (heads); `probs[h]` is head `h`'s `[ΣT, W]` group-masked
    /// attention probabilities. The output is `[ΣT, H]`: group `g`'s rows of
    /// head `h`'s columns are `P_{h,g} · V_{h,g}`, each written in place — no
    /// per-head tensors are sliced out or concatenated back.
    pub fn matmul_grouped(&self, probs: &[Var], v: Var, groups: &RowGroups) -> Var {
        let vps: Vec<Tensor> = probs.iter().map(|&p| self.value(p)).collect();
        let vv = self.value(v);
        let (nrows, ld) = vv.shape();
        let w = groups.max_len();
        let d = ld / vps.len();
        let mut out = pool::take_uninit(nrows * ld);
        let probs_data: Vec<&[f32]> = vps.iter().map(Tensor::data).collect();
        fwd::matmul_grouped_into(&probs_data, vv.data(), ld, groups, &mut out);
        let out = Tensor::from_vec(nrows, ld, out);
        let groups = groups.clone();
        let heads = vps.len();
        self.push("matmul_grouped",
            out,
            probs.iter().chain([&v]).map(|p| p.0).collect(),
            Some(Box::new(move |g, sink| {
                for (h, vp) in vps.iter().enumerate() {
                    // dP_{h,g} += dO_{h,g} · V_{h,g}ᵀ.
                    sink.accum(h, nrows, w, &mut |dp| {
                        for (r0, r1) in groups.blocks() {
                            let (t, at) = (r1 - r0, r0 * ld + h * d);
                            kernels::gemm_strided(t, d, t, &g.data()[at..], ld, 1, &vv.data()[at..], 1, ld, &mut dp[r0 * w..], w, Epilogue::Add);
                        }
                    });
                    // dV_{h,g} += P_{h,g}ᵀ · dO_{h,g}.
                    sink.accum(heads, nrows, ld, &mut |dv| {
                        for (r0, r1) in groups.blocks() {
                            let (t, at) = (r1 - r0, r0 * ld + h * d);
                            kernels::gemm_strided(t, t, d, &vp.data()[r0 * w..], 1, w, &g.data()[at..], ld, 1, &mut dv[at..], ld, Epilogue::Add);
                        }
                    });
                }
            })),
        )
    }

    /// Attention-over-attention pooling of `G` record pairs in one op.
    ///
    /// Pair `g` is group `g` of `left` (`E1: [m, h]`, its rows laid out by
    /// `left_groups`) against group `g` of `right` (`E2: [n, h]`), read in
    /// place. Row `g` of the `[G, h]` result is `γᵀ·E1`, computed by
    /// [`fwd::aoa_pool_into`]. Returns it with every pair's `γ` packed as
    /// `[ΣM, 1]` — a plain tensor, nothing differentiates through it. Nothing
    /// else of a pair is kept: the backward pass re-runs the forward.
    ///
    /// # Panics
    ///
    /// Panics if there are no pairs, the sides differ in group count, a
    /// side's groups do not cover its node's rows, or the widths differ.
    pub fn aoa_pool(&self, left: Var, left_groups: &RowGroups, right: Var, right_groups: &RowGroups) -> (Var, Tensor) {
        let (v1, v2) = (self.value(left), self.value(right));
        let h = v1.cols();
        assert_eq!(v2.cols(), h, "aoa_pool: width mismatch {} vs {h}", v2.cols());
        let (lg, rg) = (left_groups.clone(), right_groups.clone());
        let mut pooled = pool::take_uninit(lg.len() * h);
        let mut gamma = pool::take_uninit(lg.total());
        fwd::aoa_pool_into(&fwd::aoa_operands(v1.data(), &lg, v2.data(), &rg, h), h, &mut pooled, Some(&mut gamma));
        let gamma = Tensor::from_vec(gamma.len(), 1, gamma);
        let charged = prof::enabled().then(|| (0..lg.len()).flat_map(|i| [(lg.len_of(i), h), (rg.len_of(i), h)]).collect());
        let pooled = self.push_node("aoa_pool",
            Tensor::from_vec(lg.len(), h, pooled),
            vec![left.0, right.0],
            Some(gamma.clone()),
            charged,
            Some(Box::new(move |g, sink| {
                fwd::aoa_pairs(&fwd::aoa_operands(v1.data(), &lg, v2.data(), &rg, h), h, |idx, ws, e1, e2| {
                    let (m, n) = (ws.gamma.len(), ws.beta_bar.len());
                    if m == 0 || n == 0 {
                        return;
                    }
                    let dx = g.row_slice(idx);
                    // dγ = E1·dx, dβ̄ = αᵀ·dγ; every row of β receives dβ̄/m.
                    for (d, e1_row) in ws.dgamma.iter_mut().zip(e1.chunks_exact(h.max(1))) {
                        *d = kernels::dot(e1_row, dx);
                    }
                    ws.dbeta_bar.fill(0.0);
                    for (&dg, a_row) in ws.dgamma.iter().zip(ws.alpha.chunks_exact(n)) {
                        for (d, &a) in ws.dbeta_bar.iter_mut().zip(a_row) {
                            *d = dg.mul_add(a, *d);
                        }
                    }
                    // dI = α ⊙ (dα − colsum(dα ⊙ α)) + β ⊙ (dβ − rowsum(dβ ⊙ β))
                    // with dα = dγ·β̄ᵀ, whose column sums are β̄ ⊙ dβ̄. It
                    // overwrites αᵀ, which nothing below reads.
                    let inv_m = 1.0 / m as f32;
                    let di = &mut *ws.it;
                    for (i, ((di_row, a_row), b_row)) in
                        di.chunks_exact_mut(n).zip(ws.alpha.chunks_exact(n)).zip(ws.beta.chunks_exact(n)).enumerate()
                    {
                        let rho = kernels::dot(b_row, ws.dbeta_bar) * inv_m;
                        for c in 0..n {
                            let via_alpha = a_row[c] * ws.beta_bar[c] * (ws.dgamma[i] - ws.dbeta_bar[c]);
                            di_row[c] = via_alpha + b_row[c] * (ws.dbeta_bar[c] * inv_m - rho);
                        }
                    }
                    // dE1 += γ·dxᵀ + dI·E2 and dE2 += dIᵀ·E1, at the groups' rows.
                    sink.accum(0, v1.rows(), h, &mut |d| {
                        let d = &mut d[lg.start(idx) * h..];
                        for (&gi, d_row) in ws.gamma.iter().zip(d.chunks_exact_mut(h.max(1))) {
                            for (o, &x) in d_row.iter_mut().zip(dx) {
                                *o = gi.mul_add(x, *o);
                            }
                        }
                        kernels::gemm_strided(m, n, h, di, n, 1, e2, h, 1, d, h, Epilogue::Add);
                    });
                    sink.accum(1, v2.rows(), h, &mut |d| {
                        kernels::gemm_strided(n, m, h, di, 1, n, e1, h, 1, &mut d[rg.start(idx) * h..], h, Epilogue::Add);
                    });
                });
            })),
        );
        (pooled, gamma)
    }

    /// Per-group mean over rows: `[ΣT, n] -> [G, n]`.
    pub fn mean_rows_grouped(&self, x: Var, groups: &RowGroups) -> Var {
        let vx = self.value(x);
        let (ma, n) = vx.shape();
        let gcount = groups.len();
        let mut out = pool::take_uninit(gcount * n);
        fwd::mean_rows_grouped_into(vx.data(), n, groups, &mut out);
        let out = Tensor::from_vec(gcount, n, out);
        let groups = groups.clone();
        self.push("mean_rows_grouped",
            out,
            vec![x.0],
            Some(Box::new(move |g, sink| {
                sink.accum(0, ma, n, &mut |dx| {
                    for gi in 0..groups.len() {
                        let (r0, r1) = groups.range(gi);
                        let t = r1 - r0;
                        if t == 0 {
                            continue;
                        }
                        let inv = 1.0 / t as f32;
                        let grow = g.row_slice(gi);
                        for r in r0..r1 {
                            for (d, &s) in dx[r * n..(r + 1) * n].iter_mut().zip(grow) {
                                *d += s * inv;
                            }
                        }
                    }
                });
            })),
        )
    }

    /// Per-group weighted sum of rows: `w: [ΣT, 1]`, `x: [ΣT, n]` →
    /// `[G, n]` with `out[g] = Σ_{r ∈ g} w[r] · x[r]`
    /// ([`fwd::weighted_sum_rows_grouped_into`]). This is the batched form
    /// of `weightsᵀ · tokens` pooling (the token-aggregation head).
    pub fn weighted_sum_rows_grouped(&self, wv: Var, x: Var, groups: &RowGroups) -> Var {
        let vw = self.value(wv);
        let vx = self.value(x);
        let (ma, n) = vx.shape();
        assert_eq!(vw.shape(), (ma, 1), "weighted_sum_rows_grouped: weights must be [{ma}, 1]");
        assert_eq!(groups.total(), ma, "weighted_sum_rows_grouped: groups cover {} rows, got {ma}", groups.total());
        let gcount = groups.len();
        let mut out = pool::take_uninit(gcount * n);
        fwd::weighted_sum_rows_grouped_into(vw.data(), vx.data(), n, groups, &mut out);
        let out = Tensor::from_vec(gcount, n, out);
        let groups = groups.clone();
        self.push("weighted_sum_rows_grouped",
            out,
            vec![wv.0, x.0],
            Some(Box::new(move |g, sink| {
                sink.accum(0, ma, 1, &mut |dw| {
                    for gi in 0..groups.len() {
                        let (r0, r1) = groups.range(gi);
                        let grow = g.row_slice(gi);
                        for (d, r) in dw[r0..r1].iter_mut().zip(r0..) {
                            *d += kernels::dot(grow, &vx.data()[r * n..(r + 1) * n]);
                        }
                    }
                });
                sink.accum(1, ma, n, &mut |dx| {
                    for gi in 0..groups.len() {
                        let (r0, r1) = groups.range(gi);
                        let grow = g.row_slice(gi);
                        for r in r0..r1 {
                            let wv = vw.data()[r];
                            for (d, &s) in dx[r * n..(r + 1) * n].iter_mut().zip(grow) {
                                *d += wv * s;
                            }
                        }
                    }
                });
            })),
        )
    }

    /// Per-group softmax down a packed column: `x: [ΣT, 1]` → `[ΣT, 1]`
    /// where each group's segment is softmaxed independently (the batched
    /// form of the token-attention head's score normalization).
    pub fn softmax_col_grouped(&self, x: Var, groups: &RowGroups) -> Var {
        let vx = self.value(x);
        let (ma, n) = vx.shape();
        assert_eq!(n, 1, "softmax_col_grouped expects a [m, 1] column, got {ma}x{n}");
        assert_eq!(groups.total(), ma, "softmax_col_grouped: groups cover {} rows, got {ma}", groups.total());
        let mut out = pool::take_uninit(ma);
        out.copy_from_slice(vx.data());
        fwd::softmax_col_grouped_in_place(&mut out, groups);
        let out = Tensor::from_vec(ma, 1, out);
        let p = out.clone();
        let groups = groups.clone();
        self.push("softmax_col_grouped",
            out,
            vec![x.0],
            Some(Box::new(move |g, sink| {
                sink.accum(0, ma, 1, &mut |dx| {
                    for gi in 0..groups.len() {
                        let (r0, r1) = groups.range(gi);
                        let gs = &g.data()[r0..r1];
                        let ps = &p.data()[r0..r1];
                        let s = kernels::dot(gs, ps);
                        for ((d, &gv), &pv) in dx[r0..r1].iter_mut().zip(gs).zip(ps) {
                            *d += pv * (gv - s);
                        }
                    }
                });
            })),
        )
    }

    /// Inverted dropout: with probability `p` an element is zeroed, surviving
    /// elements are scaled by `1/(1-p)`. `p = 0` records a cheap identity
    /// node.
    ///
    /// The mask is never materialized: one `u64` seed is drawn from `rng` per
    /// node and the xorshift64* stream of that seed decides keep/drop while
    /// the scaled copy is written (`dropout_span`, which runs the serial
    /// stream on independent lanes). The backward pass replays the same
    /// stream over the upstream gradient, so the only saved state is the
    /// seed.
    pub fn dropout<R: Rng + ?Sized>(&self, a: Var, p: f32, rng: &mut R) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1), got {p}");
        if p == 0.0 {
            // Identity; still record a node so callers can treat train/eval
            // uniformly.
            let out = self.value(a);
            return self.push("dropout",
                out,
                vec![a.0],
                Some(Box::new(|g, sink| sink.add(0, g.clone()))),
            );
        }
        let va = self.value(a);
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let seed = rng.next_u64() | 1; // xorshift state must be non-zero
        let (rows, cols) = va.shape();
        let mut out = pool::take_uninit(va.len());
        dropout_span(seed, keep, scale, va.data(), &mut out);
        let out = Tensor::from_vec(rows, cols, out);
        self.push("dropout",
            out,
            vec![a.0],
            Some(Box::new(move |g, sink| {
                let mut dx = pool::take_uninit(g.len());
                dropout_span(seed, keep, scale, g.data(), &mut dx);
                sink.add(0, Tensor::from_vec(g.rows(), g.cols(), dx));
            })),
        )
    }

    // ----- losses --------------------------------------------------------------------

    /// Mean cross-entropy between row logits and integer class targets.
    ///
    /// `logits` is `[m, C]`; `targets` has length `m` with values `< C`.
    pub fn cross_entropy(&self, logits: Var, targets: &[usize]) -> Var {
        self.cross_entropy_weighted(logits, targets, None)
    }

    /// Cross-entropy with optional per-class weights (used to reproduce
    /// DeepMatcher's positive/negative class weighting). The loss is the
    /// weighted mean `Σ w_yi · nll_i / Σ w_yi`.
    pub fn cross_entropy_weighted(
        &self,
        logits: Var,
        targets: &[usize],
        class_weights: Option<&[f32]>,
    ) -> Var {
        let vx = self.value(logits);
        let (m, c) = vx.shape();
        assert_eq!(targets.len(), m, "cross_entropy: {m} logit rows but {} targets", targets.len());
        if let Some(w) = class_weights {
            assert_eq!(w.len(), c, "cross_entropy: {c} classes but {} class weights", w.len());
        }

        // Stable log-softmax + NLL, plus the softmax probabilities for the
        // backward pass.
        let mut probs = vec![0.0f32; m * c];
        let mut loss = 0.0f64;
        let mut weight_sum = 0.0f64;
        let mut sample_w = vec![0.0f32; m];
        for r in 0..m {
            let row = vx.row_slice(r);
            let t = targets[r];
            assert!(t < c, "cross_entropy: target {t} out of range for {c} classes");
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let lse = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln() + max;
            for (o, &x) in probs[r * c..(r + 1) * c].iter_mut().zip(row) {
                *o = (x - lse).exp();
            }
            let w = class_weights.map_or(1.0, |ws| ws[t]);
            sample_w[r] = w;
            loss += f64::from(w) * f64::from(lse - row[t]);
            weight_sum += f64::from(w);
        }
        let weight_sum = weight_sum.max(f64::EPSILON);
        let out = Tensor::scalar((loss / weight_sum) as f32);
        let probs = Tensor::from_vec(m, c, probs);
        let targets = targets.to_vec();
        let inv_wsum = (1.0 / weight_sum) as f32;
        self.push("cross_entropy",
            out,
            vec![logits.0],
            Some(Box::new(move |g, sink| {
                let scale = g.item() * inv_wsum;
                let mut dx = probs.clone();
                {
                    let data = dx.data_mut();
                    for (r, &t) in targets.iter().enumerate() {
                        let w = sample_w[r];
                        for cc in 0..c {
                            let onehot = if cc == t { 1.0 } else { 0.0 };
                            data[r * c + cc] = w * scale * (data[r * c + cc] - onehot);
                        }
                    }
                }
                sink.add(0, dx);
            })),
        )
    }

    /// Mean binary cross-entropy with logits. `logits` is `[m, 1]`; `targets`
    /// holds `m` values in `[0, 1]`.
    ///
    /// Uses the standard stable formulation
    /// `max(z, 0) - z·y + ln(1 + e^(-|z|))`.
    pub fn bce_with_logits(&self, logits: Var, targets: &[f32]) -> Var {
        let vx = self.value(logits);
        let (m, n) = vx.shape();
        assert_eq!(n, 1, "bce_with_logits expects [m, 1] logits, got {m}x{n}");
        assert_eq!(targets.len(), m, "bce_with_logits: {m} logits but {} targets", targets.len());
        let mut loss = 0.0f64;
        for (r, &y) in targets.iter().enumerate() {
            let z = vx.get(r, 0);
            loss += f64::from(z.max(0.0) - z * y + (-z.abs()).exp().ln_1p());
        }
        let out = Tensor::scalar((loss / m as f64) as f32);
        let targets = targets.to_vec();
        self.push("bce_with_logits",
            out,
            vec![logits.0],
            Some(Box::new(move |g, sink| {
                let scale = g.item() / m as f32;
                let dx = (0..m)
                    .map(|r| {
                        let z = vx.get(r, 0);
                        let p = 1.0 / (1.0 + (-z).exp());
                        scale * (p - targets[r])
                    })
                    .collect();
                sink.add(0, Tensor::from_vec(m, 1, dx));
            })),
        )
    }

    // ----- backward ------------------------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a `[1, 1]` tensor.
    pub fn backward(&self, root: Var) -> Gradients {
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[root.0].value.shape(),
            (1, 1),
            "backward root must be a scalar"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[root.0] = Some(Tensor::scalar(1.0));

        // Profiler: re-arm the self-time mark so setup cost between the last
        // forward op and this sweep is not billed to the first backward op.
        let prof_on = prof::enabled();
        if prof_on {
            prof::set_mark();
        }
        for idx in (0..=root.0).rev() {
            let Some(g) = grads[idx].take() else { continue };
            let node = &nodes[idx];
            if let Some(backward) = &node.backward {
                let parents = &node.parents;
                let mut sink = TapeSink { parents, grads: &mut grads };
                backward(&g, &mut sink);
                if prof_on {
                    let parent_shapes: Vec<(usize, usize)> = parents.iter().map(|&p| nodes[p].value.shape()).collect();
                    let grad_bytes = parent_shapes.iter().map(|&(r, c)| 4 * (r * c) as u64).sum();
                    // Backward of a node costs roughly two forward passes
                    // (one product per parent for GEMM-family ops).
                    let charged = node.charged.as_ref().unwrap_or(&parent_shapes);
                    let flops = 2 * prof::estimate_flops(node.op, charged, node.value.shape());
                    prof::record_op(node.op, true, grad_bytes, flops);
                }
            }
            grads[idx] = Some(g);
        }
        Gradients { grads }
    }

    /// Consumes the tape and hands every uniquely-owned forward buffer back
    /// to the scratch [`pool`], so the next example's tape allocates nothing.
    ///
    /// Backward closures hold `Arc` clones of saved activations, so they are
    /// all dropped before any value is offered to the pool; leaf values that
    /// are still shared (parameters, cached inputs) are left untouched.
    pub fn recycle(self) {
        let mut nodes = self.nodes.into_inner();
        for node in &mut nodes {
            node.backward = None;
        }
        for node in nodes {
            node.value.recycle();
            if let Some(t) = node.saved {
                t.recycle();
            }
        }
    }
}

/// Jacobian-vector product of a row softmax: `dx = p ⊙ (g − rowdot(g, p))`,
/// computed into a pooled scratch buffer.
fn softmax_rows_backward(g: &Tensor, p: &Tensor) -> Tensor {
    let (m, n) = g.shape();
    let mut dx = pool::take_uninit(m * n);
    kernels::softmax_rows_backward_scaled(m, n, g.data(), p.data(), 1.0, &mut dx);
    Tensor::from_vec(m, n, dx)
}

/// Checks the operands of `x · w + bias` and returns the GEMM's `(m, k, n)`.
fn affine_shape(x: &Tensor, w: &Tensor, bias: &Tensor) -> (usize, usize, usize) {
    let (m, k) = x.shape();
    let n = w.cols();
    assert_eq!(
        k,
        w.rows(),
        "linear: {}x{} · {}x{} inner dimensions disagree",
        m,
        k,
        w.rows(),
        n
    );
    assert_eq!(bias.shape(), (1, n), "linear: bias must be [1,{n}]");
    (m, k, n)
}

/// Elementwise GELU of `x` into a pooled buffer.
fn gelu_of(x: &Tensor) -> Tensor {
    let mut out = pool::take_uninit(x.len());
    out.copy_from_slice(x.data());
    simd::gelu_span(&mut out);
    Tensor::from_vec(x.rows(), x.cols(), out)
}

/// `g ⊙ gelu'(x)` into a pooled buffer.
fn gelu_backward(x: &Tensor, g: &Tensor) -> Tensor {
    let mut dx = pool::take_uninit(x.len());
    simd::gelu_grad_span(x.data(), g.data(), &mut dx);
    Tensor::from_vec(x.rows(), x.cols(), dx)
}

/// Column sums of `g` as a `[1, n]` row (the bias gradient).
fn col_sums(g: &Tensor) -> Tensor {
    let (m, n) = g.shape();
    let mut out = pool::take(n);
    for r in 0..m {
        for (o, &v) in out.iter_mut().zip(g.row_slice(r)) {
            *o += v;
        }
    }
    Tensor::from_vec(1, n, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() <= 1e-4 * (1.0 + a.abs().max(b.abs()))
    }

    /// The serial definition of the dropout stream: advance the xorshift64*
    /// state one step per element and map its draw to a uniform `f32` in
    /// `[0, 1)` (top 24 bits); the element is kept when that is under `keep`.
    fn xorshift_unit(state: &mut u64) -> f32 {
        *state = xorshift_step(*state);
        draw24(*state) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    fn dropout_serial(seed: u64, keep: f32, scale: f32, src: &[f32]) -> Vec<f32> {
        let mut state = seed;
        src.iter().map(|&x| if xorshift_unit(&mut state) < keep { x * scale } else { 0.0 }).collect()
    }

    #[test]
    fn dropout_lanes_are_the_serial_stream() {
        let mut rng = StdRng::seed_from_u64(5);
        let lens = [0, 1, ROUND - 1, ROUND, ROUND + 1, 3 * ROUND + 37, 300 * 128];
        let seeds = [1, 3, 0x9E37_79B9_7F4A_7C15, (1 << 63) | 1, u64::MAX];
        for &n in &lens {
            let src: Vec<f32> = (0..n).map(|_| rng.gen_range(0.5f32..2.0)).collect();
            for &seed in &seeds {
                for p in [0.1f32, 0.5] {
                    let keep = 1.0 - p;
                    let scale = 1.0 / keep;
                    let want = dropout_serial(seed, keep, scale, &src);
                    let mut got = vec![f32::NAN; n];
                    dropout_span(seed, keep, scale, &src, &mut got);
                    let first = got.iter().zip(&want).position(|(a, b)| a.to_bits() != b.to_bits());
                    assert_eq!(first, None, "first differing element: n {n}, seed {seed:#x}, p {p}");
                }
            }
        }
    }

    #[test]
    fn dropout_backward_replays_the_lane_mask() {
        // Three full rounds plus a tail, nonzero inputs (a zero output means
        // "dropped") and a non-uniform upstream gradient `w`.
        let mut rng = StdRng::seed_from_u64(8);
        let (rows, cols) = (3 * ROUND / 64 + 1, 64);
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(0.5f32..2.0)).collect()));
        let w = Tensor::rand_uniform(rows, cols, 2.0, &mut rng);
        let y = g.dropout(x, 0.3, &mut rng);
        let loss = g.sum_all(g.mul(y, g.leaf(w.clone())));
        let grads = g.backward(loss);
        let (vx, vy, dx) = (g.value(x), g.value(y), grads.get(x).unwrap());
        let scale = 1.0 / (1.0 - 0.3f32);
        let mut kept = 0;
        for i in 0..rows * cols {
            let (xv, yv, wv, dv) = (vx.data()[i], vy.data()[i], w.data()[i], dx.data()[i]);
            if yv == 0.0 {
                assert_eq!(dv.to_bits(), 0f32.to_bits(), "dropped element {i}");
            } else {
                assert_eq!(yv.to_bits(), (xv * scale).to_bits(), "kept element {i}");
                assert_eq!(dv.to_bits(), (wv * scale).to_bits(), "kept element {i} gradient");
                kept += 1;
            }
        }
        assert!(kept > rows * cols / 2 && kept < rows * cols, "kept {kept} of {}", rows * cols);
    }

    #[test]
    fn linear_chain_gradient() {
        // loss = sum(2 * x) -> d/dx = 2 everywhere.
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]));
        let y = g.scale(x, 2.0);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn fanout_accumulates_gradients() {
        // loss = sum(x + x) -> d/dx = 2.
        let g = Graph::new();
        let x = g.leaf(Tensor::ones(1, 3));
        let y = g.add(x, x);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn mul_product_rule() {
        let g = Graph::new();
        let a = g.leaf(Tensor::row(&[2.0, 3.0]));
        let b = g.leaf(Tensor::row(&[5.0, 7.0]));
        let y = g.mul(a, b);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        assert_eq!(grads.get(a).unwrap().data(), &[5.0, 7.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[2.0, 3.0]);
    }

    #[test]
    fn matmul_gradients_match_formulas() {
        let g = Graph::new();
        let a = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.leaf(Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        let grads = g.backward(loss);
        // dA = 1 · Bᵀ, dB = Aᵀ · 1
        assert_eq!(grads.get(a).unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(grads.get(b).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn cross_entropy_perfect_prediction_has_small_loss() {
        let g = Graph::new();
        let logits = g.leaf(Tensor::from_rows(&[&[10.0, -10.0], &[-10.0, 10.0]]));
        let loss = g.cross_entropy(logits, &[0, 1]);
        assert!(g.value(loss).item() < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_logits_is_log_c() {
        let g = Graph::new();
        let logits = g.leaf(Tensor::zeros(3, 4));
        let loss = g.cross_entropy(logits, &[0, 1, 2]);
        assert!(approx(g.value(loss).item(), (4.0f32).ln()));
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let g = Graph::new();
        let logits = g.leaf(Tensor::zeros(1, 2));
        let loss = g.cross_entropy(logits, &[1]);
        let grads = g.backward(loss);
        let dl = grads.get(logits).unwrap();
        assert!(approx(dl.get(0, 0), 0.5));
        assert!(approx(dl.get(0, 1), -0.5));
    }

    #[test]
    fn weighted_cross_entropy_upweights_class() {
        let g = Graph::new();
        let logits = g.leaf(Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 0.0]]));
        // Class 1 has weight 3: loss stays ln(2) (weighted mean of equal
        // per-sample losses), but gradients tilt toward the upweighted class.
        let loss = g.cross_entropy_weighted(logits, &[0, 1], Some(&[1.0, 3.0]));
        assert!(approx(g.value(loss).item(), (2.0f32).ln()));
        let grads = g.backward(loss);
        let dl = grads.get(logits).unwrap();
        assert!(dl.get(1, 1).abs() > dl.get(0, 0).abs());
    }

    #[test]
    fn bce_with_logits_matches_closed_form() {
        let g = Graph::new();
        let logits = g.leaf(Tensor::column(&[0.0]));
        let loss = g.bce_with_logits(logits, &[1.0]);
        assert!(approx(g.value(loss).item(), (2.0f32).ln()));
        let grads = g.backward(loss);
        assert!(approx(grads.get(logits).unwrap().item(), -0.5));
    }

    #[test]
    fn bce_is_stable_for_extreme_logits() {
        let g = Graph::new();
        let logits = g.leaf(Tensor::column(&[500.0, -500.0]));
        let loss = g.bce_with_logits(logits, &[1.0, 0.0]);
        let v = g.value(loss).item();
        assert!(v.is_finite() && v < 1e-3);
    }

    #[test]
    fn embedding_scatter_adds_duplicate_ids() {
        let g = Graph::new();
        let w = g.leaf(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]));
        let e = g.embedding(w, &[1, 1, 2]);
        let loss = g.sum_all(e);
        let grads = g.backward(loss);
        let dw = grads.get(w).unwrap();
        assert_eq!(dw.row_slice(0), &[0.0, 0.0]);
        assert_eq!(dw.row_slice(1), &[2.0, 2.0]); // used twice
        assert_eq!(dw.row_slice(2), &[1.0, 1.0]);
    }

    #[test]
    fn dropout_zero_probability_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = Graph::new();
        let x = g.leaf(Tensor::row(&[1.0, 2.0, 3.0]));
        let y = g.dropout(x, 0.0, &mut rng);
        assert_eq!(g.value(y).data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn dropout_preserves_expectation_roughly() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = Graph::new();
        let x = g.leaf(Tensor::full(1, 10_000, 1.0));
        let y = g.dropout(x, 0.3, &mut rng);
        let mean = g.value(y).mean();
        assert!((mean - 1.0).abs() < 0.05, "dropout mean {mean} drifted from 1.0");
    }

    #[test]
    fn layer_norm_output_is_normalized() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        let gamma = g.leaf(Tensor::ones(1, 4));
        let beta = g.leaf(Tensor::zeros(1, 4));
        let y = g.layer_norm(x, gamma, beta);
        let v = g.value(y);
        assert!(approx(v.mean(), 0.0));
        let var = v.data().iter().map(|&x| x * x).sum::<f32>() / 4.0;
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn softmax_grad_sums_to_zero_per_row() {
        // Because softmax outputs sum to 1, the gradient of any function of
        // the outputs wrt the inputs must sum to zero across each row.
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[0.3, -1.2, 2.0]]));
        let p = g.softmax_rows(x);
        let w = g.leaf(Tensor::row(&[1.0, -2.0, 0.5]));
        let y = g.mul(p, w);
        let loss = g.sum_all(y);
        let grads = g.backward(loss);
        let dx = grads.get(x).unwrap();
        assert!(dx.data().iter().sum::<f32>().abs() < 1e-5);
    }

    #[test]
    fn slice_and_concat_gradients_route_correctly() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let top = g.slice_rows(x, 0, 1);
        let rest = g.slice_rows(x, 1, 3);
        let doubled = g.scale(rest, 2.0);
        let all = g.concat_rows(&[top, doubled]);
        let loss = g.sum_all(all);
        let grads = g.backward(loss);
        let dx = grads.get(x).unwrap();
        assert_eq!(dx.data(), &[1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "backward root must be a scalar")]
    fn backward_requires_scalar_root() {
        let g = Graph::new();
        let x = g.leaf(Tensor::ones(2, 2));
        let _ = g.backward(x);
    }
}
