//! Dense f32 tensors and reverse-mode automatic differentiation.
//!
//! This crate is the numerical substrate for the EMBA entity-matching
//! reproduction. It provides:
//!
//! * [`Tensor`] — an immutable, reference-counted, row-major dense matrix of
//!   `f32` values with the raw linear-algebra kernels (matmul, softmax,
//!   layer-norm, ...) used by the neural-network layers.
//! * [`Graph`] — a single-use autodiff tape. Operations are recorded during
//!   the forward pass and [`Graph::backward`] replays them in reverse to
//!   produce gradients for every recorded node.
//! * [`fwd`] — the forward loops the tape's grouped, gather and AOA ops
//!   share with the forward-only encoder and pair scorer, which record no
//!   tape.
//! * [`gradcheck`] — finite-difference gradient checking used by the property
//!   tests to validate every analytic gradient in the tape.
//! * [`guard`] — an opt-in non-finite guard that scans every recorded op
//!   output for NaN/Inf and reports the offending op by name.
//! * [`prof`] — an opt-in op-level profiler that attributes self wall-time,
//!   output bytes, and estimated FLOPs to every forward and backward tape op
//!   under a hierarchical phase-scope stack.
//! * [`backend`] — the thread-installable [`BackendKind`] that selects the
//!   post-training int8 path ([`quant`]); every kernel dispatches on cached
//!   CPU features to explicit `std::arch` micro-kernels ([`simd`]).
//!
//! # Design notes
//!
//! The engine is deliberately small, and a tape lives on one thread (the
//! forward-only interpreter may run on several at once, each with its own
//! scratch pool and profiler; see `emba_core::PairScorer`): the reproduction
//! trains miniature BERT encoders (a few layers, ≤256 dims), and a tape of
//! boxed backward closures keeps the op set trivially extensible. Tensors
//! share their buffer through an `Arc`, so cloning a tensor (e.g. capturing
//! activations inside a backward closure) is O(1); mutation copies-on-write.
//! Matrix products route through [`kernels`] — one direct-operand GEMM over
//! strided views with a 6×16 register tile — and hot-path
//! allocations draw from the thread-local scratch [`pool`], which `Graph` and
//! `Gradients` refill via their `recycle` methods at the end of each step.
//!
//! # Example
//!
//! ```
//! use emba_tensor::{Graph, Tensor};
//!
//! let g = Graph::new();
//! let x = g.leaf(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
//! let w = g.leaf(Tensor::from_rows(&[&[0.5], &[-0.5]]));
//! let y = g.matmul(x, w);          // [2,1]
//! let loss = g.sum_all(y);         // scalar
//! let grads = g.backward(loss);
//! let dw = grads.get(w).unwrap();
//! assert_eq!(dw.shape(), (2, 1));
//! assert_eq!(dw.data(), &[4.0, 6.0]); // column sums of x
//! ```

pub mod backend;
pub mod fwd;
pub mod gradcheck;
mod graph;
mod groups;
pub mod guard;
pub mod kernels;
pub mod pool;
pub mod prof;
pub mod quant;
pub mod simd;
mod tensor;

pub use backend::BackendKind;
pub use graph::{GradSink, Gradients, Graph, Var};
pub use groups::RowGroups;
pub use quant::QuantizedMatrix;
pub use tensor::Tensor;

/// Numerical epsilon used by layer normalization and other
/// divide-by-variance operations.
pub const NORM_EPS: f32 = 1e-5;
