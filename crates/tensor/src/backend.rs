//! The `Backend` trait seam: tape/graph structure on one side, kernel
//! execution on the other.
//!
//! The tape records *what* to compute; a [`Backend`] decides *how*. The
//! default [`F32Backend`] routes every GEMM to the f32 kernels in
//! [`crate::kernels`] (which themselves dispatch between the portable and the
//! explicit-SIMD tile via [`crate::simd::level`]). The
//! [`Int8Backend`] additionally answers `quantized() == true`, which makes
//! `emba-nn`'s `Linear` layers emit the inference-only `linear_q8` tape op
//! executing the int8 GEMM path in [`crate::quant`].
//!
//! Backends are installed per thread with [`install`], which returns an RAII
//! guard restoring the previous backend on drop — serve and catalog scoring
//! wrap each request batch in a guard so training code on the same thread is
//! never affected.
//!
//! **Contract:** the int8 backend is inference-only. `linear_q8` records no
//! backward closure, so a backward sweep through a quantized op is a
//! no-gradient no-op; training must run under [`F32Backend`] (the default —
//! nothing in the training path ever installs `Int8`).

use std::cell::Cell;

use crate::kernels;
use crate::quant::{self, QuantizedMatrix, QuantizedRows};
use crate::simd;
use crate::tensor::Tensor;

/// Kernel-execution strategy behind the tape.
pub trait Backend {
    /// Stable human-readable name for reports and snapshots.
    fn name(&self) -> &'static str;

    /// Whether `Linear` layers should emit quantized (`linear_q8`) tape ops.
    fn quantized(&self) -> bool {
        false
    }

    /// `out = a (m,k) @ b (k,n)`, both row-major.
    fn gemm_nn(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        kernels::gemm_nn(m, k, n, a, b, out);
    }

    /// `out = a (m,k) @ b^T` with `b` stored `(n,k)` row-major.
    fn gemm_nt(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        kernels::gemm_nt(m, k, n, a, b, out);
    }

    /// `out = a^T @ b` with `a` stored `(k,m)` row-major.
    fn gemm_tn(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        kernels::gemm_tn(m, k, n, a, b, out);
    }

    /// Quantized affine forward (optionally fused GELU); only reached when
    /// `quantized()` is true.
    fn linear_q8(&self, x: &Tensor, w: &QuantizedMatrix, bias: &Tensor, gelu: bool) -> Tensor {
        self.linear_q8_rows(&QuantizedRows::quantize(x), w, bias, gelu)
    }

    /// [`Backend::linear_q8`] for an input the tape already quantized.
    fn linear_q8_rows(&self, x: &QuantizedRows, w: &QuantizedMatrix, bias: &Tensor, gelu: bool) -> Tensor {
        quant::linear_q8_rows(x, w, bias, gelu)
    }
}

/// Full-precision backend: the default, and the only one valid for training.
pub struct F32Backend;

impl Backend for F32Backend {
    fn name(&self) -> &'static str {
        "f32"
    }
}

/// Post-training int8 backend: weight GEMMs run the quantized GEMM path;
/// activation-by-activation GEMMs (attention scores/mix) stay f32.
pub struct Int8Backend;

impl Backend for Int8Backend {
    fn name(&self) -> &'static str {
        match simd::level() {
            simd::Level::Scalar => "int8-scalar",
            simd::Level::Avx2 => "int8-avx2",
            simd::Level::Avx2Vnni => "int8-avx2-vnni",
            simd::Level::Avx512 => "int8-avx512-vnni",
        }
    }

    fn quantized(&self) -> bool {
        true
    }
}

/// Which backend to install — the serializable config-facing handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Full-precision f32 kernels (default; required for training).
    #[default]
    F32,
    /// Post-training int8 weights with SIMD GEMM (inference only).
    Int8,
}

impl BackendKind {
    /// The backend instance this kind denotes.
    pub fn backend(self) -> &'static dyn Backend {
        match self {
            BackendKind::F32 => &F32Backend,
            BackendKind::Int8 => &Int8Backend,
        }
    }

    /// Stable label (the int8 label names the SIMD tier actually in use).
    pub fn label(self) -> &'static str {
        self.backend().name()
    }

    /// Parse a config/CLI name (`"f32"` or `"int8"`).
    pub fn from_name(name: &str) -> Option<BackendKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "f32" | "float" | "full" => Some(BackendKind::F32),
            "int8" | "i8" | "quant" | "quantized" => Some(BackendKind::Int8),
            _ => None,
        }
    }
}

thread_local! {
    static CURRENT: Cell<BackendKind> = const { Cell::new(BackendKind::F32) };
}

/// RAII guard restoring the previously installed backend on drop.
pub struct BackendGuard {
    prev: BackendKind,
}

impl Drop for BackendGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Install `kind` as this thread's backend until the guard drops.
#[must_use = "the backend is uninstalled when the guard drops"]
pub fn install(kind: BackendKind) -> BackendGuard {
    let prev = CURRENT.with(|c| c.replace(kind));
    BackendGuard { prev }
}

/// The kind currently installed on this thread.
pub fn kind() -> BackendKind {
    CURRENT.with(|c| c.get())
}

/// The backend currently installed on this thread.
pub fn current() -> &'static dyn Backend {
    kind().backend()
}

/// Whether the current backend wants quantized linear ops.
pub fn quantized() -> bool {
    current().quantized()
}

/// Name of the current backend (for profiler/metrics attribution).
pub fn name() -> &'static str {
    current().name()
}

/// Dispatch `gemm_nn` through the installed backend.
pub fn gemm_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    current().gemm_nn(m, k, n, a, b, out);
}

/// Dispatch `gemm_nt` through the installed backend.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    current().gemm_nt(m, k, n, a, b, out);
}

/// Dispatch `gemm_tn` through the installed backend.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    current().gemm_tn(m, k, n, a, b, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_scoped_and_nested() {
        assert_eq!(kind(), BackendKind::F32);
        {
            let _g = install(BackendKind::Int8);
            assert_eq!(kind(), BackendKind::Int8);
            assert!(quantized());
            {
                let _g2 = install(BackendKind::F32);
                assert_eq!(kind(), BackendKind::F32);
            }
            assert_eq!(kind(), BackendKind::Int8);
        }
        assert_eq!(kind(), BackendKind::F32);
        assert!(!quantized());
    }

    #[test]
    fn kind_round_trips_names() {
        assert_eq!(BackendKind::from_name("f32"), Some(BackendKind::F32));
        assert_eq!(BackendKind::from_name("Int8"), Some(BackendKind::Int8));
        assert_eq!(BackendKind::from_name("tpu"), None);
        assert_eq!(BackendKind::F32.label(), "f32");
        assert!(BackendKind::Int8.label().starts_with("int8"));
    }
}
