//! Which kernels the inference path runs: a [`BackendKind`] value,
//! installed per thread.
//!
//! The tape and the forward-only executor call [`crate::kernels`] (which
//! dispatches between the portable and the explicit-SIMD tiles via
//! [`crate::simd::level`]) for every f32 product. The one choice a backend
//! makes is [`BackendKind::quantized`]: under [`BackendKind::Int8`],
//! `emba-nn`'s `Linear` layers emit the inference-only `linear_q8` op
//! running the int8 GEMM path in [`crate::quant`].
//!
//! [`install`] sets this thread's kind until the returned guard drops —
//! serve and catalog scoring wrap each request batch in a guard so training
//! code on the same thread is never affected.
//!
//! **Contract:** the int8 backend is inference-only. `linear_q8` records no
//! backward closure, so a backward sweep through a quantized op is a
//! no-gradient no-op; training must run under [`BackendKind::F32`] (the
//! default — nothing in the training path ever installs `Int8`).

use std::cell::Cell;

use crate::simd;

/// Which backend to install — the serializable config-facing handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Full-precision f32 kernels (default; required for training).
    #[default]
    F32,
    /// Post-training int8 weights with SIMD GEMM (inference only); products
    /// of two activations (attention scores, AOA) stay f32.
    Int8,
}

impl BackendKind {
    /// Whether `Linear` layers run the quantized (`linear_q8`) path.
    pub fn quantized(self) -> bool {
        self == BackendKind::Int8
    }

    /// Stable label for reports and snapshots (the int8 label names the
    /// SIMD tier actually in use).
    pub fn label(self) -> &'static str {
        match (self, simd::level()) {
            (BackendKind::F32, _) => "f32",
            (BackendKind::Int8, simd::Level::Scalar) => "int8-scalar",
            (BackendKind::Int8, simd::Level::Avx2) => "int8-avx2",
            (BackendKind::Int8, simd::Level::Avx2Vnni) => "int8-avx2-vnni",
            (BackendKind::Int8, simd::Level::Avx512) => "int8-avx512-vnni",
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_is_scoped_and_nested() {
        assert_eq!(kind(), BackendKind::F32);
        {
            let _g = install(BackendKind::Int8);
            assert_eq!(kind(), BackendKind::Int8);
            assert!(kind().quantized());
            {
                let _g2 = install(BackendKind::F32);
                assert_eq!(kind(), BackendKind::F32);
            }
            assert_eq!(kind(), BackendKind::Int8);
        }
        assert_eq!(kind(), BackendKind::F32);
        assert!(!kind().quantized());
    }

    #[test]
    fn kind_round_trips_names() {
        assert_eq!(BackendKind::F32.label(), "f32");
        assert!(BackendKind::Int8.label().starts_with("int8"));
    }
}
