//! Thread-local scratch-buffer pool.
//!
//! Training builds one autodiff tape per optimizer step, so the same tensor
//! shapes are allocated and dropped thousands of times per epoch. This pool
//! lets the hot path hand freed `Vec<f32>` buffers back for reuse instead of
//! returning them to the allocator: [`take`] pops a buffer of the exact
//! requested length (zero-filled, matching `vec![0.0; len]` semantics) and
//! [`put`] returns one. Buckets are keyed by length: a training run's shapes
//! recur exactly, and a caller whose sizes do not (an encode launch's, which
//! follow its token count) rounds them to a power of two first, so the pool
//! holds a handful of sizes rather than one per launch.
//!
//! The pool is thread-local: each thread that runs graphs (a training run's,
//! or each lane of a two-lane scorer) keeps its own, which avoids both
//! locking and cross-thread buffer migration.
//! Resident bytes are capped; beyond the cap, returned buffers are simply
//! dropped.
//!
//! Lifetime rules (see DESIGN.md "Kernel layer"):
//!
//! * Anyone may call [`take`]; the buffer is owned by the caller like any Vec.
//! * Buffers return to the pool only through explicit recycle points —
//!   `Tensor::recycle`, `Graph::recycle`, `Gradients::recycle` — which use
//!   `Arc::try_unwrap`, so a buffer still shared (e.g. a checkpointed value)
//!   is never recycled out from under a holder; and the owners of plain
//!   scratch (`kernels::PackedPanel`, the AOA workspace, the forward-only
//!   interpreter's activations), which [`put`] it back when they are done.

use std::cell::RefCell;
use std::collections::HashMap;

/// Hard cap on pooled floats per thread (64 Mi floats = 256 MiB).
const MAX_POOLED_FLOATS: usize = 64 << 20;

/// Largest bucket worth keeping; enormous one-off buffers are dropped.
const MAX_BUFFER_FLOATS: usize = 16 << 20;

/// Counters describing pool effectiveness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served from the pool.
    pub hits: u64,
    /// `take` calls that had to allocate.
    pub misses: u64,
    /// Buffers accepted back by `put`.
    pub recycled: u64,
    /// Buffers rejected by `put` (cap exceeded or oversized).
    pub dropped: u64,
    /// Floats currently resident in the pool.
    pub resident_floats: usize,
}

#[derive(Default)]
struct Pool {
    buckets: HashMap<usize, Vec<Vec<f32>>>,
    resident_floats: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
    dropped: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Returns a zero-filled buffer of exactly `len` floats, reusing a pooled
/// allocation when one of the same length is available.
pub fn take(len: usize) -> Vec<f32> {
    let mut buf = take_uninit(len);
    buf.fill(0.0);
    buf
}

/// Returns a buffer of exactly `len` floats with ARBITRARY contents — stale
/// values from whoever recycled it. Only for callers that overwrite every
/// element before reading any (GEMM outputs, packing panels); everyone else
/// wants [`take`].
pub fn take_uninit(len: usize) -> Vec<f32> {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if let Some(buf) = p.buckets.get_mut(&len).and_then(Vec::pop) {
            p.resident_floats -= len;
            p.hits += 1;
            buf
        } else {
            p.misses += 1;
            vec![0.0; len]
        }
    })
}

/// Offers a buffer back to the pool. Buffers beyond the per-thread byte cap
/// (or individually oversized ones) are dropped instead.
pub fn put(buf: Vec<f32>) {
    let len = buf.len();
    if len == 0 {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if len > MAX_BUFFER_FLOATS || p.resident_floats + len > MAX_POOLED_FLOATS {
            p.dropped += 1;
            return;
        }
        p.resident_floats += len;
        p.recycled += 1;
        p.buckets.entry(len).or_default().push(buf);
    })
}

/// Current counters for this thread's pool.
pub fn stats() -> PoolStats {
    POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            hits: p.hits,
            misses: p.misses,
            recycled: p.recycled,
            dropped: p.dropped,
            resident_floats: p.resident_floats,
        }
    })
}

/// Drops every pooled buffer and zeroes the counters.
pub fn clear() {
    POOL.with(|p| *p.borrow_mut() = Pool::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_roundtrip_reuses_allocation() {
        clear();
        let mut a = take(1024);
        a[0] = 7.0;
        let ptr = a.as_ptr();
        put(a);
        let b = take(1024);
        assert_eq!(b.as_ptr(), ptr, "same-length take should reuse the buffer");
        assert!(b.iter().all(|&x| x == 0.0), "pooled buffers must come back zeroed");
        let s = stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.recycled, 1);
        clear();
    }

    #[test]
    fn different_lengths_use_different_buckets() {
        clear();
        put(vec![1.0; 8]);
        let b = take(16);
        assert_eq!(b.len(), 16);
        assert_eq!(stats().hits, 0);
        assert_eq!(stats().misses, 1);
        clear();
    }

    #[test]
    fn empty_buffers_are_ignored() {
        clear();
        put(Vec::new());
        assert_eq!(stats().recycled, 0);
        clear();
    }
}
