//! Debug-only non-finite guard for the autodiff tape.
//!
//! When enabled, every tensor recorded on a [`crate::Graph`] is scanned for
//! NaN/Inf right after its forward kernel runs, and offenders are reported
//! with the *op name* that produced them — turning "the loss is NaN five
//! layers later" into "`linear_bias_gelu` emitted a non-finite `[32, 128]`
//! output". The guard is off by default because the scan adds a full pass
//! over every activation; training harnesses flip it on per run (see
//! `TrainConfig::nan_guard` in `emba-core`) and drain the reports through
//! their observer.
//!
//! Like the scratch [`crate::pool`], the guard is thread-local: a training
//! run records its tape on one thread, so there is no cross-thread state to
//! synchronize and concurrent test runs cannot see each other's reports. A
//! helper thread starts with the guard off.

use std::cell::{Cell, RefCell};

/// Cap on buffered reports; a genuinely divergent run produces a non-finite
/// output at essentially every node, and one screenful is plenty.
const MAX_REPORTS: usize = 64;

/// One non-finite op output caught by the guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardReport {
    /// Name of the tape op that produced the value (e.g. `"softmax_rows"`).
    pub op: &'static str,
    /// Rows of the offending output.
    pub rows: usize,
    /// Columns of the offending output.
    pub cols: usize,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REPORTS: RefCell<Vec<GuardReport>> = const { RefCell::new(Vec::new()) };
}

/// Turns the guard on or off for this thread; returns the previous state so
/// callers can restore it (guard scopes nest).
pub fn enable(on: bool) -> bool {
    ENABLED.with(|e| e.replace(on))
}

/// Whether the guard is currently checking op outputs on this thread.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Records a non-finite op output. Called by the tape; reports beyond
/// `MAX_REPORTS` are dropped.
pub fn record(op: &'static str, rows: usize, cols: usize) {
    REPORTS.with(|r| {
        let mut r = r.borrow_mut();
        if r.len() < MAX_REPORTS {
            r.push(GuardReport { op, rows, cols });
        }
    });
}

/// Drains every buffered report, oldest first.
pub fn take_reports() -> Vec<GuardReport> {
    REPORTS.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, Tensor};

    #[test]
    fn disabled_guard_records_nothing() {
        take_reports();
        assert!(!enabled());
        let g = Graph::new();
        let x = g.leaf(Tensor::row(&[f32::NAN]));
        let _ = g.scale(x, 2.0);
        assert!(take_reports().is_empty());
    }

    #[test]
    fn enabled_guard_names_the_offending_op() {
        let prev = enable(true);
        take_reports();
        let g = Graph::new();
        let x = g.leaf(Tensor::row(&[1.0, 2.0]));
        let y = g.scale(x, f32::INFINITY);
        let _ = g.sum_all(y);
        enable(prev);
        let reports = take_reports();
        assert!(
            reports.iter().any(|r| r.op == "scale" && r.rows == 1 && r.cols == 2),
            "expected a report for `scale`, got {reports:?}"
        );
    }

    #[test]
    fn nan_leaves_are_caught_too() {
        let prev = enable(true);
        take_reports();
        let g = Graph::new();
        let _ = g.leaf(Tensor::row(&[f32::NAN]));
        enable(prev);
        assert!(take_reports().iter().any(|r| r.op == "leaf"));
    }

    #[test]
    fn report_buffer_is_capped() {
        let prev = enable(true);
        take_reports();
        let g = Graph::new();
        for _ in 0..(MAX_REPORTS + 16) {
            let _ = g.leaf(Tensor::row(&[f32::NAN]));
        }
        enable(prev);
        assert_eq!(take_reports().len(), MAX_REPORTS);
    }
}
