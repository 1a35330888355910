//! emba-prof: thread-local, op-level profiler for the autodiff tape.
//!
//! When enabled, every forward and backward tape op records its *self*
//! wall-time, call count, output bytes, and an estimated FLOP count under a
//! hierarchical **phase scope** stack (`train/epoch/example/forward/...`),
//! plus a capped timeline of phase spans for Chrome-trace export. The crate
//! only collects; rendering (trace-event JSON, folded stacks, per-op tables)
//! lives in `emba-trace`, which depends on this crate.
//!
//! Self-time uses *delta accounting*: the profiler keeps one per-thread
//! `mark` timestamp, advanced at every op record and every scope boundary.
//! An op's self-time is the time elapsed since the previous profiler event
//! on this thread. Inside a forward or backward pass — where consecutive
//! tape ops are back to back — this attributes exactly the op's compute, and
//! it makes per-op self-times sum to the enclosing phase's wall time by
//! construction (`tests::self_times_sum_to_phase_wall_time`).
//!
//! Like [`crate::guard`] and the scratch [`crate::pool`], the profiler is
//! thread-local, so concurrent test runs cannot observe each other. A caller
//! that hands part of its work to a helper thread carries its context over
//! with [`lane`] / [`Lane::run`] and folds the helper's ops back in with
//! [`absorb`]; a report then sums both threads' self-times (thread-seconds,
//! which can exceed the wall time they overlapped in).
//! The disabled fast path is a single `thread_local` bool read per op.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::time::Instant;

/// Cap on buffered phase spans for the Chrome-trace timeline. Aggregated
/// per-op and per-phase statistics are unaffected by the cap; spans beyond
/// it are counted in [`ProfReport::dropped_spans`] so exports can say how
/// much timeline was truncated instead of silently looking complete.
const MAX_SPANS: usize = 50_000;

/// Interned scope-path entry: one node of the phase tree.
struct PathEntry {
    /// Segment name (`"forward"`); empty for the root.
    name: &'static str,
    /// Parent path index; the root is its own parent.
    parent: usize,
    /// Times this exact path was entered.
    calls: u64,
    /// Total wall time spent inside, children included.
    total_ns: u64,
}

/// One closed phase span on the timeline.
#[derive(Clone, Copy)]
struct Span {
    path: usize,
    start_ns: u64,
    dur_ns: u64,
}

/// Per-(path, op, direction) aggregate.
#[derive(Default, Clone, Copy)]
struct OpAgg {
    calls: u64,
    self_ns: u64,
    bytes: u64,
    flops: u64,
}

struct ProfState {
    epoch: Instant,
    /// Timestamp (ns since `epoch`) of the last attribution point.
    mark: u64,
    paths: Vec<PathEntry>,
    /// `(parent path, segment) -> path` interning table.
    children: HashMap<(usize, &'static str), usize>,
    /// Currently open path (root when no scope is active).
    current: usize,
    ops: HashMap<(usize, &'static str, bool), OpAgg>,
    spans: Vec<Span>,
    dropped_spans: u64,
}

impl ProfState {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            mark: 0,
            paths: vec![PathEntry { name: "", parent: 0, calls: 0, total_ns: 0 }],
            children: HashMap::new(),
            current: 0,
            ops: HashMap::new(),
            spans: Vec::new(),
            dropped_spans: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The segments of path `id`, outermost first (none for the root).
    fn segments(&self, id: usize) -> Vec<&'static str> {
        let mut segments = Vec::new();
        let mut at = id;
        while at != 0 {
            segments.push(self.paths[at].name);
            at = self.paths[at].parent;
        }
        segments.reverse();
        segments
    }

    /// Full `/`-joined path string for `id` (empty string for the root).
    fn path_string(&self, id: usize) -> String {
        self.segments(id).join("/")
    }

    /// The id of segment `name` under path `parent`, created on first use
    /// (never entered, so not a phase until a scope enters it).
    fn intern(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(&id) = self.children.get(&(parent, name)) {
            return id;
        }
        let id = self.paths.len();
        self.paths.push(PathEntry { name, parent, calls: 0, total_ns: 0 });
        self.children.insert((parent, name), id);
        id
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<ProfState> = RefCell::new(ProfState::new());
}

/// Turns the profiler on or off for this thread; returns the previous state
/// so callers can restore it. Enabling re-arms the self-time mark (time
/// spent while disabled is never attributed to the next op). Collected data
/// survives disable — drain it with [`report`] or discard with [`reset`].
pub fn enable(on: bool) -> bool {
    let prev = ENABLED.with(|e| e.replace(on));
    if on && !prev {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.mark = s.now_ns();
        });
    }
    prev
}

/// Whether the profiler is currently recording on this thread.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Discards all collected data and resets the clock epoch. Call between
/// runs; calling with scopes still open is a logic error (their guards will
/// restore a stale path index).
pub fn reset() {
    STATE.with(|s| *s.borrow_mut() = ProfState::new());
}

/// Re-arms the self-time mark without recording anything, so time spent
/// outside the tape (e.g. before a backward sweep) is not attributed to the
/// first op that follows.
pub fn set_mark() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        s.mark = s.now_ns();
    });
}

/// This thread's profiler context, captured by [`lane`] to carry to a helper
/// thread: whether it records, and the scope path it records under.
#[derive(Debug)]
pub struct Lane {
    enabled: bool,
    path: Vec<&'static str>,
}

/// The op aggregates a helper recorded under [`Lane::run`], keyed by their
/// full scope path; hand them to [`absorb`] on the thread that owns the
/// report.
#[derive(Default)]
pub struct LaneOps(Vec<(Vec<&'static str>, &'static str, bool, OpAgg)>);

/// Captures this thread's enabled flag and current scope path for a helper
/// thread (see [`Lane::run`]).
pub fn lane() -> Lane {
    let enabled = enabled();
    let path = if enabled {
        STATE.with(|s| {
            let s = s.borrow();
            s.segments(s.current)
        })
    } else {
        Vec::new()
    };
    Lane { enabled, path }
}

impl Lane {
    /// Runs `f` on this (helper) thread as if it ran inside the captured
    /// context: recording if the capturing thread was, under its scope path.
    /// Returns `f`'s output and the ops it recorded; this thread's own
    /// profiler state is set aside for the call and restored afterwards.
    pub fn run<T>(&self, f: impl FnOnce() -> T) -> (T, LaneOps) {
        if !self.enabled {
            return (f(), LaneOps::default());
        }
        let prev_enabled = ENABLED.with(|e| e.replace(true));
        let prev = STATE.with(|s| {
            let mut fresh = ProfState::new();
            fresh.current = self.path.iter().fold(0, |parent, &name| fresh.intern(parent, name));
            fresh.mark = fresh.now_ns();
            s.replace(fresh)
        });
        let out = f();
        let ops = STATE.with(|s| {
            let s = s.replace(prev);
            LaneOps(s.ops.iter().map(|(&(path, op, backward), &agg)| (s.segments(path), op, backward, agg)).collect())
        });
        ENABLED.with(|e| e.set(prev_enabled));
        (out, ops)
    }
}

/// Adds a helper's op aggregates (from [`Lane::run`]) to this thread's report
/// under their scope paths, and re-arms the self-time mark so the time spent
/// waiting for the helper is not billed to this thread's next op.
pub fn absorb(ops: LaneOps) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        for (path, op, backward, agg) in ops.0 {
            let id = path.iter().fold(0, |parent, &name| s.intern(parent, name));
            let into = s.ops.entry((id, op, backward)).or_default();
            into.calls += agg.calls;
            into.self_ns += agg.self_ns;
            into.bytes += agg.bytes;
            into.flops += agg.flops;
        }
        s.mark = s.now_ns();
    });
}

/// RAII guard for one phase scope; pops the scope when dropped. `!Send`:
/// the profiler state it closes over is thread-local.
pub struct ScopeGuard {
    active: bool,
    prev: usize,
    start_ns: u64,
    _not_send: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let now = s.now_ns();
            let id = s.current;
            let start = self.start_ns;
            let entry = &mut s.paths[id];
            entry.total_ns += now.saturating_sub(start);
            if s.spans.len() < MAX_SPANS {
                s.spans.push(Span { path: id, start_ns: start, dur_ns: now.saturating_sub(start) });
            } else {
                s.dropped_spans += 1;
            }
            s.current = self.prev;
            s.mark = now;
        });
    }
}

/// Opens a phase scope named `name` under the current path. A no-op (and
/// near-free) when the profiler is disabled. Scopes nest; drop order must be
/// LIFO, which the borrow checker enforces for the idiomatic
/// `let _scope = prof::scope("forward");` usage.
pub fn scope(name: &'static str) -> ScopeGuard {
    if !enabled() {
        return ScopeGuard { active: false, prev: 0, start_ns: 0, _not_send: PhantomData };
    }
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let now = s.now_ns();
        let parent = s.current;
        let id = s.intern(parent, name);
        s.paths[id].calls += 1;
        s.current = id;
        s.mark = now;
        ScopeGuard { active: true, prev: parent, start_ns: now, _not_send: PhantomData }
    })
}

/// Records one tape op under the current scope. Self-time is the delta from
/// the previous profiler event (see the module docs). Callers check
/// [`enabled`] first; calling while disabled still records.
pub fn record_op(op: &'static str, backward: bool, bytes: u64, flops: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let now = s.now_ns();
        let self_ns = now.saturating_sub(s.mark);
        s.mark = now;
        let path = s.current;
        let agg = s.ops.entry((path, op, backward)).or_default();
        agg.calls += 1;
        agg.self_ns += self_ns;
        agg.bytes += bytes;
        agg.flops += flops;
    });
}

/// Estimated forward FLOPs of one tape op, from its name, parent shapes, and
/// output shape. An op that reads a column view of its parents (one attention
/// head of a `[ΣT, hidden]` q/k) is charged by the view: the tape passes
/// `(rows, head_dim)` for them, not the parents' full width.
/// Estimates, not measurements: GEMM-family ops use the exact
/// `2·m·k·n` multiply-add count; transcendental elementwise ops use small
/// per-element constants; pure data movement (embedding, slice, concat)
/// counts zero. Backward passes are charged 2× the forward estimate by the
/// tape.
pub fn estimate_flops(op: &str, parents: &[(usize, usize)], out: (usize, usize)) -> u64 {
    let elems = (out.0 * out.1) as u64;
    let in_elems = |i: usize| parents.get(i).map_or(0, |&(r, c)| (r * c) as u64);
    match op {
        "matmul" | "matmul_nt" => 2 * elems * parents.first().map_or(0, |p| p.1 as u64),
        "matmul_tn" => 2 * elems * parents.first().map_or(0, |p| p.0 as u64),
        // x·W + bias: first parent is x = [m, k].
        "linear" => 2 * elems * parents.first().map_or(0, |p| p.1 as u64) + elems,
        "linear_bias_gelu" => {
            2 * elems * parents.first().map_or(0, |p| p.1 as u64) + 16 * elems
        }
        // Quantized affine: same multiply-add count as the f32 op (the i8
        // lanes change the cost per FLOP, not the FLOP count), plus the
        // per-row activation quantization pass charged one-per-input-element.
        "linear_q8" => 2 * elems * parents.first().map_or(0, |p| p.1 as u64) + elems + in_elems(0),
        "linear_q8_gelu" => {
            2 * elems * parents.first().map_or(0, |p| p.1 as u64) + 16 * elems + in_elems(0)
        }
        // q·kᵀ scaled plus a row softmax over the [m, n] scores. The grouped
        // variant is block-diagonal; charging by the padded [ΣT, W] output is
        // a slight overestimate for ragged batches.
        "attention_scores" | "attention_scores_grouped" => {
            2 * elems * parents.first().map_or(0, |p| p.1 as u64) + 7 * elems
        }
        // Block-diagonal probs·values, every head into its columns of one
        // out [ΣT, hidden]; the parents are one [ΣT, W] probs per head, then v.
        "matmul_grouped" => 2 * elems * parents.first().map_or(0, |p| p.1 as u64),
        // Each pair's two operands, `(m, h)` then `(n, h)`: E2·E1ᵀ and γᵀ·E1, plus
        // two softmaxes (7 each), β̄ (1) and γ (2) per element of the m×n block.
        "aoa_pool" => parents.chunks_exact(2).map(|v| (v[0].0 as u64, v[1].0 as u64, v[0].1 as u64)).map(|(m, n, h)| 2 * m * n * h + 2 * m * h + 17 * m * n).sum(),
        "softmax_col_grouped" => 7 * elems,
        "mean_rows_grouped" => in_elems(0),
        "weighted_sum_rows_grouped" => 2 * in_elems(1),
        "softmax_rows" | "softmax_cols" => 7 * elems,
        "layer_norm" => 8 * elems,
        "gelu" => 15 * elems,
        "tanh" | "sigmoid" => 10 * elems,
        // Loss ops reduce to a scalar; charge by the logits size.
        "cross_entropy" | "cross_entropy_weighted" | "bce_with_logits" => 10 * in_elems(0),
        "sum_all" | "mean_all" | "mean_axis0" => in_elems(0),
        "embedding" | "leaf" | "transpose" | "concat_rows" | "concat_cols" | "slice_rows"
        | "slice_cols" | "gather_rows" => 0,
        // add, sub, mul, scale, relu, dropout, anything new: one per element.
        _ => elems,
    }
}

/// One per-(phase, op, direction) aggregate row.
#[derive(Debug, Clone)]
pub struct OpStat {
    /// `/`-joined phase path the op ran under (empty = outside any scope).
    pub path: String,
    /// Tape op name.
    pub op: &'static str,
    /// `true` for the backward pass of the op.
    pub backward: bool,
    /// Number of calls.
    pub calls: u64,
    /// Total self wall-time, nanoseconds.
    pub self_ns: u64,
    /// Total bytes produced (forward: output tensors; backward: gradients).
    pub bytes: u64,
    /// Total estimated FLOPs.
    pub flops: u64,
}

/// Aggregate for one phase path.
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// `/`-joined phase path.
    pub path: String,
    /// Times the phase was entered.
    pub calls: u64,
    /// Total wall time inside (children included), nanoseconds.
    pub total_ns: u64,
}

/// One closed span on the timeline, for Chrome-trace export.
#[derive(Debug, Clone)]
pub struct SpanStat {
    /// `/`-joined phase path.
    pub path: String,
    /// Start, nanoseconds since the profiler epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// Everything the profiler collected on this thread, in deterministic order.
#[derive(Debug, Clone, Default)]
pub struct ProfReport {
    /// Per-(path, op, direction) rows, sorted by `(path, op, backward)`.
    pub ops: Vec<OpStat>,
    /// Per-phase totals, sorted by path (stable across runs by
    /// construction, so summary diffs compare byte-for-byte).
    pub phases: Vec<PhaseStat>,
    /// Phase-span timeline in close order, capped at an internal limit.
    pub spans: Vec<SpanStat>,
    /// Spans dropped once the timeline cap was hit.
    pub dropped_spans: u64,
}

/// Snapshots the collected data (without clearing it — see [`reset`]).
pub fn report() -> ProfReport {
    STATE.with(|s| {
        let s = s.borrow();
        let mut ops: Vec<OpStat> = s
            .ops
            .iter()
            .map(|(&(path, op, backward), agg)| OpStat {
                path: s.path_string(path),
                op,
                backward,
                calls: agg.calls,
                self_ns: agg.self_ns,
                bytes: agg.bytes,
                flops: agg.flops,
            })
            .collect();
        ops.sort_by(|a, b| (&a.path, a.op, a.backward).cmp(&(&b.path, b.op, b.backward)));
        let mut phases: Vec<PhaseStat> = s
            .paths
            .iter()
            .enumerate()
            .skip(1) // the root is bookkeeping, not a phase
            .filter(|(_, p)| p.calls > 0)
            .map(|(id, p)| PhaseStat {
                path: s.path_string(id),
                calls: p.calls,
                total_ns: p.total_ns,
            })
            .collect();
        phases.sort_by(|a, b| a.path.cmp(&b.path));
        let spans = s
            .spans
            .iter()
            .map(|sp| SpanStat {
                path: s.path_string(sp.path),
                start_ns: sp.start_ns,
                dur_ns: sp.dur_ns,
            })
            .collect();
        ProfReport { ops, phases, spans, dropped_spans: s.dropped_spans }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Graph, Tensor};

    fn with_clean_profiler<T>(f: impl FnOnce() -> T) -> T {
        reset();
        let prev = enable(true);
        let out = f();
        enable(prev);
        out
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        reset();
        assert!(!enabled());
        let g = Graph::new();
        let a = g.leaf(Tensor::row(&[1.0, 2.0]));
        let _ = g.scale(a, 2.0);
        let r = report();
        assert!(r.ops.is_empty());
        assert!(r.phases.is_empty());
    }

    #[test]
    fn ops_are_recorded_under_the_scope_stack() {
        let r = with_clean_profiler(|| {
            let _outer = scope("train");
            let g = Graph::new();
            let a = g.leaf(Tensor::row(&[1.0, 2.0, 3.0]));
            {
                let _inner = scope("forward");
                let _ = g.scale(a, 2.0);
                let _ = g.scale(a, 3.0);
            }
            let _ = g.relu(a);
            drop(_outer);
            report()
        });
        let scale = r
            .ops
            .iter()
            .find(|o| o.op == "scale" && !o.backward)
            .expect("scale row");
        assert_eq!(scale.path, "train/forward");
        assert_eq!(scale.calls, 2);
        assert_eq!(scale.bytes, 2 * 3 * 4);
        let relu = r.ops.iter().find(|o| o.op == "relu").expect("relu row");
        assert_eq!(relu.path, "train");
        let fwd = r.phases.iter().find(|p| p.path == "train/forward").expect("phase");
        assert_eq!(fwd.calls, 1);
        assert!(fwd.total_ns > 0);
    }

    #[test]
    fn backward_ops_are_tagged_and_flop_scaled() {
        let r = with_clean_profiler(|| {
            let g = Graph::new();
            let a = g.leaf(Tensor::from_vec(2, 3, vec![0.1; 6]));
            let b = g.leaf(Tensor::from_vec(3, 2, vec![0.2; 6]));
            let c = g.matmul(a, b);
            let loss = g.sum_all(c);
            let grads = g.backward(loss);
            grads.recycle();
            report()
        });
        let fwd = r.ops.iter().find(|o| o.op == "matmul" && !o.backward).unwrap();
        let bwd = r.ops.iter().find(|o| o.op == "matmul" && o.backward).unwrap();
        assert_eq!(fwd.flops, 2 * 2 * 3 * 2);
        assert_eq!(bwd.flops, 2 * fwd.flops);
        assert_eq!(bwd.calls, 1);
    }

    #[test]
    fn self_times_sum_to_phase_wall_time() {
        // The delta-accounting invariant: op self-times under a phase
        // account for (almost all of) the phase's wall time.
        let r = with_clean_profiler(|| {
            let g = Graph::new();
            let a = g.leaf(Tensor::from_vec(32, 32, vec![0.01; 32 * 32]));
            {
                let _fwd = scope("forward");
                let mut x = a;
                for _ in 0..8 {
                    x = g.matmul(x, a);
                }
                let _ = g.sum_all(x);
            }
            report()
        });
        let phase = r.phases.iter().find(|p| p.path == "forward").unwrap();
        let op_ns: u64 =
            r.ops.iter().filter(|o| o.path == "forward").map(|o| o.self_ns).sum();
        assert!(
            op_ns <= phase.total_ns,
            "op self time {op_ns} exceeds phase wall {}",
            phase.total_ns
        );
        // The leaf recorded before the scope opened is outside; everything
        // inside is tape ops, so coverage should be essentially complete.
        assert!(
            op_ns as f64 >= 0.9 * phase.total_ns as f64,
            "op self time {op_ns} covers <90% of phase wall {}",
            phase.total_ns
        );
    }

    #[test]
    fn report_orders_are_deterministic() {
        let r = with_clean_profiler(|| {
            let g = Graph::new();
            let a = g.leaf(Tensor::row(&[1.0]));
            {
                let _b = scope("beta");
                let _ = g.relu(a);
            }
            {
                let _a = scope("alpha");
                let _ = g.relu(a);
            }
            report()
        });
        let phase_paths: Vec<&str> = r.phases.iter().map(|p| p.path.as_str()).collect();
        assert_eq!(phase_paths, ["alpha", "beta"]);
        let mut sorted = r.ops.clone();
        sorted.sort_by(|a, b| (&a.path, a.op, a.backward).cmp(&(&b.path, b.op, b.backward)));
        assert_eq!(
            r.ops.iter().map(|o| (&o.path, o.op, o.backward)).collect::<Vec<_>>(),
            sorted.iter().map(|o| (&o.path, o.op, o.backward)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scopes_repeat_without_duplicating_paths() {
        let r = with_clean_profiler(|| {
            for _ in 0..3 {
                let _e = scope("epoch");
            }
            report()
        });
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].calls, 3);
        assert_eq!(r.spans.len(), 3);
    }

    #[test]
    fn head_view_attention_is_charged_by_the_head() {
        use crate::RowGroups;
        let (heads, hd, t) = (4usize, 8usize, 6usize);
        let r = with_clean_profiler(|| {
            let g = Graph::new();
            let x = g.leaf(Tensor::from_vec(t, heads * hd, vec![0.1; t * heads * hd]));
            let groups = RowGroups::from_lens(&[t]);
            let probs: Vec<_> = (0..heads)
                .map(|h| g.attention_scores_grouped(x, x, h * hd..(h + 1) * hd, 0.5, &groups))
                .collect();
            let ctx = g.matmul_grouped(&probs, x, &groups);
            g.backward(g.sum_all(ctx)).recycle();
            report()
        });
        let find = |op: &str, backward: bool| r.ops.iter().find(|o| o.op == op && o.backward == backward).unwrap();
        // One head's q·kᵀ is 2·T·T·head_dim, not 2·T·T·hidden.
        let scores = find("attention_scores_grouped", false);
        assert_eq!(scores.calls, heads as u64);
        assert_eq!(scores.flops, (heads * (2 * t * t * hd + 7 * t * t)) as u64);
        assert_eq!(find("attention_scores_grouped", true).flops, 2 * scores.flops);
        // All heads' probs·values in one node: 2·T·T·hidden.
        assert_eq!(find("matmul_grouped", false).flops, (2 * t * t * heads * hd) as u64);
        assert!(r.ops.iter().all(|o| o.op != "slice_cols" && o.op != "concat_cols"));
    }

    #[test]
    fn helper_lane_ops_join_the_callers_report_and_its_wait_is_not_billed() {
        let r = with_clean_profiler(|| {
            let _outer = scope("x");
            let g = Graph::new();
            let a = g.leaf(Tensor::row(&[1.0]));
            let lane = lane();
            let ops = std::thread::scope(|s| {
                s.spawn(|| {
                    lane.run(|| {
                        let g = Graph::new();
                        let a = g.leaf(Tensor::row(&[1.0, 2.0]));
                        let _ = g.relu(a);
                        std::thread::sleep(std::time::Duration::from_millis(50));
                    })
                    .1
                })
                .join()
                .unwrap()
            });
            absorb(ops);
            let _ = g.scale(a, 2.0);
            drop(_outer);
            report()
        });
        let relu = r.ops.iter().find(|o| o.op == "relu").expect("the helper's op");
        assert_eq!((relu.path.as_str(), relu.calls), ("x", 1));
        let leaves = r.ops.iter().find(|o| o.op == "leaf").expect("leaf row");
        assert_eq!(leaves.calls, 2, "one leaf per thread, merged into one row");
        let scale = r.ops.iter().find(|o| o.op == "scale").expect("the caller's op");
        assert!(scale.self_ns < 10_000_000, "the caller's wait was billed to its next op: {} ns", scale.self_ns);
        assert_eq!(r.phases.len(), 1, "absorbing must not invent phases: {:?}", r.phases);
    }

    #[test]
    fn a_lane_captured_while_disabled_records_nothing() {
        reset();
        let lane = lane();
        let ((), ops) = std::thread::scope(|s| {
            s.spawn(|| {
                lane.run(|| {
                    let g = Graph::new();
                    let _ = g.leaf(Tensor::row(&[1.0]));
                })
            })
            .join()
            .unwrap()
        });
        absorb(ops);
        assert!(report().ops.is_empty());
    }

    #[test]
    fn flop_estimates_cover_the_gemm_family() {
        // out [4,5] = [4,3]·[3,5]
        assert_eq!(estimate_flops("matmul", &[(4, 3), (3, 5)], (4, 5)), 2 * 4 * 3 * 5);
        // nt: [4,3]·[5,3]ᵀ
        assert_eq!(estimate_flops("matmul_nt", &[(4, 3), (5, 3)], (4, 5)), 2 * 4 * 3 * 5);
        // tn: [3,4]ᵀ·[3,5]
        assert_eq!(estimate_flops("matmul_tn", &[(3, 4), (3, 5)], (4, 5)), 2 * 4 * 3 * 5);
        assert_eq!(estimate_flops("embedding", &[], (7, 16)), 0);
        assert!(estimate_flops("gelu", &[(2, 8)], (2, 8)) > 0);
    }
}
