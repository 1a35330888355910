//! Two lanes: the calling thread plus one scoped helper thread.
//!
//! [`split`] is where this crate runs work in parallel: catalog matching
//! tokenizes, encodes and scores on two lanes (see
//! [`crate::PairScorer::two_lanes`]).

use emba_tensor::prof;

/// `work` over `items` in two halves, the first on the calling thread and the
/// second on a scoped helper, with the outputs concatenated in order: when
/// an item's output does not depend on its neighbours, the result equals
/// `work(items)`. Fewer than two items run on the caller alone.
///
/// The helper records into this thread's profiler report (see
/// [`prof::lane`]); every other thread-local — the installed backend, the
/// scratch pool — starts fresh on it, so a `work` that needs a backend
/// installs it itself. A panic on the helper resumes on the caller.
pub(crate) fn split<T: Sync, R: Send>(items: &[T], work: impl Fn(&[T]) -> Vec<R> + Sync) -> Vec<R> {
    if items.len() < 2 {
        return work(items);
    }
    let (mine, theirs) = items.split_at(items.len() / 2);
    let lane = prof::lane();
    let (mut out, (theirs, ops)) = std::thread::scope(|s| {
        let helper = s.spawn(|| lane.run(|| work(theirs)));
        let mine = work(mine);
        (mine, helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
    });
    prof::absorb(ops);
    out.extend(theirs);
    out
}
