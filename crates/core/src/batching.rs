//! Length-bucketed sub-batch planning for batched training.
//!
//! An optimizer window (the gradient-accumulation span of `batch_size`
//! consecutive examples of the epoch's shuffled order) is split into
//! sub-batches of similar sequence length so each packed forward pass wastes
//! little work on the ragged tail: lengths are rounded up to a multiple of
//! [`BUCKET_WIDTH`] and examples sharing a rounded length run together.
//! Inference does not bucket: its grouped kernels give the same bits
//! whatever a batch's composition, so bucketing would only split a call into
//! more launches.
//!
//! The plan is a pure function of the window's lengths — no RNG, no
//! wall-clock — so a resumed run that replays the same shuffled order
//! rebuilds the identical sub-batches, keeping crash-safe resume bit-exact.

/// Bucket granularity in tokens. Sequence lengths are rounded up to the next
/// multiple of this when grouping; within one sub-batch lengths differ by
/// less than `BUCKET_WIDTH`, which bounds the padded width `W − T` of every
/// grouped score matrix.
pub const BUCKET_WIDTH: usize = 8;

/// Splits one window into length-bucketed sub-batches.
///
/// `lens[i]` is the token length of the window's `i`-th example. Returns
/// disjoint position lists covering `0..lens.len()`: buckets appear in order
/// of first appearance and each preserves window order, so the plan is
/// deterministic.
pub fn plan_sub_batches(lens: &[usize]) -> Vec<Vec<usize>> {
    let mut buckets: Vec<(usize, Vec<usize>)> = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        let key = len.div_ceil(BUCKET_WIDTH);
        match buckets.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => buckets.push((key, vec![i])),
        }
    }
    buckets.into_iter().map(|(_, members)| members).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_position_exactly_once() {
        let lens = [3, 17, 8, 9, 1, 25, 16];
        let plan = plan_sub_batches(&lens);
        let mut seen: Vec<usize> = plan.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..lens.len()).collect::<Vec<_>>());
    }

    #[test]
    fn same_bucket_examples_share_a_sub_batch_in_window_order() {
        // 3, 8, 1 round to bucket 1; 9 and 16 share bucket 2; 17 and 25
        // stand alone in buckets 3 and 4.
        let plan = plan_sub_batches(&[3, 17, 8, 9, 1, 25, 16]);
        assert_eq!(plan, vec![vec![0, 2, 4], vec![1], vec![3, 6], vec![5]]);
    }

    #[test]
    fn lengths_within_a_sub_batch_differ_by_less_than_the_bucket_width() {
        let lens: Vec<usize> = (0..64).map(|i| (i * 37) % 50 + 1).collect();
        for sub in plan_sub_batches(&lens) {
            let min = sub.iter().map(|&i| lens[i]).min().unwrap();
            let max = sub.iter().map(|&i| lens[i]).max().unwrap();
            assert!(max - min < BUCKET_WIDTH, "bucket spans {min}..={max}");
        }
    }

    #[test]
    fn empty_window_plans_to_nothing() {
        assert!(plan_sub_batches(&[]).is_empty());
    }

    #[test]
    fn plan_is_deterministic() {
        let lens: Vec<usize> = (0..40).map(|i| (i * 13) % 30 + 1).collect();
        assert_eq!(plan_sub_batches(&lens), plan_sub_batches(&lens));
    }
}
