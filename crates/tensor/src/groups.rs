//! Row-group descriptors for batched (row-packed) execution.
//!
//! The batched forward path packs several variable-length sequences into one
//! `[ΣT, H]` activation matrix with no padding between rows. A [`RowGroups`]
//! value records where each sequence's rows live inside the packed matrix, so
//! grouped tape ops (block-diagonal attention, masked softmax, per-group
//! reductions) can treat each sequence independently without materializing a
//! mask tensor.

use std::sync::Arc;

/// Partition of the rows of a packed matrix into consecutive groups.
///
/// Stored as `G + 1` offsets (`offsets[0] == 0`, strictly increasing is not
/// required — empty groups are legal for degenerate inputs, though the model
/// code never produces them). Cloning is O(1); backward closures capture
/// clones freely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowGroups {
    offsets: Arc<Vec<usize>>,
}

impl RowGroups {
    /// Builds groups from per-group row counts.
    pub fn from_lens(lens: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        let mut total = 0;
        offsets.push(0);
        for &l in lens {
            total += l;
            offsets.push(total);
        }
        Self { offsets: Arc::new(offsets) }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of packed rows (`ΣT`).
    pub fn total(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// Row range `[start, end)` of group `i`.
    pub fn range(&self, i: usize) -> (usize, usize) {
        (self.offsets[i], self.offsets[i + 1])
    }

    /// Number of rows in group `i`.
    pub fn len_of(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// First row of group `i` (group starts double as the packed positions of
    /// the per-sequence CLS tokens).
    pub fn start(&self, i: usize) -> usize {
        self.offsets[i]
    }

    /// Largest group length (the padded width `W` of grouped score/softmax
    /// matrices).
    pub fn max_len(&self) -> usize {
        (0..self.len()).map(|i| self.len_of(i)).max().unwrap_or(0)
    }

    /// Per-group row counts.
    pub fn lens(&self) -> Vec<usize> {
        (0..self.len()).map(|i| self.len_of(i)).collect()
    }

    /// The non-empty row ranges, in order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.len()).map(|i| self.range(i)).filter(|(r0, r1)| r1 > r0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lens_round_trips() {
        let g = RowGroups::from_lens(&[3, 1, 4]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.total(), 8);
        assert_eq!(g.range(0), (0, 3));
        assert_eq!(g.range(1), (3, 4));
        assert_eq!(g.range(2), (4, 8));
        assert_eq!(g.max_len(), 4);
        assert_eq!(g.lens(), vec![3, 1, 4]);
    }

    #[test]
    fn single_group_covers_all_rows() {
        let g = RowGroups::from_lens(&[7]);
        assert_eq!(g.len(), 1);
        assert_eq!(g.total(), 7);
        assert_eq!(g.max_len(), 7);
    }
}
