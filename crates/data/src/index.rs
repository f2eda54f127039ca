//! The two-phase indexing scheme for mini-batch sampling (§IV-A2).
//!
//! "When sampling a data point/row, each worker first draws a workset key
//! using the same random seed (e.g., the current iteration number). This
//! ensures that the workers can locate worksets from the same block
//! simultaneously. Within that workset, each worker further draws an
//! ordinal offset, again using the same random seed. This enables
//! simultaneous landing on the same row in each worker."
//!
//! [`TwoPhaseIndex`] implements that contract: built over the (block →
//! row-count) layout shared by all workers, it maps a `(seed, iteration,
//! batch)` request to a deterministic list of `(block, offset)` addresses.
//! Every worker constructs the same index (the block layout is identical on
//! every worker by construction of the dispatch) and therefore draws the
//! same logical rows with **zero coordination messages**.

use columnsgd_linalg::rng;
use rand::Rng;

use crate::block::BlockId;

/// A logical row address: which block, and which ordinal inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowAddr {
    /// Block (= workset) key.
    pub block: BlockId,
    /// Ordinal offset of the row within the block.
    pub offset: usize,
}

/// Deterministic two-phase sampler over a block layout.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoPhaseIndex {
    /// `(block id, cumulative row count up to and including this block)`,
    /// in a canonical (sorted by block id) order so every worker builds the
    /// identical table regardless of workset arrival order.
    cumulative: Vec<(BlockId, usize)>,
    total_rows: usize,
    experiment_seed: u64,
}

impl TwoPhaseIndex {
    /// Builds the index from `(block id, row count)` pairs and the
    /// experiment-wide seed shared by master and workers.
    pub fn new(blocks: impl IntoIterator<Item = (BlockId, usize)>, experiment_seed: u64) -> Self {
        let mut sizes: Vec<(BlockId, usize)> = blocks.into_iter().collect();
        sizes.sort_unstable_by_key(|&(b, _)| b);
        let mut cumulative = Vec::with_capacity(sizes.len());
        let mut total = 0usize;
        for (b, n) in sizes {
            assert!(n > 0, "block {b} has zero rows");
            total += n;
            cumulative.push((b, total));
        }
        Self {
            cumulative,
            total_rows: total,
            experiment_seed,
        }
    }

    /// Total rows addressable by the index.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.cumulative.len()
    }

    /// Phase-1 + phase-2 lookup: maps a global row ordinal to an address.
    fn addr_of(&self, global: usize) -> RowAddr {
        debug_assert!(global < self.total_rows);
        // Phase 1: find the block via the cumulative table.
        let pos = self.cumulative.partition_point(|&(_, cum)| cum <= global);
        let (block, _) = self.cumulative[pos];
        // Phase 2: the ordinal offset within that block.
        let start = if pos == 0 {
            0
        } else {
            self.cumulative[pos - 1].1
        };
        RowAddr {
            block,
            offset: global - start,
        }
    }

    /// Draws the mini-batch for `iteration`: `batch` row addresses, sampled
    /// uniformly over all rows, identical on every worker that shares the
    /// same layout and seed.
    pub fn sample_batch(&self, iteration: u64, batch: usize) -> Vec<RowAddr> {
        let mut out = Vec::with_capacity(batch);
        self.sample_batch_into(iteration, batch, &mut out);
        out
    }

    /// Like [`TwoPhaseIndex::sample_batch`], but writes into a caller-owned
    /// buffer so the per-iteration hot path can reuse one allocation across
    /// supersteps. `out` is cleared first; the sampled addresses are
    /// identical to `sample_batch`'s.
    pub fn sample_batch_into(&self, iteration: u64, batch: usize, out: &mut Vec<RowAddr>) {
        assert!(self.total_rows > 0, "cannot sample from an empty index");
        out.clear();
        let mut rng = rng::iteration_rng(self.experiment_seed, iteration);
        out.extend((0..batch).map(|_| self.addr_of(rng.gen_range(0..self.total_rows))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_cover_blocks_proportionally() {
        let idx = TwoPhaseIndex::new([(0, 10), (1, 10), (2, 80)], 42);
        let batch = idx.sample_batch(0, 10_000);
        assert_eq!(batch.len(), 10_000);
        let in_block2 = batch.iter().filter(|a| a.block == 2).count();
        // ~80% of samples should land in block 2.
        assert!((7_000..9_000).contains(&in_block2), "got {in_block2}");
        assert!(batch.iter().all(|a| {
            let cap = match a.block {
                0 | 1 => 10,
                2 => 80,
                _ => 0,
            };
            a.offset < cap
        }));
    }

    #[test]
    fn workers_agree_regardless_of_insertion_order() {
        let a = TwoPhaseIndex::new([(0, 5), (1, 7), (2, 3)], 9);
        let b = TwoPhaseIndex::new([(2, 3), (0, 5), (1, 7)], 9);
        assert_eq!(a, b);
        assert_eq!(a.sample_batch(5, 64), b.sample_batch(5, 64));
    }

    #[test]
    fn iterations_draw_different_batches() {
        let idx = TwoPhaseIndex::new([(0, 100)], 1);
        assert_ne!(idx.sample_batch(0, 32), idx.sample_batch(1, 32));
    }

    #[test]
    fn same_iteration_is_stable() {
        let idx = TwoPhaseIndex::new([(0, 50), (3, 50)], 123);
        assert_eq!(idx.sample_batch(7, 16), idx.sample_batch(7, 16));
    }

    #[test]
    fn sample_into_reused_buffer_matches_fresh_allocation() {
        let idx = TwoPhaseIndex::new([(0, 40), (1, 60)], 17);
        let mut buf = Vec::new();
        for t in 0..5 {
            idx.sample_batch_into(t, 32, &mut buf);
            assert_eq!(buf, idx.sample_batch(t, 32), "iteration {t}");
        }
        // A dirty, oversized buffer is fully overwritten.
        idx.sample_batch_into(9, 8, &mut buf);
        assert_eq!(buf.len(), 8);
        assert_eq!(buf, idx.sample_batch(9, 8));
    }

    #[test]
    fn single_block_offsets_in_range() {
        let idx = TwoPhaseIndex::new([(9, 13)], 0);
        for addr in idx.sample_batch(2, 100) {
            assert_eq!(addr.block, 9);
            assert!(addr.offset < 13);
        }
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn rejects_empty_blocks() {
        let _ = TwoPhaseIndex::new([(0, 0)], 0);
    }

    #[test]
    #[should_panic(expected = "empty index")]
    fn rejects_sampling_empty_index() {
        let idx = TwoPhaseIndex::new([], 0);
        let _ = idx.sample_batch(0, 1);
    }
}
