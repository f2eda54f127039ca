//! Worksets: column-partitioned block pieces.
//!
//! §IV-A: a worker that receives a block "reads in the block, and splits it
//! into K worksets. Each workset contains a column-based partition of the
//! rows in this block as well as the block ID", encoded in CSR, and ships
//! each workset to its destination worker, where all received worksets are
//! organized as a hash map keyed by block ID (Algorithm 4 line 7).
//!
//! Feature indices inside a workset are **remapped to the owner's local
//! model slots** at split time, so that statistics computation is a plain
//! CSR×dense product against the local model partition with no per-nonzero
//! translation during training.

use columnsgd_linalg::{CsrMatrix, FeatureIndex, Value};

use crate::block::{Block, BlockId};
use crate::partition::ColumnPartitioner;

/// One column-partition of one block, destined for a single worker.
///
/// Invariant: `data.nrows()` equals the source block's row count — rows with
/// no features in this partition are present but empty, so the (block,
/// offset) addressing of the two-phase index stays aligned across workers.
#[derive(Debug, Clone, PartialEq)]
pub struct Workset {
    /// ID of the source block.
    pub block_id: BlockId,
    /// Column-partitioned rows; indices are *local model slots*.
    pub data: CsrMatrix,
}

impl Workset {
    /// Number of rows (equals the source block's row count).
    pub fn nrows(&self) -> usize {
        self.data.nrows()
    }
}

/// Splits a block into one workset per worker (Algorithm 4, lines 2-6).
///
/// Every output workset has the same number of rows as the block; global
/// feature indices are remapped to the owner's local slots. Each
/// workset's CSR is sized once from a count of its nonzeros, and rows are
/// assembled in per-worker scratch reused across the whole block.
pub fn split_block(block: &Block, part: &ColumnPartitioner) -> Vec<Workset> {
    let k = part.num_workers();
    let src = block.csr();
    let mut nnz = vec![0usize; k];
    for &i in src.indices() {
        nnz[part.owner(i)] += 1;
    }
    let mut csrs: Vec<CsrMatrix> = nnz
        .iter()
        .map(|&n| {
            let mut m = CsrMatrix::new();
            m.reserve(src.nrows(), n);
            m
        })
        .collect();
    let mut slots: Vec<Vec<FeatureIndex>> = vec![Vec::new(); k];
    let mut vals: Vec<Vec<Value>> = vec![Vec::new(); k];
    for (label, idx, val) in src.iter_rows() {
        for (&i, &v) in idx.iter().zip(val) {
            let w = part.owner(i);
            slots[w].push(part.local_slot(i) as FeatureIndex);
            vals[w].push(v);
        }
        // Local slots inherit the global ordering within one worker for
        // both partitioner kinds, so each row's slots arrive sorted.
        for ((csr, s), v) in csrs.iter_mut().zip(&mut slots).zip(&mut vals) {
            csr.push_raw_row(label, s, v);
            s.clear();
            v.clear();
        }
    }
    csrs.into_iter()
        .map(|data| Workset {
            block_id: block.id(),
            data,
        })
        .collect()
}

/// The per-worker store of received worksets (Algorithm 4 line 7:
/// "Organize all worksets in each worker as a hash map"). The map is a
/// block-id-sorted vector: a worker holds few blocks and looks one up per
/// sampled row, so a binary search beats hashing the id.
#[derive(Debug, Clone, Default)]
pub struct WorksetStore {
    /// Worksets sorted by block id.
    sorted: Vec<Workset>,
    /// Block IDs in insertion order with cumulative row counts, kept for
    /// O(log #blocks) row addressing by the two-phase index.
    order: Vec<(BlockId, usize)>,
    total_rows: usize,
}

impl WorksetStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a received workset.
    ///
    /// # Panics
    /// Panics if a workset with the same block ID was already inserted —
    /// each (block, worker) pair is shipped exactly once.
    pub fn insert(&mut self, ws: Workset) {
        let rows = ws.nrows();
        let bid = ws.block_id;
        let at = self.position(bid);
        assert!(at.is_err(), "duplicate workset for block {bid}");
        self.sorted.insert(at.unwrap_or_else(|at| at), ws);
        self.total_rows += rows;
        let prior = self.order.last().map_or(0, |&(_, cum)| cum);
        self.order.push((bid, prior + rows));
    }

    /// Where `block_id` is (`Ok`) or would be inserted (`Err`).
    fn position(&self, block_id: BlockId) -> Result<usize, usize> {
        self.sorted
            .binary_search_by_key(&block_id, |ws| ws.block_id)
    }

    /// Number of worksets held.
    pub fn num_blocks(&self) -> usize {
        self.sorted.len()
    }

    /// Total rows across all worksets.
    pub fn total_rows(&self) -> usize {
        self.total_rows
    }

    /// The workset for `block_id`, if present.
    pub fn get(&self, block_id: BlockId) -> Option<&Workset> {
        self.position(block_id).ok().map(|i| &self.sorted[i])
    }

    /// Removes every workset (worker-failure recovery path).
    pub fn clear(&mut self) {
        self.sorted.clear();
        self.order.clear();
        self.total_rows = 0;
    }

    /// Iterates `(block_id, workset)` in block-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockId, &Workset)> {
        self.sorted.iter().map(|ws| (&ws.block_id, ws))
    }

    /// Block IDs with cumulative row counts in insertion order — the
    /// phase-one lookup table of the two-phase index.
    pub fn cumulative_rows(&self) -> &[(BlockId, usize)] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_linalg::SparseVector;

    fn block(id: BlockId, n: usize, dim: u64) -> Block {
        let rows: Vec<(Value, SparseVector)> = (0..n)
            .map(|r| {
                let pairs = (0..dim)
                    .filter(|i| (i + r as u64).is_multiple_of(3))
                    .map(|i| (i, (i + 1) as f64))
                    .collect();
                (
                    if r % 2 == 0 { 1.0 } else { -1.0 },
                    SparseVector::from_pairs(pairs),
                )
            })
            .collect();
        Block::from_rows(id, &rows)
    }

    #[test]
    fn split_preserves_row_count_and_nnz() {
        let b = block(3, 5, 20);
        let p = ColumnPartitioner::round_robin(4);
        let ws = split_block(&b, &p);
        assert_eq!(ws.len(), 4);
        for w in &ws {
            assert_eq!(w.nrows(), 5);
            assert_eq!(w.block_id, 3);
            w.data.validate().unwrap();
        }
        let total: usize = ws.iter().map(|w| w.data.nnz()).sum();
        assert_eq!(total, b.csr().nnz());
    }

    #[test]
    fn split_remaps_to_local_slots_losslessly() {
        let b = block(0, 4, 15);
        for p in [
            ColumnPartitioner::round_robin(3),
            ColumnPartitioner::range(3, 15),
        ] {
            let ws = split_block(&b, &p);
            // Reconstruct each row from the worksets and compare.
            for r in 0..b.nrows() {
                let (label, orig) = b.row(r);
                let mut pairs = Vec::new();
                for (w, wset) in ws.iter().enumerate() {
                    assert_eq!(wset.data.label(r), label);
                    let (slots, vals) = wset.data.row(r);
                    for (&s, &v) in slots.iter().zip(vals) {
                        pairs.push((p.global_index(w, s as usize), v));
                    }
                }
                assert_eq!(SparseVector::from_pairs(pairs), orig);
            }
        }
    }

    #[test]
    fn store_tracks_rows_and_blocks() {
        let p = ColumnPartitioner::round_robin(2);
        let mut store = WorksetStore::new();
        for id in [2u64, 0, 1] {
            let ws = split_block(&block(id, 4, 8), &p);
            store.insert(ws.into_iter().next().unwrap());
        }
        assert_eq!(store.num_blocks(), 3);
        assert_eq!(store.total_rows(), 12);
        assert_eq!(store.get(1).map(|ws| ws.block_id), Some(1));
        assert!(store.get(9).is_none());
        // Iteration is by block id; row addressing keeps arrival order.
        let ids: Vec<u64> = store.iter().map(|(&bid, _)| bid).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let cum = store.cumulative_rows();
        assert_eq!(cum, &[(2, 4), (0, 8), (1, 12)]);
        store.clear();
        assert_eq!(store.total_rows(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate workset")]
    fn store_rejects_duplicates() {
        let p = ColumnPartitioner::round_robin(2);
        let mut store = WorksetStore::new();
        let ws = split_block(&block(0, 2, 4), &p);
        store.insert(ws[0].clone());
        store.insert(ws[0].clone());
    }
}
