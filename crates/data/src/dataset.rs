//! The in-memory row-oriented dataset.

use columnsgd_linalg::{FeatureIndex, SparseVector, Value};

use crate::block::{Block, BlockQueue};

/// A row-oriented, in-memory training dataset: `(label, features)` rows.
///
/// This plays the role of the HDFS row store in the paper — the *source*
/// representation before the row-to-column transformation. RowSGD baselines
/// consume row partitions of it directly; ColumnSGD runs the block-based
/// dispatch of §IV-A over it.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    rows: Vec<(Value, SparseVector)>,
    dim: FeatureIndex,
}

impl Dataset {
    /// Builds a dataset from labelled rows; the dimension is inferred as
    /// the largest feature index + 1.
    pub fn from_rows(rows: Vec<(Value, SparseVector)>) -> Self {
        let dim = rows
            .iter()
            .map(|(_, x)| x.dimension_bound())
            .max()
            .unwrap_or(0);
        Self { rows, dim }
    }

    /// Builds a dataset with an explicit dimension (≥ the inferred one),
    /// for sweeps where the model size exceeds any observed index.
    pub fn with_dimension(rows: Vec<(Value, SparseVector)>, dim: FeatureIndex) -> Self {
        let inferred = rows
            .iter()
            .map(|(_, x)| x.dimension_bound())
            .max()
            .unwrap_or(0);
        assert!(
            dim >= inferred,
            "declared dimension {dim} < inferred {inferred}"
        );
        Self { rows, dim }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The model dimension m.
    pub fn dimension(&self) -> FeatureIndex {
        self.dim
    }

    /// Row `r` as `(label, features)`.
    pub fn row(&self, r: usize) -> (&Value, &SparseVector) {
        let (y, x) = &self.rows[r];
        (y, x)
    }

    /// Iterates over all rows.
    pub fn iter(&self) -> impl Iterator<Item = &(Value, SparseVector)> {
        self.rows.iter()
    }

    /// Total nonzeros across all rows.
    pub fn total_nnz(&self) -> usize {
        self.rows.iter().map(|(_, x)| x.nnz()).sum()
    }

    /// Average nonzeros per row.
    pub fn avg_nnz(&self) -> f64 {
        if self.rows.is_empty() {
            0.0
        } else {
            self.total_nnz() as f64 / self.rows.len() as f64
        }
    }

    /// Splits the dataset into `k` contiguous horizontal (row) partitions,
    /// as MLlib does when each worker loads one shard (Algorithm 2 line 10),
    /// borrowed in place: a caller copies each partition once, into
    /// whatever form it ships.
    ///
    /// Partition sizes differ by at most one row; the first `len % k`
    /// partitions hold the extra rows.
    pub fn row_slices(&self, k: usize) -> Vec<&[(Value, SparseVector)]> {
        assert!(k > 0, "need at least one partition");
        let n = self.rows.len();
        let (base, extra) = (n / k, n % k);
        let mut rest = self.rows.as_slice();
        (0..k)
            .map(|p| {
                let (part, tail) = rest.split_at(base + usize::from(p < extra));
                rest = tail;
                part
            })
            .collect()
    }

    /// Organizes the rows into a [`BlockQueue`] of row blocks of
    /// `block_size` rows each (§IV-A step 1: "The master organizes the
    /// row-based training data into a queue of blocks").
    pub fn into_block_queue(&self, block_size: usize) -> BlockQueue {
        assert!(block_size > 0, "block size must be positive");
        let mut queue = BlockQueue::new();
        for (bid, chunk) in self.rows.chunks(block_size).enumerate() {
            queue.push(Block::from_rows(bid as u64, chunk));
        }
        queue
    }

    /// Takes the rows out of the dataset.
    pub fn into_rows(self) -> Vec<(Value, SparseVector)> {
        self.rows
    }

    /// Deterministic train/test split: approximately `test_frac` of the
    /// rows (selected by a seeded hash of their position, so the split is
    /// stable across runs) go to the second dataset.
    pub fn split(&self, test_frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!(
            (0.0..1.0).contains(&test_frac),
            "test fraction must be in [0, 1), got {test_frac}"
        );
        let threshold = (test_frac * u64::MAX as f64) as u64;
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (i, row) in self.rows.iter().enumerate() {
            let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^= z >> 31;
            if z < threshold {
                test.push(row.clone());
            } else {
                train.push(row.clone());
            }
        }
        (
            Dataset {
                rows: train,
                dim: self.dim,
            },
            Dataset {
                rows: test,
                dim: self.dim,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> Dataset {
        Dataset::from_rows(
            (0..n)
                .map(|i| {
                    (
                        if i % 2 == 0 { 1.0 } else { -1.0 },
                        SparseVector::from_pairs(vec![(i as u64, 1.0), ((i + 7) as u64, 0.5)]),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn dimension_inferred_from_rows() {
        let ds = toy(5);
        assert_eq!(ds.dimension(), 4 + 7 + 1);
        assert_eq!(ds.len(), 5);
    }

    #[test]
    fn with_dimension_extends() {
        let ds = Dataset::with_dimension(toy(3).into_rows(), 1000);
        assert_eq!(ds.dimension(), 1000);
    }

    #[test]
    #[should_panic(expected = "declared dimension")]
    fn with_dimension_rejects_too_small() {
        let _ = Dataset::with_dimension(toy(3).into_rows(), 2);
    }

    #[test]
    fn row_partitions_balanced_and_complete() {
        let ds = toy(10);
        let parts = ds.row_slices(3);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        // The partitions are the dataset's rows, in order, borrowed.
        let rows: Vec<_> = ds.iter().collect();
        let joined: Vec<_> = parts.iter().flat_map(|p| p.iter()).collect();
        assert_eq!(joined, rows);
        assert!(std::ptr::eq(parts[0].as_ptr(), rows[0]));
    }

    #[test]
    fn block_queue_covers_all_rows() {
        let ds = toy(10);
        let q = ds.into_block_queue(4);
        assert_eq!(q.len(), 3);
        let total: usize = q.iter().map(|b| b.nrows()).sum();
        assert_eq!(total, 10);
        assert_eq!(
            q.iter().map(|b| b.nrows()).collect::<Vec<_>>(),
            vec![4, 4, 2]
        );
    }

    #[test]
    fn split_is_deterministic_and_partitioning() {
        let ds = toy(1000);
        let (train, test) = ds.split(0.25, 7);
        assert_eq!(train.len() + test.len(), ds.len());
        // ~25% ± generous slack.
        assert!((150..350).contains(&test.len()), "test size {}", test.len());
        // Deterministic.
        let (train2, test2) = ds.split(0.25, 7);
        assert_eq!(train.len(), train2.len());
        assert_eq!(test.len(), test2.len());
        // Different seed, different split.
        let (_, test3) = ds.split(0.25, 8);
        assert!(test3.iter().zip(test.iter()).any(|(a, b)| a != b) || test3.len() != test.len());
        // Dimensions preserved.
        assert_eq!(train.dimension(), ds.dimension());
        assert_eq!(test.dimension(), ds.dimension());
    }

    #[test]
    #[should_panic(expected = "test fraction")]
    fn split_rejects_bad_fraction() {
        let _ = toy(10).split(1.5, 0);
    }

    #[test]
    fn nnz_stats() {
        let ds = toy(4);
        assert_eq!(ds.total_nnz(), 8);
        assert_eq!(ds.avg_nnz(), 2.0);
        assert_eq!(Dataset::default().avg_nnz(), 0.0);
    }
}
