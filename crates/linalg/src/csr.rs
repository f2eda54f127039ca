//! Compressed Sparse Row (CSR) matrices.
//!
//! The paper uses CSR to encode worksets before shuffling them between
//! workers (§IV-A: "we use the Compressed Sparse Row (CSR) format to
//! represent each workset"), which is a large part of why block-based column
//! dispatching beats the naive row-at-a-time scheme in Figure 7: one CSR
//! object per (block, destination) pair instead of one object per row piece.

use crate::{FeatureIndex, SparseVector, Value};

/// A CSR matrix whose rows are sparse vectors with *global* column indices.
///
/// `indptr` has `nrows + 1` entries; row `r`'s nonzeros live at
/// `indices[indptr[r]..indptr[r+1]]` / `values[..]`. Labels are stored
/// alongside because every block/workset in this system carries them
/// (cf. Figure 5's "data organization in one workset": labels + index
/// pointer + indices + values).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CsrMatrix {
    indptr: Vec<usize>,
    indices: Vec<FeatureIndex>,
    values: Vec<Value>,
    labels: Vec<Value>,
}

impl CsrMatrix {
    /// An empty matrix with zero rows.
    pub fn new() -> Self {
        Self {
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Builds a CSR matrix from labelled sparse rows.
    pub fn from_rows(rows: &[(Value, SparseVector)]) -> Self {
        let total_nnz = rows.iter().map(|(_, r)| r.nnz()).sum();
        let mut m = Self {
            indptr: Vec::with_capacity(rows.len() + 1),
            indices: Vec::with_capacity(total_nnz),
            values: Vec::with_capacity(total_nnz),
            labels: Vec::with_capacity(rows.len()),
        };
        m.indptr.push(0);
        for (label, row) in rows {
            m.push_row(*label, row);
        }
        m
    }

    /// Appends one labelled row.
    pub fn push_row(&mut self, label: Value, row: &SparseVector) {
        self.indices.extend_from_slice(row.indices());
        self.values.extend_from_slice(row.values());
        self.indptr.push(self.indices.len());
        self.labels.push(label);
    }

    /// Appends one labelled row from raw parallel slices (must be sorted,
    /// duplicate-free — debug-asserted).
    pub fn push_raw_row(&mut self, label: Value, indices: &[FeatureIndex], values: &[Value]) {
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
        self.indices.extend_from_slice(indices);
        self.values.extend_from_slice(values);
        self.indptr.push(self.indices.len());
        self.labels.push(label);
    }

    /// Removes all rows while keeping the allocated capacity of every
    /// internal buffer — the batch-rebuild hot path reuses one matrix per
    /// partition across training iterations instead of reallocating.
    pub fn clear(&mut self) {
        self.indptr.clear();
        self.indptr.push(0);
        self.indices.clear();
        self.values.clear();
        self.labels.clear();
    }

    /// Reserves capacity for at least `rows` additional rows carrying
    /// `nnz` additional nonzeros in total.
    pub fn reserve(&mut self, rows: usize, nnz: usize) {
        self.indptr.reserve(rows);
        self.labels.reserve(rows);
        self.indices.reserve(nnz);
        self.values.reserve(nnz);
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.nrows() == 0
    }

    /// Total number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The label of row `r`.
    pub fn label(&self, r: usize) -> Value {
        self.labels[r]
    }

    /// All labels.
    pub fn labels(&self) -> &[Value] {
        &self.labels
    }

    /// The `nrows + 1` row offsets into [`CsrMatrix::indices`].
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// All rows' column indices, concatenated.
    pub fn indices(&self) -> &[FeatureIndex] {
        &self.indices
    }

    /// All rows' values, concatenated.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Borrowed view of row `r` as (indices, values).
    pub fn row(&self, r: usize) -> (&[FeatureIndex], &[Value]) {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Row `r` materialized as an owned [`SparseVector`].
    pub fn row_vector(&self, r: usize) -> SparseVector {
        let (idx, val) = self.row(r);
        SparseVector::from_sorted(idx.to_vec(), val.to_vec())
    }

    /// Iterates `(label, indices, values)` over all rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = (Value, &[FeatureIndex], &[Value])> + '_ {
        (0..self.nrows()).map(move |r| {
            let (i, v) = self.row(r);
            (self.labels[r], i, v)
        })
    }

    /// Dot product of row `r` against a dense model, treating out-of-range
    /// indices as absent (used when the model covers a column partition).
    pub fn row_dot_dense(&self, r: usize, model: &[Value]) -> Value {
        let (idx, val) = self.row(r);
        let mut acc = 0.0;
        for (&i, &v) in idx.iter().zip(val) {
            if let Some(w) = model.get(i as usize) {
                acc += v * w;
            }
        }
        acc
    }

    /// Largest stored column index plus one (0 if there are no nonzeros).
    pub fn dimension_bound(&self) -> FeatureIndex {
        self.indices.iter().copied().max().map_or(0, |i| i + 1)
    }

    /// Checks structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.is_empty() {
            return Err("indptr must have at least one entry".into());
        }
        if self.indptr[0] != 0 {
            return Err("indptr must start at 0".into());
        }
        if *self.indptr.last().expect("nonempty") != self.indices.len() {
            return Err("indptr must end at nnz".into());
        }
        if self.indices.len() != self.values.len() {
            return Err("indices/values length mismatch".into());
        }
        if self.labels.len() != self.nrows() {
            return Err("labels length must equal nrows".into());
        }
        for w in self.indptr.windows(2) {
            if w[0] > w[1] {
                return Err("indptr must be nondecreasing".into());
            }
        }
        for r in 0..self.nrows() {
            let (idx, _) = self.row(r);
            if !idx.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("row {r} indices not strictly increasing"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_rows(&[
            (-1.0, SparseVector::from_pairs(vec![(0, 0.3), (2, 0.5)])),
            (-1.0, SparseVector::from_pairs(vec![(2, 0.8)])),
            (
                1.0,
                SparseVector::from_pairs(vec![(0, 0.1), (1, 0.9), (2, 0.1)]),
            ),
        ])
    }

    #[test]
    fn figure5_layout() {
        // The example matrix from Figure 5 of the paper.
        let m = sample();
        m.validate().unwrap();
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.labels(), &[-1.0, -1.0, 1.0]);
        let (idx, val) = m.row(1);
        assert_eq!(idx, &[2]);
        assert_eq!(val, &[0.8]);
    }

    #[test]
    fn row_vector_roundtrip() {
        let m = sample();
        let r2 = m.row_vector(2);
        assert_eq!(r2.indices(), &[0, 1, 2]);
        assert_eq!(r2.values(), &[0.1, 0.9, 0.1]);
    }

    #[test]
    fn row_dot_dense_partial_model() {
        let m = sample();
        // Model only covers dimensions 0..2.
        let w = [2.0, 1.0];
        assert!((m.row_dot_dense(0, &w) - 0.6).abs() < 1e-12);
        assert!((m.row_dot_dense(2, &w) - (0.2 + 0.9)).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_valid() {
        let m = CsrMatrix::new();
        m.validate().unwrap();
        assert!(m.is_empty());
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn dimension_bound() {
        assert_eq!(sample().dimension_bound(), 3);
        assert_eq!(CsrMatrix::new().dimension_bound(), 0);
    }

    #[test]
    fn clear_keeps_capacity_and_resets_contents() {
        let mut m = sample();
        let cap = (m.indices.capacity(), m.labels.capacity());
        m.clear();
        m.validate().unwrap();
        assert!(m.is_empty());
        assert_eq!(m.nnz(), 0);
        assert!(m.indices.capacity() >= cap.0);
        assert!(m.labels.capacity() >= cap.1);
        // Refilling after clear produces exactly the original matrix.
        let fresh = sample();
        for (y, idx, val) in fresh.iter_rows() {
            m.push_raw_row(y, idx, val);
        }
        assert_eq!(m, fresh);
    }

    #[test]
    fn validate_catches_corruption() {
        let mut m = sample();
        m.labels.pop();
        assert!(m.validate().is_err());
    }
}
