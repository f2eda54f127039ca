//! Sparse vectors: the representation of individual (partial) data points.

use crate::{DenseVector, FeatureIndex, Value};

/// A sparse vector stored as parallel, index-sorted arrays.
///
/// This is the unit of data in the whole reproduction: a training example's
/// feature vector, a column-partition of an example after the row-to-column
/// transformation, and a sparse gradient pushed by a RowSGD worker are all
/// `SparseVector`s.
///
/// Invariants (enforced by constructors, checked by [`SparseVector::validate`]):
/// * `indices.len() == values.len()`
/// * `indices` is strictly increasing (no duplicates)
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    indices: Vec<FeatureIndex>,
    values: Vec<Value>,
}

impl SparseVector {
    /// Creates an empty sparse vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sparse vector with reserved capacity for `cap` nonzeros.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            indices: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Builds a sparse vector from parallel index/value arrays.
    ///
    /// The pairs are sorted by index; duplicate indices are summed (the
    /// behaviour LIBSVM tools use when merging features).
    pub fn from_pairs(mut pairs: Vec<(FeatureIndex, Value)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut out = Self::with_capacity(pairs.len());
        for (i, v) in pairs {
            if let Some(last) = out.indices.last() {
                if *last == i {
                    *out.values.last_mut().expect("values parallel to indices") += v;
                    continue;
                }
            }
            out.indices.push(i);
            out.values.push(v);
        }
        out
    }

    /// Builds a sparse vector from arrays that are already sorted and
    /// duplicate-free.
    ///
    /// # Panics
    /// Panics in debug builds if the invariants do not hold.
    pub fn from_sorted(indices: Vec<FeatureIndex>, values: Vec<Value>) -> Self {
        debug_assert_eq!(indices.len(), values.len());
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        Self { indices, values }
    }

    /// Appends a nonzero with an index larger than all current ones.
    ///
    /// # Panics
    /// Panics if `index` is not strictly greater than the last stored index.
    pub fn push(&mut self, index: FeatureIndex, value: Value) {
        if let Some(&last) = self.indices.last() {
            assert!(
                index > last,
                "push must keep indices strictly increasing ({index} after {last})"
            );
        }
        self.indices.push(index);
        self.values.push(value);
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether the vector stores no nonzeros.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The sorted feature indices.
    pub fn indices(&self) -> &[FeatureIndex] {
        &self.indices
    }

    /// The values parallel to [`SparseVector::indices`].
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Mutable access to the values (indices stay fixed).
    pub fn values_mut(&mut self) -> &mut [Value] {
        &mut self.values
    }

    /// Iterates over `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (FeatureIndex, Value)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// The value at `index`, or 0.0 if it is not stored.
    pub fn get(&self, index: FeatureIndex) -> Value {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Largest stored index plus one, or 0 for an empty vector.
    pub fn dimension_bound(&self) -> FeatureIndex {
        self.indices.last().map_or(0, |&i| i + 1)
    }

    /// Dot product with a dense model vector.
    ///
    /// Indices at or beyond `other.len()` contribute zero, which lets a
    /// caller evaluate a partial model against a full data point.
    pub fn dot_dense(&self, other: &DenseVector) -> Value {
        let d = other.as_slice();
        let mut acc = 0.0;
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            if let Some(w) = d.get(i as usize) {
                acc += v * w;
            }
        }
        acc
    }

    /// Dot product with another sparse vector (merge join over indices).
    pub fn dot_sparse(&self, other: &SparseVector) -> Value {
        let (mut a, mut b) = (0usize, 0usize);
        let mut acc = 0.0;
        while a < self.nnz() && b < other.nnz() {
            match self.indices[a].cmp(&other.indices[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[a] * other.values[b];
                    a += 1;
                    b += 1;
                }
            }
        }
        acc
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> Value {
        self.values.iter().map(|v| v * v).sum()
    }

    /// Scales every stored value in place.
    pub fn scale(&mut self, factor: Value) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// Returns the sub-vector whose indices fall in `[lo, hi)`, with indices
    /// preserved (not re-based).
    pub fn range(&self, lo: FeatureIndex, hi: FeatureIndex) -> SparseVector {
        let start = self.indices.partition_point(|&i| i < lo);
        let end = self.indices.partition_point(|&i| i < hi);
        SparseVector {
            indices: self.indices[start..end].to_vec(),
            values: self.values[start..end].to_vec(),
        }
    }

    /// Splits the vector into `k` parts using `part(index) -> usize`.
    ///
    /// Part `p` receives exactly the nonzeros with `part(i) == p`, with
    /// original (global) indices preserved. This is the column-dispatch
    /// primitive of §IV-A: each part becomes one workset entry.
    pub fn split_by<F: Fn(FeatureIndex) -> usize>(&self, k: usize, part: F) -> Vec<SparseVector> {
        let mut parts = vec![SparseVector::new(); k];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            let p = part(i);
            debug_assert!(p < k, "partitioner returned {p} for k={k}");
            parts[p].indices.push(i);
            parts[p].values.push(v);
        }
        parts
    }

    /// Merges column-partitioned pieces back into one vector.
    ///
    /// The inverse of [`SparseVector::split_by`]; used by tests to verify the
    /// transformation is lossless.
    pub fn merge(parts: &[SparseVector]) -> SparseVector {
        let mut pairs: Vec<(FeatureIndex, Value)> =
            Vec::with_capacity(parts.iter().map(|p| p.nnz()).sum());
        for p in parts {
            pairs.extend(p.iter());
        }
        SparseVector::from_pairs(pairs)
    }

    /// Checks the representation invariants, returning a description of the
    /// first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.indices.len() != self.values.len() {
            return Err(format!(
                "length mismatch: {} indices vs {} values",
                self.indices.len(),
                self.values.len()
            ));
        }
        for w in self.indices.windows(2) {
            if w[0] >= w[1] {
                return Err(format!(
                    "indices not strictly increasing at {} >= {}",
                    w[0], w[1]
                ));
            }
        }
        Ok(())
    }
}

impl FromIterator<(FeatureIndex, Value)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (FeatureIndex, Value)>>(iter: T) -> Self {
        SparseVector::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u64, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    #[test]
    fn from_pairs_sorts_and_merges_duplicates() {
        let v = sv(&[(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(v.indices(), &[2, 5]);
        assert_eq!(v.values(), &[2.0, 4.0]);
        v.validate().unwrap();
    }

    #[test]
    fn get_returns_zero_for_missing() {
        let v = sv(&[(1, 1.5), (9, -2.0)]);
        assert_eq!(v.get(1), 1.5);
        assert_eq!(v.get(2), 0.0);
        assert_eq!(v.get(9), -2.0);
    }

    #[test]
    fn dot_dense_ignores_out_of_range() {
        let v = sv(&[(0, 1.0), (2, 2.0), (100, 7.0)]);
        let w = DenseVector::from_vec(vec![3.0, 0.0, 0.5]);
        assert_eq!(v.dot_dense(&w), 3.0 + 1.0);
    }

    #[test]
    fn dot_sparse_merge_join() {
        let a = sv(&[(0, 1.0), (3, 2.0), (7, 4.0)]);
        let b = sv(&[(3, 5.0), (7, 0.5), (9, 100.0)]);
        assert_eq!(a.dot_sparse(&b), 10.0 + 2.0);
        assert_eq!(a.dot_sparse(&b), b.dot_sparse(&a));
    }

    #[test]
    fn split_and_merge_roundtrip() {
        let v = sv(&[(0, 1.0), (1, 2.0), (5, 3.0), (8, 4.0), (13, 5.0)]);
        let parts = v.split_by(3, |i| (i % 3) as usize);
        assert_eq!(parts.len(), 3);
        for p in &parts {
            p.validate().unwrap();
        }
        assert_eq!(SparseVector::merge(&parts), v);
    }

    #[test]
    fn range_slices_by_global_index() {
        let v = sv(&[(0, 1.0), (4, 2.0), (5, 3.0), (9, 4.0)]);
        let r = v.range(4, 9);
        assert_eq!(r.indices(), &[4, 5]);
        assert_eq!(r.values(), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_rejects_non_increasing() {
        let mut v = sv(&[(3, 1.0)]);
        v.push(3, 2.0);
    }

    #[test]
    fn norm_and_scale() {
        let mut v = sv(&[(1, 3.0), (2, 4.0)]);
        assert_eq!(v.norm_sq(), 25.0);
        v.scale(2.0);
        assert_eq!(v.values(), &[6.0, 8.0]);
    }
}
