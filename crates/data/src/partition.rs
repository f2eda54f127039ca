//! Column partitioners: the "predefined partitioning scheme" of §IV-A.
//!
//! A partitioner maps every global feature index to the worker that owns it
//! and to a dense local slot inside that worker's model partition. Data and
//! model use the *same* partitioner — the collocation property that lets
//! ColumnSGD update models without network traffic.

use columnsgd_linalg::FeatureIndex;

/// A deterministic mapping `feature index -> (owner worker, local slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnPartitioner {
    /// Round-robin: feature `i` goes to worker `i mod k`, slot `i / k`.
    /// The paper's example scheme ("e.g., round robin", Algorithm 4) —
    /// balances load even when feature popularity is skewed toward low
    /// indices, which is common in hashed CTR data.
    RoundRobin {
        /// Number of workers.
        k: usize,
    },
    /// Contiguous ranges: worker `w` owns `[w*chunk, (w+1)*chunk)`.
    /// Matches how a columnar store would range-partition; cheaper local
    /// indexing but sensitive to index-locality skew.
    Range {
        /// Number of workers.
        k: usize,
        /// Total model dimension m (needed to size the chunks).
        dim: FeatureIndex,
    },
}

impl ColumnPartitioner {
    /// Round-robin over `k` workers.
    pub fn round_robin(k: usize) -> Self {
        assert!(k > 0, "need at least one worker");
        ColumnPartitioner::RoundRobin { k }
    }

    /// Range partitioning of `dim` features over `k` workers.
    pub fn range(k: usize, dim: FeatureIndex) -> Self {
        assert!(k > 0, "need at least one worker");
        ColumnPartitioner::Range { k, dim }
    }

    /// Number of workers this partitioner spans.
    pub fn num_workers(&self) -> usize {
        match *self {
            ColumnPartitioner::RoundRobin { k } | ColumnPartitioner::Range { k, .. } => k,
        }
    }

    fn chunk(k: usize, dim: FeatureIndex) -> FeatureIndex {
        dim.div_ceil(k as FeatureIndex)
    }

    /// The worker owning feature `i`.
    pub fn owner(&self, i: FeatureIndex) -> usize {
        match *self {
            ColumnPartitioner::RoundRobin { k } => (i % k as FeatureIndex) as usize,
            ColumnPartitioner::Range { k, dim } => {
                let c = Self::chunk(k, dim).max(1);
                ((i / c) as usize).min(k - 1)
            }
        }
    }

    /// The dense slot of feature `i` inside its owner's model partition.
    pub fn local_slot(&self, i: FeatureIndex) -> usize {
        match *self {
            ColumnPartitioner::RoundRobin { k } => (i / k as FeatureIndex) as usize,
            ColumnPartitioner::Range { k, dim } => {
                let c = Self::chunk(k, dim).max(1);
                let owner = ((i / c) as usize).min(k - 1);
                (i - owner as FeatureIndex * c) as usize
            }
        }
    }

    /// Number of feature slots worker `w` owns for a model of size `dim`.
    ///
    /// This is the `K` argument of the paper's `initModel` (Figure 12:
    /// `num_features / num_workers + 1`, here computed exactly).
    pub fn local_dim(&self, w: usize, dim: FeatureIndex) -> usize {
        match *self {
            ColumnPartitioner::RoundRobin { k } => {
                let base = dim / k as FeatureIndex;
                let extra = dim % k as FeatureIndex;
                (base + u64::from((w as FeatureIndex) < extra)) as usize
            }
            ColumnPartitioner::Range { k, dim: own } => {
                debug_assert_eq!(
                    own, dim,
                    "Range partitioner queried with a foreign dimension"
                );
                let c = Self::chunk(k, dim).max(1);
                let lo = (w as FeatureIndex * c).min(dim);
                let hi = ((w as FeatureIndex + 1) * c).min(dim);
                (hi - lo) as usize
            }
        }
    }

    /// Reconstructs the global feature index from `(worker, slot)` — the
    /// inverse of ([`owner`](Self::owner), [`local_slot`](Self::local_slot)).
    pub fn global_index(&self, w: usize, slot: usize) -> FeatureIndex {
        match *self {
            ColumnPartitioner::RoundRobin { k } => {
                slot as FeatureIndex * k as FeatureIndex + w as FeatureIndex
            }
            ColumnPartitioner::Range { k, dim } => {
                let c = Self::chunk(k, dim).max(1);
                w as FeatureIndex * c + slot as FeatureIndex
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_basic() {
        let p = ColumnPartitioner::round_robin(3);
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(4), 1);
        assert_eq!(p.local_slot(4), 1);
        assert_eq!(p.global_index(1, 1), 4);
    }

    #[test]
    fn range_basic() {
        let p = ColumnPartitioner::range(3, 10); // chunks of 4: [0,4) [4,8) [8,10)
        assert_eq!(p.owner(3), 0);
        assert_eq!(p.owner(4), 1);
        assert_eq!(p.owner(9), 2);
        assert_eq!(p.local_slot(9), 1);
        assert_eq!(p.local_dim(0, 10), 4);
        assert_eq!(p.local_dim(2, 10), 2);
    }

    #[test]
    fn local_dims_sum_to_total() {
        for &dim in &[0u64, 1, 7, 10, 100, 101] {
            for k in 1..8 {
                for p in [
                    ColumnPartitioner::round_robin(k),
                    ColumnPartitioner::range(k, dim),
                ] {
                    let total: usize = (0..k).map(|w| p.local_dim(w, dim)).sum();
                    assert_eq!(total as u64, dim, "{p:?} dim={dim}");
                }
            }
        }
    }

    #[test]
    fn owner_slot_global_roundtrip() {
        for k in 1..6 {
            let dim = 50u64;
            for p in [
                ColumnPartitioner::round_robin(k),
                ColumnPartitioner::range(k, dim),
            ] {
                for i in 0..dim {
                    let w = p.owner(i);
                    let s = p.local_slot(i);
                    assert!(w < k);
                    assert!(s < p.local_dim(w, dim), "{p:?} i={i} w={w} s={s}");
                    assert_eq!(p.global_index(w, s), i, "{p:?} i={i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        let _ = ColumnPartitioner::round_robin(0);
    }
}
