//! Free-standing kernels used by both training paradigms.
//!
//! These are the "statistics" computations of §II-C in kernel form: partial
//! dot products over column partitions, the FM square-expansion terms, and
//! the scalar link functions shared by the model implementations.

use crate::{CsrMatrix, FeatureIndex, Value};

/// Numerically-stable logistic sigmoid `1 / (1 + exp(-z))`.
pub fn sigmoid(z: Value) -> Value {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Numerically-stable `log(1 + exp(z))` (softplus), the LR loss kernel.
pub fn log1p_exp(z: Value) -> Value {
    if z > 0.0 {
        z + (-z).exp().ln_1p()
    } else {
        z.exp().ln_1p()
    }
}

/// Softmax of `logits` into `out` (both length K), numerically stable.
///
/// Used by multinomial logistic regression (§VIII-C), where the statistics
/// per data point are the K dot products `<w_k, x>`.
pub fn softmax_into(logits: &[Value], out: &mut [Value]) {
    assert_eq!(logits.len(), out.len());
    let max = logits.iter().copied().fold(Value::NEG_INFINITY, Value::max);
    let mut sum = 0.0;
    for (o, &z) in out.iter_mut().zip(logits) {
        let e = (z - max).exp();
        *o = e;
        sum += e;
    }
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Batch of partial dot products: for each row `r` of `data`, the sum of
/// `value * model[index]` over nonzeros whose index is inside `model`.
///
/// This is the per-worker `computeStat` kernel for GLMs (Figure 12,
/// lines 7-14): each worker's `model` covers only its column partition, and
/// out-of-partition indices simply don't occur in its worksets.
pub fn partial_dots(data: &CsrMatrix, rows: &[usize], model: &[Value], out: &mut Vec<Value>) {
    out.clear();
    out.reserve(rows.len());
    for &r in rows {
        out.push(data.row_dot_dense(r, model));
    }
}

/// How many non-zeros ahead the gather-bound kernels [`prefetch`] the
/// model rows and accumulator slots they will read next. One constant for
/// every kernel, chosen by a sweep over {4, 8, 12, 16, 32} on the
/// `fm_tcp` replay's kernel spans (EXPERIMENTS.md, DESIGN.md §7): 4 is
/// too short to hide a miss, 8 to 32 measure the same.
pub const PREFETCH_DISTANCE: usize = 12;

/// Hints the CPU to start loading `slice[i]` into cache. A hint only: it
/// changes no value, does nothing when `i` is out of range or off x86_64,
/// and lets a kernel that reads memory at random overlap its misses.
#[inline]
pub fn prefetch<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(item) = slice.get(i) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` is a cache hint that never faults and never
        // dereferences its argument; the pointer comes from a live reference
        // and the `sse` feature it needs is part of the x86_64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((item as *const T).cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, i);
}

/// The feature [`PREFETCH_DISTANCE`] non-zeros past position `k` of a
/// matrix's flat [`CsrMatrix::indices`], if there is one: what a kernel at
/// non-zero `k` [`prefetch`]es.
#[inline]
pub fn feature_ahead(indices: &[FeatureIndex], k: usize) -> Option<usize> {
    indices.get(k + PREFETCH_DISTANCE).map(|&j| j as usize)
}

/// Every row's dot product against a dense model, one per `out` item in
/// row order: the statistics kernel of the GLMs (`out` is the whole
/// buffer) and of MLR (one call per class, every C-th slot). One cursor
/// walks the matrix's flat non-zeros and [`prefetch`]es the model weight
/// [`PREFETCH_DISTANCE`] non-zeros ahead, across row boundaries. Each row
/// folds `acc += v * w` in [`CsrMatrix::row_dot_dense`]'s order and skips
/// indices outside `model` the same way, so the results are bit-identical
/// to it.
pub fn dense_dots<'a>(
    data: &CsrMatrix,
    model: &[Value],
    out: impl IntoIterator<Item = &'a mut Value>,
) {
    let (indices, values) = (data.indices(), data.values());
    for (slot, bounds) in out.into_iter().zip(data.indptr().windows(2)) {
        let mut acc = 0.0;
        for k in bounds[0]..bounds[1] {
            if let Some(ahead) = feature_ahead(indices, k) {
                prefetch(model, ahead);
            }
            if let Some(w) = model.get(indices[k] as usize) {
                acc += values[k] * w;
            }
        }
        *slot = acc;
    }
}

/// FM per-row partial statistics for one latent factor column `vf`:
/// returns `(sum_i vf[i]*x_i, sum_i vf[i]^2 * x_i^2)` for row `r`.
///
/// These are the two aggregates Equation 10 of the paper needs per factor.
pub fn fm_factor_partials(data: &CsrMatrix, r: usize, vf: &[Value]) -> (Value, Value) {
    let (idx, val) = data.row(r);
    let mut s = 0.0;
    let mut sq = 0.0;
    for (&i, &x) in idx.iter().zip(val) {
        if let Some(&v) = vf.get(i as usize) {
            s += v * x;
            sq += v * v * x * x;
        }
    }
    (s, sq)
}

/// Hinge-loss subgradient activity indicator: 1 if `1 - y*margin > 0`.
pub fn hinge_active(y: Value, margin: Value) -> bool {
    1.0 - y * margin > 0.0
}

/// Mean of a slice (0.0 for an empty slice).
pub fn mean(xs: &[Value]) -> Value {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<Value>() / xs.len() as Value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseVector;

    #[test]
    fn sigmoid_stable_and_symmetric() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!(sigmoid(800.0) <= 1.0);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log1p_exp_matches_naive_in_safe_range() {
        for &z in &[-5.0, -0.5, 0.0, 0.5, 5.0] {
            let naive = (1.0f64 + f64::exp(z)).ln();
            assert!((log1p_exp(z) - naive).abs() < 1e-12, "z={z}");
        }
        // And does not overflow where the naive form would.
        assert!(log1p_exp(1000.0).is_finite());
        assert!((log1p_exp(1000.0) - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn softmax_sums_to_one() {
        let logits = [1.0, 2.0, 3.0, 1000.0];
        let mut out = [0.0; 4];
        softmax_into(&logits, &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(out[3] > 0.999);
    }

    #[test]
    fn partial_dots_respects_partition() {
        let m = CsrMatrix::from_rows(&[
            (1.0, SparseVector::from_pairs(vec![(0, 1.0), (3, 2.0)])),
            (-1.0, SparseVector::from_pairs(vec![(1, 4.0)])),
        ]);
        // Worker owns dimensions 0..2 only.
        let model = [0.5, 0.25];
        let mut out = Vec::new();
        partial_dots(&m, &[0, 1], &model, &mut out);
        assert_eq!(out, vec![0.5, 1.0]);
    }

    #[test]
    fn dense_dots_match_row_dot_dense_at_any_stride() {
        // More non-zeros than the prefetch distance, an empty row, an
        // index past the model and the model's last index.
        let rows: Vec<(Value, SparseVector)> = (0..6u64)
            .map(|r| {
                let pairs = (0..r * 4)
                    .map(|j| ((j * 7 + r) % 40, 0.1 * (j + 1) as Value))
                    .collect::<std::collections::BTreeMap<_, _>>();
                (1.0, SparseVector::from_pairs(pairs.into_iter().collect()))
            })
            .chain([(
                1.0,
                SparseVector::from_pairs(vec![(0, 1.5), (29, -2.0), (31, 4.0)]),
            )])
            .collect();
        let m = CsrMatrix::from_rows(&rows);
        let model: Vec<Value> = (0..30).map(|j| (j as Value * 0.37).sin()).collect();
        for stride in [1, 3] {
            let mut out = vec![Value::NAN; m.nrows() * stride];
            dense_dots(&m, &model, out.iter_mut().step_by(stride));
            for r in 0..m.nrows() {
                assert_eq!(
                    out[r * stride].to_bits(),
                    m.row_dot_dense(r, &model).to_bits()
                );
                assert!(out[r * stride + 1..(r + 1) * stride]
                    .iter()
                    .all(|v| v.is_nan()));
            }
        }
    }

    #[test]
    fn prefetch_ignores_out_of_range_indices() {
        let xs = [1.0, 2.0];
        prefetch(&xs, 0);
        prefetch(&xs, 2);
        prefetch(&xs, usize::MAX);
        prefetch::<Value>(&[], 0);
    }

    #[test]
    fn fm_partials() {
        let m = CsrMatrix::from_rows(&[(1.0, SparseVector::from_pairs(vec![(0, 2.0), (1, 3.0)]))]);
        let vf = [1.0, -1.0];
        let (s, sq) = fm_factor_partials(&m, 0, &vf);
        assert_eq!(s, 2.0 - 3.0);
        assert_eq!(sq, 4.0 + 9.0);
    }

    #[test]
    fn hinge_activity() {
        assert!(hinge_active(1.0, 0.5));
        assert!(!hinge_active(1.0, 1.5));
        assert!(hinge_active(-1.0, 0.5));
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
