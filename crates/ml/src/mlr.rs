//! Multinomial logistic regression (§VIII-C).
//!
//! The model is an m×C matrix, stored as C width-1 blocks (`w_1 … w_C`).
//! The statistics per data point are the C dot products `<w_c, x>`
//! (Equation 7/8): "for each data point, there are K (rather than one)
//! statistics from each worker to be sent through the network".

use columnsgd_linalg::{ops, CsrMatrix};

use crate::params::ParamSet;
use crate::spec::GradSink;

/// Partial statistics: `out[i*C + c] = <w_c_local, x_i_local>`.
pub fn partial_stats(classes: usize, params: &ParamSet, batch: &CsrMatrix, out: &mut [f64]) {
    debug_assert_eq!(out.len(), batch.nrows() * classes);
    for (c, w) in params.blocks[..classes].iter().enumerate() {
        let slots = out.iter_mut().skip(c).step_by(classes);
        ops::dense_dots(batch, w.as_slice(), slots);
    }
}

/// Mean cross-entropy loss given complete logits.
pub fn loss(classes: usize, labels: &[f64], logits: &[f64]) -> f64 {
    debug_assert_eq!(logits.len(), labels.len() * classes);
    if labels.is_empty() {
        return 0.0;
    }
    let mut probs = vec![0.0; classes];
    let mut total = 0.0;
    for (i, &y) in labels.iter().enumerate() {
        let row = &logits[i * classes..(i + 1) * classes];
        ops::softmax_into(row, &mut probs);
        let target = y as usize;
        debug_assert!(
            target < classes,
            "label {y} out of range for {classes} classes"
        );
        total += -(probs[target].max(1e-300)).ln();
    }
    total / labels.len() as f64
}

/// Fraction of examples whose argmax logit matches the label.
pub fn accuracy(classes: usize, labels: &[f64], logits: &[f64]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(i, &y)| {
            let row = &logits[i * classes..(i + 1) * classes];
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(c, _)| c)
                .expect("classes >= 1");
            argmax == y as usize
        })
        .count();
    correct as f64 / labels.len() as f64
}

/// Accumulates the batch gradient: for each class `c`,
/// `g_c += (softmax_c - 1{y=c}) · x` (Equation 8). `probs` is the
/// caller-owned softmax buffer (resized to `classes` and reused), so the
/// hot path allocates nothing.
#[allow(clippy::needless_range_loop)] // `c` is a class id, not a position
pub fn accumulate_grad(
    classes: usize,
    batch: &CsrMatrix,
    logits: &[f64],
    probs: &mut Vec<f64>,
    accum: &mut impl GradSink,
) {
    probs.clear();
    probs.resize(classes, 0.0);
    let (indices, values) = (batch.indices(), batch.values());
    let rows = batch.indptr().windows(2).zip(batch.labels());
    for (i, (bounds, &y)) in rows.enumerate() {
        let row = &logits[i * classes..(i + 1) * classes];
        ops::softmax_into(row, probs);
        let target = y as usize;
        for c in 0..classes {
            let coeff = probs[c] - f64::from(c == target);
            if coeff == 0.0 {
                continue;
            }
            for k in bounds[0]..bounds[1] {
                if let Some(ahead) = ops::feature_ahead(indices, k) {
                    accum.prefetch(ahead);
                }
                accum.row(indices[k] as usize)[c] += coeff * values[k];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GradAccum;
    use columnsgd_linalg::SparseVector;

    fn batch() -> CsrMatrix {
        CsrMatrix::from_rows(&[
            (0.0, SparseVector::from_pairs(vec![(0, 1.0)])),
            (2.0, SparseVector::from_pairs(vec![(1, 2.0)])),
        ])
    }

    #[test]
    fn stats_are_per_class_dots() {
        let mut p = ParamSet::zeros(2, &[1, 1, 1]);
        p.blocks[0] = vec![1.0, 0.0].into();
        p.blocks[1] = vec![0.0, 1.0].into();
        p.blocks[2] = vec![2.0, 2.0].into();
        let mut out = vec![0.0; 6];
        partial_stats(3, &p, &batch(), &mut out);
        assert_eq!(out, vec![1.0, 0.0, 2.0, 0.0, 2.0, 4.0]);
    }

    #[test]
    fn uniform_logits_give_ln_c_loss() {
        let l = loss(4, &[0.0, 3.0], &[0.0; 8]);
        assert!((l - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn confident_correct_logits_give_small_loss() {
        let logits = vec![10.0, -10.0, -10.0];
        assert!(loss(3, &[0.0], &logits) < 1e-6);
        assert_eq!(accuracy(3, &[0.0], &logits), 1.0);
        assert_eq!(accuracy(3, &[1.0], &logits), 0.0);
    }

    #[test]
    fn gradient_pushes_toward_target() {
        let mut accum = GradAccum::new(&[1, 1]);
        // One example, class 0, uniform logits over 2 classes.
        let b = CsrMatrix::from_rows(&[(0.0, SparseVector::from_pairs(vec![(0, 1.0)]))]);
        accumulate_grad(2, &b, &[0.0, 0.0], &mut Vec::new(), &mut accum);
        let g = accum.to_sparse_grad();
        // Class 0: p - 1 = -0.5 (descend ⇒ weight grows); class 1: p = +0.5.
        assert!((g.blocks[0][0] + 0.5).abs() < 1e-12);
        assert!((g.blocks[1][0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn grad_rows_sum_to_zero_across_classes() {
        // Σ_c (p_c - t_c) = 0, so per-feature gradients sum to zero.
        let mut accum = GradAccum::new(&[1, 1, 1]);
        let logits = [0.3, -0.2, 0.9, 1.0, 0.0, -1.0];
        accumulate_grad(3, &batch(), &logits, &mut Vec::new(), &mut accum);
        let g = accum.to_sparse_grad();
        for pos in 0..g.nnz() {
            let total: f64 = (0..3).map(|c| g.blocks[c][pos]).sum();
            assert!(total.abs() < 1e-12, "feature {pos} sums to {total}");
        }
    }
}
