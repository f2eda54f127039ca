//! Generalized linear models: logistic regression, SVM, least squares.
//!
//! §VIII-A/B of the paper: for GLMs the statistic per data point is the
//! dot product `<w, x>`, decomposable over column partitions. The gradient
//! is `coeff(y, <w,x>) · x` with a model-specific scalar coefficient.

use columnsgd_linalg::{ops, CsrMatrix};

use crate::params::ParamSet;
use crate::spec::GradSink;

/// Which GLM link/loss is in play.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlmKind {
    /// Logistic regression: loss `log(1+exp(-y·z))`.
    Logistic,
    /// SVM with hinge loss: `max(0, 1-y·z)`.
    Hinge,
    /// Least squares: `½(z-y)²`.
    Squares,
}

impl GlmKind {
    /// Mean loss over the batch given the complete dot products.
    pub fn loss(self, labels: &[f64], dots: &[f64]) -> f64 {
        assert_eq!(labels.len(), dots.len());
        if labels.is_empty() {
            return 0.0;
        }
        let total: f64 = labels
            .iter()
            .zip(dots)
            .map(|(&y, &z)| match self {
                GlmKind::Logistic => ops::log1p_exp(-y * z),
                GlmKind::Hinge => (1.0 - y * z).max(0.0),
                GlmKind::Squares => 0.5 * (z - y) * (z - y),
            })
            .sum();
        total / labels.len() as f64
    }

    /// The scalar gradient coefficient for one example: `∂l/∂z`.
    ///
    /// LR (Equation 6): `-y / (1 + exp(y·z))`; SVM (Equation 4): `-y` when
    /// the hinge is active; least squares: `z - y`.
    pub fn coeff(self, y: f64, z: f64) -> f64 {
        match self {
            GlmKind::Logistic => -y * ops::sigmoid(-y * z),
            GlmKind::Hinge => {
                if ops::hinge_active(y, z) {
                    -y
                } else {
                    0.0
                }
            }
            GlmKind::Squares => z - y,
        }
    }

    /// Fraction of examples classified correctly (sign agreement; for
    /// least squares, within 0.5 of the target).
    pub fn accuracy(self, labels: &[f64], dots: &[f64]) -> f64 {
        assert_eq!(labels.len(), dots.len());
        if labels.is_empty() {
            return 0.0;
        }
        let correct = labels
            .iter()
            .zip(dots)
            .filter(|&(&y, &z)| match self {
                GlmKind::Logistic | GlmKind::Hinge => y * z > 0.0,
                GlmKind::Squares => (z - y).abs() < 0.5,
            })
            .count();
        correct as f64 / labels.len() as f64
    }
}

/// Partial statistics: `out[i] = <w_local, x_i_local>` for every batch row.
pub fn partial_stats(params: &ParamSet, batch: &CsrMatrix, out: &mut [f64]) {
    debug_assert_eq!(out.len(), batch.nrows());
    ops::dense_dots(batch, params.blocks[0].as_slice(), out.iter_mut());
}

/// Accumulates the (sum, not yet averaged) gradient of the batch into
/// `accum`, given the complete dot products.
pub fn accumulate_grad(kind: GlmKind, batch: &CsrMatrix, dots: &[f64], accum: &mut impl GradSink) {
    debug_assert_eq!(dots.len(), batch.nrows());
    let (indices, values) = (batch.indices(), batch.values());
    let rows = batch.indptr().windows(2).zip(batch.labels());
    for ((bounds, &y), &z) in rows.zip(dots) {
        let c = kind.coeff(y, z);
        if c == 0.0 {
            continue;
        }
        for k in bounds[0]..bounds[1] {
            if let Some(ahead) = ops::feature_ahead(indices, k) {
                accum.prefetch(ahead);
            }
            accum.row(indices[k] as usize)[0] += c * values[k];
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
            (1.0, SparseVector::from_pairs(vec![(0, 1.0), (2, 2.0)])),
            (-1.0, SparseVector::from_pairs(vec![(1, 3.0)])),
        ])
    }

    #[test]
    fn stats_are_dot_products() {
        let mut p = ParamSet::zeros(3, &[1]);
        p.blocks[0] = vec![1.0, -1.0, 0.5].into();
        let mut out = vec![0.0; 2];
        partial_stats(&p, &batch(), &mut out);
        assert_eq!(out, vec![2.0, -3.0]);
    }

    #[test]
    fn logistic_coeff_matches_equation6() {
        // -y / (1 + exp(y·z))
        let c = GlmKind::Logistic.coeff(1.0, 0.0);
        assert!((c + 0.5).abs() < 1e-12);
        let c = GlmKind::Logistic.coeff(-1.0, 0.0);
        assert!((c - 0.5).abs() < 1e-12);
        // Large confident margin → near-zero gradient.
        assert!(GlmKind::Logistic.coeff(1.0, 100.0).abs() < 1e-12);
    }

    #[test]
    fn hinge_coeff_matches_equation4() {
        assert_eq!(GlmKind::Hinge.coeff(1.0, 0.5), -1.0);
        assert_eq!(GlmKind::Hinge.coeff(1.0, 1.5), 0.0);
        assert_eq!(GlmKind::Hinge.coeff(-1.0, -2.0), 0.0);
        assert_eq!(GlmKind::Hinge.coeff(-1.0, 0.0), 1.0);
    }

    #[test]
    fn squares_coeff_is_residual() {
        assert_eq!(GlmKind::Squares.coeff(2.0, 5.0), 3.0);
    }

    #[test]
    fn losses() {
        assert!((GlmKind::Logistic.loss(&[1.0], &[0.0]) - std::f64::consts::LN_2).abs() < 1e-12);
        assert_eq!(GlmKind::Hinge.loss(&[1.0, -1.0], &[2.0, 2.0]), 1.5);
        assert_eq!(GlmKind::Squares.loss(&[1.0], &[3.0]), 2.0);
        assert_eq!(GlmKind::Logistic.loss(&[], &[]), 0.0);
    }

    #[test]
    fn accuracy_counts_sign_agreement() {
        let acc = GlmKind::Logistic.accuracy(&[1.0, -1.0, 1.0], &[0.3, 0.3, -2.0]);
        assert!((acc - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_accumulates_coeff_times_feature() {
        let mut accum = GradAccum::new(&[1]);
        // dots chosen so row 0 (y=1, z=0) has coeff -0.5 for LR.
        accumulate_grad(GlmKind::Logistic, &batch(), &[0.0, 0.0], &mut accum);
        let g = accum.to_sparse_grad();
        assert_eq!(g.indices, vec![0, 1, 2]);
        assert!((g.blocks[0][0] + 0.5).abs() < 1e-12); // -0.5 * 1.0
        assert!((g.blocks[0][1] - 1.5).abs() < 1e-12); // +0.5 * 3.0
        assert!((g.blocks[0][2] + 1.0).abs() < 1e-12); // -0.5 * 2.0
    }

    #[test]
    fn inactive_hinge_contributes_nothing() {
        let mut accum = GradAccum::new(&[1]);
        accumulate_grad(GlmKind::Hinge, &batch(), &[5.0, -5.0], &mut accum);
        assert_eq!(accum.to_sparse_grad().nnz(), 0);
    }
}
