//! Regularization terms Ω(w) (Equation 1 of the paper).

/// The regularization term added to the loss.
///
/// Applied *lazily*: the subgradient `∇Ω` is added only for coordinates the
/// current mini-batch touches, the standard sparse-training compromise
/// (touching all m coordinates per iteration would defeat sparse updates;
/// the paper's workloads use sparse data where this is the norm).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Regularizer {
    /// No regularization.
    #[default]
    None,
    /// L2: Ω(w) = (λ/2)·‖w‖²; ∇Ω = λ·w.
    L2(f64),
    /// L1: Ω(w) = λ·‖w‖₁; ∇Ω = λ·sign(w) (the paper's example Ω(w)=λ|w|).
    L1(f64),
}

impl Regularizer {
    /// The subgradient contribution for one coordinate with value `w`.
    pub fn subgradient(&self, w: f64) -> f64 {
        match *self {
            Regularizer::None => 0.0,
            Regularizer::L2(lambda) => lambda * w,
            Regularizer::L1(lambda) => lambda * w.signum() * f64::from(w != 0.0),
        }
    }

    /// The penalty value for one coordinate (for loss reporting).
    pub fn penalty(&self, w: f64) -> f64 {
        match *self {
            Regularizer::None => 0.0,
            Regularizer::L2(lambda) => 0.5 * lambda * w * w,
            Regularizer::L1(lambda) => lambda * w.abs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_free() {
        assert_eq!(Regularizer::None.subgradient(3.0), 0.0);
        assert_eq!(Regularizer::None.penalty(3.0), 0.0);
    }

    #[test]
    fn l2_is_linear() {
        let r = Regularizer::L2(0.1);
        assert!((r.subgradient(2.0) - 0.2).abs() < 1e-15);
        assert!((r.penalty(2.0) - 0.2).abs() < 1e-15);
    }

    #[test]
    fn l1_sign_and_zero() {
        let r = Regularizer::L1(0.5);
        assert_eq!(r.subgradient(2.0), 0.5);
        assert_eq!(r.subgradient(-2.0), -0.5);
        assert_eq!(r.subgradient(0.0), 0.0);
        assert_eq!(r.penalty(-2.0), 1.0);
    }
}
