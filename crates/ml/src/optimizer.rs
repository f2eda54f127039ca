//! SGD variants: plain SGD, AdaGrad, and Adam.
//!
//! §III-A: "ColumnSGD can also work for variants of SGD such as Adam and
//! AdaGrad, by tweaking the implementation of model update in line 20."
//! That is precisely the seam here: optimizers are a strategy applied
//! inside `updateModel`, operating on whatever parameter partition the
//! caller owns — the full model in RowSGD, the local partition in
//! ColumnSGD. State (AdaGrad accumulators, Adam moments) lives next to the
//! parameters, so distributing the model automatically distributes the
//! optimizer state.
//!
//! Updates are *sparse*: only coordinates with a nonzero gradient are
//! touched. For Adam this is the common "lazy Adam" variant (bias
//! correction uses the global step count; untouched coordinates do not
//! decay), which is what MXNet's sparse Adam does as well.

use columnsgd_linalg::{ops, DenseVector};

use crate::params::UpdateParams;

/// Which optimizer to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerKind {
    /// Plain SGD: `w -= η·g`.
    Sgd,
    /// AdaGrad (Duchi et al. \[15\]): `w -= η·g / (√acc + ε)`.
    AdaGrad {
        /// Denominator smoothing ε.
        eps: f64,
    },
    /// Adam (Kingma & Ba \[14\]), lazy/sparse variant.
    Adam {
        /// First-moment decay β₁.
        beta1: f64,
        /// Second-moment decay β₂.
        beta2: f64,
        /// Denominator smoothing ε.
        eps: f64,
    },
}

impl OptimizerKind {
    /// Adam with the standard defaults (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn adam() -> Self {
        OptimizerKind::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// AdaGrad with the standard default (ε=1e-8).
    pub fn adagrad() -> Self {
        OptimizerKind::AdaGrad { eps: 1e-8 }
    }
}

/// Per-block optimizer state.
#[derive(Debug, Clone, PartialEq)]
enum BlockState {
    Sgd,
    AdaGrad { acc: DenseVector },
    Adam { m: DenseVector, v: DenseVector },
}

/// Optimizer state covering one [`crate::ParamSet`]'s blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerState {
    kind: OptimizerKind,
    blocks: Vec<BlockState>,
    step: u64,
}

impl OptimizerState {
    /// Creates state for blocks of the given lengths.
    pub fn new(kind: OptimizerKind, block_lens: &[usize]) -> Self {
        let blocks = block_lens
            .iter()
            .map(|&len| match kind {
                OptimizerKind::Sgd => BlockState::Sgd,
                OptimizerKind::AdaGrad { .. } => BlockState::AdaGrad {
                    acc: DenseVector::zeros(len),
                },
                OptimizerKind::Adam { .. } => BlockState::Adam {
                    m: DenseVector::zeros(len),
                    v: DenseVector::zeros(len),
                },
            })
            .collect();
        Self {
            kind,
            blocks,
            step: 0,
        }
    }

    /// Creates state matching a parameter set's layout.
    pub fn for_params(kind: OptimizerKind, params: &crate::ParamSet) -> Self {
        let lens: Vec<usize> = params.blocks.iter().map(DenseVector::len).collect();
        Self::new(kind, &lens)
    }

    /// The configured optimizer kind.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Marks the start of a new global step (one mini-batch). Must be
    /// called once per iteration before `apply_runs` (used by Adam's bias
    /// correction).
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Steps every non-zero coordinate of `runs` in block `block`. A run
    /// `(base, g_sums)` carries the summed batch gradients of coordinates
    /// `base..base + g_sums.len()`; each is stepped once with
    /// `g_sum * inv_b + ∇Ω(w)`. The optimizer is dispatched once per call,
    /// so the inner loops are straight slice loops.
    pub fn apply_runs<'a>(
        &mut self,
        block: usize,
        model: &mut DenseVector,
        runs: impl Iterator<Item = (usize, &'a [f64])> + Clone,
        inv_b: f64,
        up: &UpdateParams,
    ) {
        // By-value copy: the inlined regularizer match is a loop invariant.
        let (lr, reg) = (up.learning_rate, up.regularizer);
        let grad = |g_sum: f64, w: f64| g_sum * inv_b + reg.subgradient(w);
        let model = model.as_mut_slice();
        match (&mut self.blocks[block], self.kind) {
            (BlockState::Sgd, OptimizerKind::Sgd) => {
                each_nonzero(model, runs, grad, |_, w, g| *w -= lr * g);
            }
            (BlockState::AdaGrad { acc }, OptimizerKind::AdaGrad { eps }) => {
                each_nonzero(model, runs, grad, |coord, w, g| {
                    acc[coord] += g * g;
                    *w -= lr * g / (acc[coord].sqrt() + eps);
                });
            }
            (BlockState::Adam { m, v }, OptimizerKind::Adam { beta1, beta2, eps }) => {
                let t = self.step.max(1) as f64;
                each_nonzero(model, runs, grad, |coord, w, g| {
                    m[coord] = beta1 * m[coord] + (1.0 - beta1) * g;
                    v[coord] = beta2 * v[coord] + (1.0 - beta2) * g * g;
                    let m_hat = m[coord] / (1.0 - beta1.powf(t));
                    let v_hat = v[coord] / (1.0 - beta2.powf(t));
                    *w -= lr * m_hat / (v_hat.sqrt() + eps);
                });
            }
            _ => unreachable!("block state and kind always agree by construction"),
        }
    }

    /// Zeroes the state for one block (worker-failure recovery, where the
    /// model partition is also zeroed).
    pub fn reset_block(&mut self, block: usize) {
        match &mut self.blocks[block] {
            BlockState::Sgd => {}
            BlockState::AdaGrad { acc } => acc.fill_zero(),
            BlockState::Adam { m, v } => {
                m.fill_zero();
                v.fill_zero();
            }
        }
    }

    /// The number of completed steps.
    pub fn steps(&self) -> u64 {
        self.step
    }
}

/// Calls `step(coord, &mut model[coord], grad(g_sum, model[coord]))` for
/// every coordinate of `runs` whose summed gradient is not exactly zero.
/// Sparse runs land at random in the model, so a second cursor
/// [`ops::prefetch`]es the base of the run [`ops::PREFETCH_DISTANCE`]
/// runs ahead.
fn each_nonzero<'a>(
    model: &mut [f64],
    runs: impl Iterator<Item = (usize, &'a [f64])> + Clone,
    grad: impl Fn(f64, f64) -> f64,
    mut step: impl FnMut(usize, &mut f64, f64),
) {
    let mut ahead = runs.clone().skip(ops::PREFETCH_DISTANCE);
    for (base, g_sums) in runs {
        if let Some((next, _)) = ahead.next() {
            ops::prefetch(model, next);
        }
        let ws = &mut model[base..base + g_sums.len()];
        for (i, (w, &g_sum)) in ws.iter_mut().zip(g_sums).enumerate() {
            if g_sum != 0.0 {
                step(base + i, w, grad(g_sum, *w));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_block(kind: OptimizerKind) -> (OptimizerState, DenseVector) {
        (OptimizerState::new(kind, &[4]), DenseVector::zeros(4))
    }

    /// One unregularized step of `model[coord]` with gradient `g`.
    fn apply(opt: &mut OptimizerState, model: &mut DenseVector, coord: usize, g: f64, lr: f64) {
        let g = [g];
        let run = std::iter::once((coord, &g[..]));
        opt.apply_runs(0, model, run, 1.0, &UpdateParams::plain(lr));
    }

    #[test]
    fn sgd_step() {
        let (mut opt, mut w) = one_block(OptimizerKind::Sgd);
        opt.begin_step();
        apply(&mut opt, &mut w, 1, 2.0, 0.1);
        assert!((w[1] + 0.2).abs() < 1e-15);
        assert_eq!(w[0], 0.0);
    }

    #[test]
    fn runs_skip_exact_zeros_and_add_the_subgradient() {
        let up = UpdateParams {
            learning_rate: 0.1,
            regularizer: crate::Regularizer::L2(0.5),
        };
        for kind in [
            OptimizerKind::Sgd,
            OptimizerKind::adagrad(),
            OptimizerKind::adam(),
        ] {
            let start = DenseVector::from_vec(vec![1.0, 2.0, -3.0, 0.5]);
            // Coordinate 1 has an exact-zero sum: no step (not even the
            // regularizer's) and no optimizer state — the same as a run
            // that never mentions it.
            let (mut opt, mut w) = (OptimizerState::new(kind, &[4]), start.clone());
            opt.begin_step();
            opt.apply_runs(0, &mut w, std::iter::once((1, &[0.0, 4.0][..])), 0.5, &up);
            let (mut opt2, mut w2) = (OptimizerState::new(kind, &[4]), start.clone());
            opt2.begin_step();
            opt2.apply_runs(0, &mut w2, std::iter::once((2, &[4.0][..])), 0.5, &up);
            assert_eq!((&w, &opt), (&w2, &opt2), "{kind:?}");
            assert_eq!((w[0], w[1], w[3]), (1.0, 2.0, 0.5));
            assert!(w[2] < -3.0, "{kind:?}: a positive gradient lowers w");
            if kind == OptimizerKind::Sgd {
                // g = 4·0.5 + 0.5·(−3) = 0.5.
                assert_eq!(w[2], -3.0 - 0.1 * 0.5);
            }
        }
    }

    #[test]
    fn adagrad_shrinks_effective_rate() {
        let (mut opt, mut w) = one_block(OptimizerKind::adagrad());
        opt.begin_step();
        apply(&mut opt, &mut w, 0, 1.0, 0.1);
        let first = -w[0];
        opt.begin_step();
        apply(&mut opt, &mut w, 0, 1.0, 0.1);
        let second = -w[0] - first;
        assert!(second < first, "AdaGrad must decay: {first} then {second}");
        // First step is ~η·g/√(g²) = η.
        assert!((first - 0.1).abs() < 1e-6);
    }

    #[test]
    fn adam_first_step_close_to_lr() {
        let (mut opt, mut w) = one_block(OptimizerKind::adam());
        opt.begin_step();
        apply(&mut opt, &mut w, 2, 5.0, 0.01);
        // With bias correction, the first Adam step has magnitude ≈ η.
        assert!((w[2].abs() - 0.01).abs() < 1e-4, "step was {}", w[2]);
    }

    #[test]
    fn adam_descends_on_quadratic() {
        // Minimize f(x) = (x-3)²; gradient 2(x-3).
        let mut opt = OptimizerState::new(OptimizerKind::adam(), &[1]);
        let mut w = DenseVector::zeros(1);
        for _ in 0..2_000 {
            opt.begin_step();
            let g = 2.0 * (w[0] - 3.0);
            apply(&mut opt, &mut w, 0, g, 0.05);
        }
        assert!((w[0] - 3.0).abs() < 0.05, "converged to {}", w[0]);
    }

    #[test]
    fn reset_block_clears_state() {
        let (mut opt, mut w) = one_block(OptimizerKind::adagrad());
        opt.begin_step();
        apply(&mut opt, &mut w, 0, 1.0, 0.1);
        opt.reset_block(0);
        // After reset the next step behaves like the first.
        let before = w[0];
        opt.begin_step();
        apply(&mut opt, &mut w, 0, 1.0, 0.1);
        assert!(((w[0] - before).abs() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn for_params_matches_layout() {
        let p = crate::ParamSet::zeros(5, &[1, 3]);
        let opt = OptimizerState::for_params(OptimizerKind::adam(), &p);
        assert_eq!(opt.blocks.len(), 2);
    }
}
