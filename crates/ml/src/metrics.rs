//! Training-curve bookkeeping and evaluation metrics shared by engines
//! and experiments.

/// Area under the ROC curve for binary ±1 labels and real-valued scores.
///
/// The metric of record for CTR prediction (the avazu/criteo/WX
/// workloads); computed by the rank-sum formulation with midrank handling
/// for tied scores. Returns 0.5 when either class is absent.
pub fn auc(labels: &[f64], scores: &[f64]) -> f64 {
    assert_eq!(labels.len(), scores.len(), "labels/scores length mismatch");
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));
    let (mut positives, mut negatives) = (0u64, 0u64);
    for &y in labels {
        if y > 0.0 {
            positives += 1;
        } else {
            negatives += 1;
        }
    }
    if positives == 0 || negatives == 0 {
        return 0.5;
    }
    // Rank-sum with midranks for ties.
    let mut rank_sum_pos = 0.0f64;
    let mut i = 0usize;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let midrank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            if labels[idx] > 0.0 {
                rank_sum_pos += midrank;
            }
        }
        i = j + 1;
    }
    let p = positives as f64;
    let n = negatives as f64;
    (rank_sum_pos - p * (p + 1.0) / 2.0) / (p * n)
}

/// One point on a convergence curve: simulated time, iteration, loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Iteration index (0-based).
    pub iteration: u64,
    /// Simulated seconds since training started.
    pub time_s: f64,
    /// Loss at this point (batch loss unless noted by the producer).
    pub loss: f64,
}

/// A named convergence curve (one line in a Figure 8-style plot).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Curve {
    /// Legend label (e.g. `"ColumnSGD"`).
    pub label: String,
    /// The points, in iteration order.
    pub points: Vec<CurvePoint>,
}

impl Curve {
    /// A new empty curve.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, iteration: u64, time_s: f64, loss: f64) {
        self.points.push(CurvePoint {
            iteration,
            time_s,
            loss,
        });
    }

    /// The first simulated time at which the loss drops to `target` or
    /// below — the paper's "time to reach a certain loss" comparison
    /// (the horizontal line in each Figure 8 plot). `None` if never.
    ///
    /// NaN-safe: a run whose loss goes non-finite has diverged, so the
    /// scan stops at the first NaN/∞ point and returns `None` rather than
    /// skipping past it (`NaN <= target` is `false`, so a naive scan would
    /// silently ignore the blow-up and keep looking). Use
    /// [`Curve::first_non_finite`] to surface *where* it diverged.
    pub fn time_to_loss(&self, target: f64) -> Option<f64> {
        for p in &self.points {
            if !p.loss.is_finite() {
                return None;
            }
            if p.loss <= target {
                return Some(p.time_s);
            }
        }
        None
    }

    /// Final loss (last point), or `None` for an empty curve *or* a curve
    /// whose last loss is non-finite — a diverged run has no meaningful
    /// "final loss"; check [`Curve::first_non_finite`] instead.
    pub fn final_loss(&self) -> Option<f64> {
        self.points.last().map(|p| p.loss).filter(|l| l.is_finite())
    }

    /// The iteration of the first non-finite (NaN/∞) loss, if any — the
    /// diagnostic hook for divergence reporting.
    pub fn first_non_finite(&self) -> Option<u64> {
        self.points
            .iter()
            .find(|p| !p.loss.is_finite())
            .map(|p| p.iteration)
    }

    /// Whether any recorded loss is non-finite.
    pub fn has_non_finite(&self) -> bool {
        self.first_non_finite().is_some()
    }

    /// A smoothed copy with a trailing moving average over `window` points
    /// (batch losses are noisy; the paper plots smoothed curves).
    pub fn smoothed(&self, window: usize) -> Curve {
        let window = window.max(1);
        let mut out = Curve::new(self.label.clone());
        for (i, p) in self.points.iter().enumerate() {
            let lo = (i + 1).saturating_sub(window);
            let mean =
                self.points[lo..=i].iter().map(|q| q.loss).sum::<f64>() / (i - lo + 1) as f64;
            out.points.push(CurvePoint {
                iteration: p.iteration,
                time_s: p.time_s,
                loss: mean,
            });
        }
        out
    }

    /// Whether the curve "thrashes": the standard deviation of the final
    /// `tail` losses exceeds `threshold` — the instability the paper shows
    /// for batch size 10 in Figure 4(a).
    pub fn thrashes(&self, tail: usize, threshold: f64) -> bool {
        if self.points.len() < tail || tail < 2 {
            return false;
        }
        let slice = &self.points[self.points.len() - tail..];
        let mean = slice.iter().map(|p| p.loss).sum::<f64>() / tail as f64;
        let var = slice.iter().map(|p| (p.loss - mean).powi(2)).sum::<f64>() / tail as f64;
        var.sqrt() > threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auc_perfect_random_and_inverted() {
        let labels = [1.0, 1.0, -1.0, -1.0];
        assert_eq!(auc(&labels, &[0.9, 0.8, 0.2, 0.1]), 1.0);
        assert_eq!(auc(&labels, &[0.1, 0.2, 0.8, 0.9]), 0.0);
        // All-tied scores are chance.
        assert_eq!(auc(&labels, &[0.5; 4]), 0.5);
        // Single class present: defined as 0.5.
        assert_eq!(auc(&[1.0, 1.0], &[0.3, 0.7]), 0.5);
    }

    #[test]
    fn auc_handles_partial_ties() {
        // pos scores {0.8, 0.5}, neg {0.5, 0.1}: one tie across classes.
        let labels = [1.0, 1.0, -1.0, -1.0];
        let a = auc(&labels, &[0.8, 0.5, 0.5, 0.1]);
        // Pairs: (0.8>0.5)=1, (0.8>0.1)=1, (0.5~0.5)=0.5, (0.5>0.1)=1 → 3.5/4.
        assert!((a - 0.875).abs() < 1e-12, "auc {a}");
    }

    fn curve(losses: &[f64]) -> Curve {
        let mut c = Curve::new("test");
        for (i, &l) in losses.iter().enumerate() {
            c.push(i as u64, i as f64 * 0.5, l);
        }
        c
    }

    #[test]
    fn time_to_loss_finds_first_crossing() {
        let c = curve(&[1.0, 0.8, 0.5, 0.6, 0.3]);
        assert_eq!(c.time_to_loss(0.55), Some(1.0)); // iteration 2, t=1.0
        assert_eq!(c.time_to_loss(0.1), None);
        assert_eq!(c.final_loss(), Some(0.3));
    }

    #[test]
    fn time_to_loss_stops_at_first_nan() {
        // The old scan skipped NaN (NaN <= t is false) and reported the
        // post-divergence crossing at t=1.5 — a lie about a dead run.
        let c = curve(&[1.0, 0.8, f64::NAN, 0.3]);
        assert_eq!(c.time_to_loss(0.5), None);
        assert_eq!(c.first_non_finite(), Some(2));
        assert!(c.has_non_finite());
        // A crossing *before* the blow-up still counts.
        let d = curve(&[1.0, 0.4, f64::NAN]);
        assert_eq!(d.time_to_loss(0.5), Some(0.5));
        // Infinities are divergence too.
        let e = curve(&[1.0, f64::INFINITY, 0.3]);
        assert_eq!(e.time_to_loss(0.5), None);
        assert_eq!(e.first_non_finite(), Some(1));
    }

    #[test]
    fn final_loss_is_none_when_diverged() {
        assert_eq!(curve(&[1.0, f64::NAN]).final_loss(), None);
        assert_eq!(curve(&[f64::NAN, 0.4]).final_loss(), Some(0.4));
        assert_eq!(Curve::new("empty").final_loss(), None);
        assert!(!curve(&[1.0, 0.5]).has_non_finite());
        assert_eq!(curve(&[1.0, 0.5]).first_non_finite(), None);
    }

    #[test]
    fn smoothing_averages_trailing_window() {
        let c = curve(&[1.0, 0.0, 1.0, 0.0]);
        let s = c.smoothed(2);
        assert_eq!(s.points[0].loss, 1.0);
        assert_eq!(s.points[1].loss, 0.5);
        assert_eq!(s.points[3].loss, 0.5);
        // Window 1 is the identity.
        assert_eq!(c.smoothed(1).points, c.points);
    }

    #[test]
    fn thrashing_detection() {
        let stable = curve(&[0.5; 20]);
        assert!(!stable.thrashes(10, 0.01));
        let noisy = curve(&[0.2, 0.9, 0.1, 0.8, 0.2, 0.9, 0.1, 0.8, 0.2, 0.9]);
        assert!(noisy.thrashes(10, 0.1));
        // Too-short curves never report thrashing.
        assert!(!curve(&[1.0]).thrashes(10, 0.0));
    }
}
