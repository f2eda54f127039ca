//! Synthetic sparse dataset generation.
//!
//! We do not have the paper's datasets (avazu/kddb/kdd12 are large public
//! downloads; WX is proprietary to the authors' industrial partner), so the
//! reproduction generates synthetic datasets that match their *statistical
//! profile* — instance count, feature count, and average nonzeros per row
//! from Table II — at a configurable scale.
//!
//! The generator mimics hashed CTR data:
//!
//! * feature popularity follows an (approximate) Zipf law — feature index
//!   `r` is drawn with probability ∝ 1/(r+1), via inverse-CDF sampling
//!   `idx = floor(m^u) - 1`,
//! * feature values are 1.0 (one-hot categorical, like avazu/kddb/kdd12),
//!   optionally continuous,
//! * labels come from a hidden ground-truth linear model, flipped with a
//!   configurable noise rate, so SGD training genuinely reduces the loss
//!   and the Figure 4/8 convergence curves are meaningful.
//!
//! The hidden model is *functional*, not stored: the weight of feature `j`
//! is a hash-derived pseudo-random value, so generating a billion-feature
//! dataset (Figure 10) needs no billion-entry array.

use columnsgd_linalg::{rng, FeatureIndex, SparseVector, Value};
use rand::Rng;

use crate::dataset::Dataset;
use crate::meta::DatasetMeta;

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Number of rows to generate.
    pub rows: usize,
    /// Feature-space dimension m.
    pub dim: FeatureIndex,
    /// Average nonzeros per row (actual count per row is `avg_nnz ± 50%`).
    pub avg_nnz: f64,
    /// Probability of flipping the ground-truth label (label noise).
    pub noise: f64,
    /// If true, feature values are 1.0 (one-hot); otherwise uniform (0, 1].
    pub binary_features: bool,
    /// Zipf skew exponent s ≥ 1 for feature popularity (density ∝ r⁻ˢ);
    /// 1.0 is the classic Zipf law, larger values concentrate mass on the
    /// head (hashed CTR data).
    pub skew: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            rows: 1_000,
            dim: 1_000,
            avg_nnz: 8.0,
            noise: 0.1,
            binary_features: true,
            skew: 1.0,
            seed: 0,
        }
    }
}

impl SynthConfig {
    /// A config matching a Table II dataset profile scaled by `factor`,
    /// generating `rows` rows.
    pub fn from_meta(meta: &DatasetMeta, rows: usize, seed: u64) -> Self {
        Self {
            rows,
            dim: meta.features,
            avg_nnz: meta.avg_nnz_per_row,
            noise: 0.1,
            binary_features: true,
            skew: meta.skew,
            seed,
        }
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        assert!(self.dim > 0, "dimension must be positive");
        assert!(
            self.avg_nnz >= 1.0,
            "need at least one feature per row on average"
        );
        assert!(
            (0.0..=0.5).contains(&self.noise),
            "noise must be in [0, 0.5]"
        );
        assert!(self.skew >= 1.0, "skew exponent must be >= 1");
        let mut r = rng::seeded(self.seed);
        let mut rows = Vec::with_capacity(self.rows);
        let lo = (self.avg_nnz * 0.5).max(1.0) as usize;
        let hi = ((self.avg_nnz * 1.5) as usize)
            .max(lo + 1)
            .min(self.dim as usize + 1);
        for _ in 0..self.rows {
            let nnz = r.gen_range(lo..hi);
            let mut pairs = Vec::with_capacity(nnz);
            for _ in 0..nnz {
                let idx = zipf_index(self.dim, self.skew, r.gen::<f64>());
                let val = if self.binary_features {
                    1.0
                } else {
                    // Uniform in (0, 1] so values are never exactly zero.
                    1.0 - r.gen::<f64>().min(1.0 - f64::EPSILON)
                };
                pairs.push((idx, val));
            }
            let x = SparseVector::from_pairs(pairs);
            let margin = truth_margin(self.seed, &x);
            let mut y = if margin >= 0.0 { 1.0 } else { -1.0 };
            if r.gen::<f64>() < self.noise {
                y = -y;
            }
            rows.push((y, x));
        }
        Dataset::with_dimension(rows, self.dim)
    }
}

/// Inverse-CDF Zipf-like sampling: maps `u ∈ [0,1)` to an index in
/// `[0, dim)` with density ∝ (idx+1)⁻ˢ.
fn zipf_index(dim: FeatureIndex, s: f64, u: f64) -> FeatureIndex {
    let x = if (s - 1.0).abs() < 1e-9 {
        // s = 1: CDF(r) ≈ ln(r+1)/ln(dim+1)  =>  r = (dim+1)^u - 1
        ((dim as f64 + 1.0).powf(u) - 1.0).floor()
    } else {
        // s ≠ 1: continuous density x⁻ˢ on [1, dim+1]:
        // x = (1 + u·((dim+1)^(1-s) − 1))^(1/(1-s)), idx = ⌊x⌋ − 1.
        let e = 1.0 - s;
        let top = (dim as f64 + 1.0).powf(e);
        ((1.0 + u * (top - 1.0)).powf(1.0 / e) - 1.0).floor()
    };
    (x.max(0.0) as FeatureIndex).min(dim - 1)
}

/// The hidden ground-truth weight of feature `j`: a deterministic
/// hash-derived value in [-1, 1], biased positive for even hashes so the
/// classes are balanced but separable.
fn truth_weight(seed: u64, j: FeatureIndex) -> Value {
    let mut z = seed ^ j.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^= z >> 32;
    // Map to [-1, 1].
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Margin of the hidden model on `x` (its sign decides the clean label).
pub fn truth_margin(seed: u64, x: &SparseVector) -> Value {
    x.iter().map(|(j, v)| truth_weight(seed, j) * v).sum()
}

/// Convenience: generate a small dataset for unit tests across the
/// workspace — `rows` rows, `dim` features, ~8 nnz/row, 5% noise.
pub fn small_test_dataset(rows: usize, dim: FeatureIndex, seed: u64) -> Dataset {
    SynthConfig {
        rows,
        dim,
        avg_nnz: 8.0_f64.min(dim as f64),
        noise: 0.05,
        seed,
        ..SynthConfig::default()
    }
    .generate()
}

/// Generates a multiclass dataset for MLR: labels in `0..classes`, chosen
/// as the argmax over `classes` hidden models.
pub fn multiclass_dataset(rows: usize, dim: FeatureIndex, classes: usize, seed: u64) -> Dataset {
    assert!(classes >= 2);
    let base = small_test_dataset(rows, dim, seed);
    let rows: Vec<(Value, SparseVector)> = base
        .into_rows()
        .into_iter()
        .map(|(_, x)| {
            let label = (0..classes)
                .map(|c| truth_margin(seed.wrapping_add(1 + c as u64), &x))
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite margins"))
                .map(|(c, _)| c)
                .expect("classes >= 2");
            (label as Value, x)
        })
        .collect();
    Dataset::with_dimension(rows, dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let cfg = SynthConfig {
            rows: 500,
            dim: 1_000,
            avg_nnz: 10.0,
            seed: 7,
            ..SynthConfig::default()
        };
        let ds = cfg.generate();
        assert_eq!(ds.len(), 500);
        assert_eq!(ds.dimension(), 1_000);
        let avg = ds.avg_nnz();
        assert!((6.0..14.0).contains(&avg), "avg nnz {avg}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = SynthConfig {
            rows: 50,
            dim: 100,
            avg_nnz: 5.0,
            seed: 3,
            ..SynthConfig::default()
        };
        let a = cfg.generate();
        let b = cfg.generate();
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_indices() {
        let mut r = rng::seeded(11);
        let draws: Vec<FeatureIndex> = (0..10_000)
            .map(|_| zipf_index(1_000_000, 1.0, r.gen()))
            .collect();
        let low = draws.iter().filter(|&&i| i < 1_000).count();
        // With Zipf(1) over 1e6 features, ln(1001)/ln(1e6+1) ≈ 50% of mass
        // lies below index 1000.
        assert!(low > 3_000, "only {low} draws under 1000");
        assert!(draws.iter().all(|&i| i < 1_000_000));
    }

    #[test]
    fn labels_are_mostly_separable() {
        let cfg = SynthConfig {
            rows: 2_000,
            dim: 500,
            avg_nnz: 8.0,
            noise: 0.0,
            seed: 5,
            ..SynthConfig::default()
        };
        let ds = cfg.generate();
        // With zero noise every label must match the hidden margin's sign.
        for (y, x) in ds.iter() {
            let m = truth_margin(5, x);
            assert_eq!(*y, if m >= 0.0 { 1.0 } else { -1.0 });
        }
        // And both classes occur.
        let pos = ds.iter().filter(|(y, _)| *y > 0.0).count();
        assert!(pos > 200 && pos < 1_800, "pos={pos}");
    }

    #[test]
    fn huge_dimension_needs_no_huge_memory() {
        // One billion features (the Figure 10 regime) generates fine
        // because the hidden model is functional.
        let cfg = SynthConfig {
            rows: 100,
            dim: 1_000_000_000,
            avg_nnz: 39.0,
            seed: 1,
            ..SynthConfig::default()
        };
        let ds = cfg.generate();
        assert_eq!(ds.dimension(), 1_000_000_000);
        assert!(ds.iter().all(|(_, x)| x.dimension_bound() <= 1_000_000_000));
    }

    #[test]
    fn multiclass_labels_cover_classes() {
        let ds = multiclass_dataset(1_000, 200, 4, 2);
        let mut seen = [false; 4];
        for (y, _) in ds.iter() {
            seen[*y as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "seen={seen:?}");
    }

    #[test]
    fn from_meta_inherits_profile() {
        let meta = crate::meta::DatasetPreset::Kddb.meta().scaled(0.0001);
        let cfg = SynthConfig::from_meta(&meta, 100, 0);
        assert_eq!(cfg.dim, meta.features);
        assert_eq!(cfg.avg_nnz, meta.avg_nnz_per_row);
        let ds = cfg.generate();
        assert_eq!(ds.len(), 100);
    }
}
