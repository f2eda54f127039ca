//! Degree-2 factorization machines (§VIII-D).
//!
//! Model: `ŷ(x) = <w,x> + Σ_{i<j} <v_i, v_j>·x_i·x_j`, rewritten by the
//! paper (Equation 10) as
//!
//! ```text
//! ŷ(x) = [ Σ_i w_i·x_i − ½ Σ_f Σ_i v_{i,f}²·x_i² ]  +  ½ Σ_f ( Σ_i v_{i,f}·x_i )²
//!         \_____________ stat 0 _________________/        \__ stat f ___/
//! ```
//!
//! Both bracketed sums decompose over column partitions, so each worker
//! ships **F+1 statistics per data point** ("ColumnSGD needs to aggregate
//! statistics of size (F+1)B from each worker", §III-C). After aggregation
//! the square in the second term is applied — squaring must happen *after*
//! the global sum, which is why stat f is shipped unsquared.
//!
//! Gradients with logistic loss (Equations 12–13), with
//! `c = -y/(1+exp(y·ŷ))`:
//!
//! * `∂/∂w_j     = c · x_j`
//! * `∂/∂v_{j,f} = c · (x_j · S_f − v_{j,f} · x_j²)` where `S_f` is the
//!   aggregated stat f.

use columnsgd_linalg::{ops, CsrMatrix};

use crate::params::ParamSet;
use crate::spec::GradSink;

/// Functional initializer for `V`: a deterministic hash-derived value in
/// `[-s, s]` with `s = 0.1/√F`, keyed by the *global* feature index so a
/// column-partitioned model initializes identically to a serial one.
pub fn init_v(seed: u64, global_feature: u64, factor: usize, num_factors: usize) -> f64 {
    init_draw(
        feature_prefix(seed, global_feature),
        factor,
        init_scale(num_factors),
    )
}

/// Fills one feature's factor row: `row[f] = init_v(seed, global_feature,
/// f, row.len())` for every `f`, with the scale and the feature's hash
/// prefix computed once per row instead of once per factor.
pub fn init_v_row(seed: u64, global_feature: u64, row: &mut [f64]) {
    let prefix = feature_prefix(seed, global_feature);
    let scale = init_scale(row.len());
    for (f, v) in row.iter_mut().enumerate() {
        *v = init_draw(prefix, f, scale);
    }
}

/// The half-width `0.1/√F` of [`init_v`]'s range.
fn init_scale(num_factors: usize) -> f64 {
    0.1 / (num_factors as f64).sqrt()
}

/// The part of [`init_v`]'s hash input shared by all factors of a feature.
fn feature_prefix(seed: u64, global_feature: u64) -> u64 {
    seed ^ global_feature.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One factor's value from its feature's hash prefix.
fn init_draw(prefix: u64, factor: usize, scale: f64) -> f64 {
    let mut z = prefix ^ (factor as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let u = z as f64 / u64::MAX as f64; // [0, 1]
    (2.0 * u - 1.0) * scale
}

/// Partial statistics: `out[i*(F+1)]` is the partial stat 0 and
/// `out[i*(F+1)+1+f]` the partial `S_f`, for every batch row `i`.
pub fn partial_stats(factors: usize, params: &ParamSet, batch: &CsrMatrix, out: &mut [f64]) {
    let width = factors + 1;
    debug_assert_eq!(out.len(), batch.nrows() * width);
    let w = params.blocks[0].as_slice();
    let v = params.blocks[1].as_slice();
    let (indices, values) = (batch.indices(), batch.values());
    for (row_out, bounds) in out.chunks_exact_mut(width).zip(batch.indptr().windows(2)) {
        let mut stat0 = 0.0;
        for k in bounds[0]..bounds[1] {
            if let Some(ahead) = ops::feature_ahead(indices, k) {
                ops::prefetch(w, ahead);
                prefetch_v_row(v, factors, ahead);
            }
            let (j, x) = (indices[k] as usize, values[k]);
            stat0 += w[j] * x;
            let vrow = &v[j * factors..(j + 1) * factors];
            for (f, &vjf) in vrow.iter().enumerate() {
                stat0 -= 0.5 * vjf * vjf * x * x;
                row_out[1 + f] += vjf * x;
            }
        }
        row_out[0] = stat0;
    }
}

/// Starts loading feature `j`'s `V` row: its first and last lane, the two
/// cache lines its 80 B span at F = 10.
#[inline]
fn prefetch_v_row(v: &[f64], factors: usize, j: usize) {
    ops::prefetch(v, j * factors);
    ops::prefetch(v, j * factors + factors.saturating_sub(1));
}

/// Recovers `ŷ` for one row from its aggregated statistics.
pub fn predict_from_stats(factors: usize, row_stats: &[f64]) -> f64 {
    debug_assert_eq!(row_stats.len(), factors + 1);
    let mut y = row_stats[0];
    for f in 0..factors {
        let s = row_stats[1 + f];
        y += 0.5 * s * s;
    }
    y
}

/// Mean logistic loss over the batch given aggregated statistics.
pub fn loss(factors: usize, labels: &[f64], stats: &[f64]) -> f64 {
    let width = factors + 1;
    debug_assert_eq!(stats.len(), labels.len() * width);
    if labels.is_empty() {
        return 0.0;
    }
    let total: f64 = labels
        .iter()
        .enumerate()
        .map(|(i, &y)| {
            let yhat = predict_from_stats(factors, &stats[i * width..(i + 1) * width]);
            ops::log1p_exp(-y * yhat)
        })
        .sum();
    total / labels.len() as f64
}

/// Classification accuracy (sign of `ŷ`).
pub fn accuracy(factors: usize, labels: &[f64], stats: &[f64]) -> f64 {
    let width = factors + 1;
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(i, &y)| {
            y * predict_from_stats(factors, &stats[i * width..(i + 1) * width]) > 0.0
        })
        .count();
    correct as f64 / labels.len() as f64
}

/// Accumulates the batch gradient per Equations 12–13.
pub fn accumulate_grad(
    factors: usize,
    params: &ParamSet,
    batch: &CsrMatrix,
    stats: &[f64],
    accum: &mut impl GradSink,
) {
    let width = factors + 1;
    let v = params.blocks[1].as_slice();
    let (indices, values) = (batch.indices(), batch.values());
    let rows = batch.indptr().windows(2).zip(batch.labels());
    for (i, (bounds, &y)) in rows.enumerate() {
        let row_stats = &stats[i * width..(i + 1) * width];
        let yhat = predict_from_stats(factors, row_stats);
        let c = -y * ops::sigmoid(-y * yhat);
        if c == 0.0 {
            continue;
        }
        for k in bounds[0]..bounds[1] {
            if let Some(ahead) = ops::feature_ahead(indices, k) {
                prefetch_v_row(v, factors, ahead);
                accum.prefetch(ahead);
            }
            let (j, x) = (indices[k] as usize, values[k]);
            let (gw, gv) = accum.row(j).split_at_mut(1);
            gw[0] += c * x;
            let vrow = &v[j * factors..(j + 1) * factors];
            for ((g, &vjf), &sf) in gv.iter_mut().zip(vrow).zip(&row_stats[1..]) {
                *g += c * (x * sf - vjf * x * x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GradAccum;
    use columnsgd_linalg::SparseVector;

    /// Brute-force FM prediction: `<w,x> + Σ_{i<j} <v_i,v_j> x_i x_j`.
    fn brute_predict(factors: usize, params: &ParamSet, x: &SparseVector) -> f64 {
        let w = params.blocks[0].as_slice();
        let v = params.blocks[1].as_slice();
        let mut y: f64 = x.iter().map(|(j, xv)| w[j as usize] * xv).sum();
        let items: Vec<(usize, f64)> = x.iter().map(|(j, xv)| (j as usize, xv)).collect();
        for a in 0..items.len() {
            for b in a + 1..items.len() {
                let (ja, xa) = items[a];
                let (jb, xb) = items[b];
                let dot: f64 = (0..factors)
                    .map(|f| v[ja * factors + f] * v[jb * factors + f])
                    .sum();
                y += dot * xa * xb;
            }
        }
        y
    }

    fn sample_params(dim: usize, factors: usize) -> ParamSet {
        let mut p = ParamSet::zeros(dim, &[1, factors]);
        for j in 0..dim {
            p.blocks[0][j] = (j as f64 * 0.3).sin();
            for f in 0..factors {
                p.blocks[1][j * factors + f] = init_v(42, j as u64, f, factors);
            }
        }
        p
    }

    #[test]
    fn equation10_rewrite_matches_brute_force() {
        let factors = 4;
        let p = sample_params(8, factors);
        let x = SparseVector::from_pairs(vec![(0, 1.0), (3, 2.0), (7, 0.5)]);
        let batch = CsrMatrix::from_rows(&[(1.0, x.clone())]);
        let mut stats = vec![0.0; factors + 1];
        partial_stats(factors, &p, &batch, &mut stats);
        let fast = predict_from_stats(factors, &stats);
        let brute = brute_predict(factors, &p, &x);
        assert!((fast - brute).abs() < 1e-10, "{fast} vs {brute}");
    }

    #[test]
    fn stats_decompose_over_column_partitions() {
        // Split features into two "workers" and verify the aggregated
        // statistics equal the serial ones (the §VIII-D protocol).
        let factors = 3;
        let dim = 10;
        let p = sample_params(dim, factors);
        let x =
            SparseVector::from_pairs((0..dim as u64).map(|j| (j, 0.3 + j as f64 * 0.1)).collect());
        let batch_full = CsrMatrix::from_rows(&[(1.0, x.clone())]);
        let mut serial = vec![0.0; factors + 1];
        partial_stats(factors, &p, &batch_full, &mut serial);

        // Partition: worker 0 gets even features, worker 1 odd (with
        // per-worker compacted params and slots).
        let mut agg = vec![0.0; factors + 1];
        for wkr in 0..2usize {
            let feats: Vec<u64> = (0..dim as u64)
                .filter(|j| (*j % 2) as usize == wkr)
                .collect();
            let mut local = ParamSet::zeros(feats.len(), &[1, factors]);
            for (slot, &j) in feats.iter().enumerate() {
                local.blocks[0][slot] = p.blocks[0][j as usize];
                for f in 0..factors {
                    local.blocks[1][slot * factors + f] = p.blocks[1][j as usize * factors + f];
                }
            }
            let xl = SparseVector::from_pairs(
                feats
                    .iter()
                    .enumerate()
                    .map(|(slot, &j)| (slot as u64, x.get(j)))
                    .collect(),
            );
            let bl = CsrMatrix::from_rows(&[(1.0, xl)]);
            let mut part = vec![0.0; factors + 1];
            partial_stats(factors, &local, &bl, &mut part);
            for (a, b) in agg.iter_mut().zip(&part) {
                *a += b;
            }
        }
        for (a, s) in agg.iter().zip(&serial) {
            assert!((a - s).abs() < 1e-10, "{agg:?} vs {serial:?}");
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let factors = 2;
        let dim = 5;
        let p = sample_params(dim, factors);
        let x = SparseVector::from_pairs(vec![(0, 1.0), (2, -1.5), (4, 0.7)]);
        let y = -1.0;
        let batch = CsrMatrix::from_rows(&[(y, x.clone())]);

        let loss_of = |p: &ParamSet| {
            let mut stats = vec![0.0; factors + 1];
            partial_stats(factors, p, &batch, &mut stats);
            loss(factors, &[y], &stats)
        };

        let mut stats = vec![0.0; factors + 1];
        partial_stats(factors, &p, &batch, &mut stats);
        let mut accum = GradAccum::new(&[1, factors]);
        accumulate_grad(factors, &p, &batch, &stats, &mut accum);
        let g = accum.to_sparse_grad();

        let eps = 1e-6;
        // Check every touched coordinate numerically: ∂/∂w_j and ∂/∂v_{j,f}.
        for (pos, &j) in g.indices.iter().enumerate() {
            let j = j as usize;
            let mut p2 = p.clone();
            p2.blocks[0][j] += eps;
            let numeric = (loss_of(&p2) - loss_of(&p)) / eps;
            let analytic = g.blocks[0][pos];
            assert!(
                (numeric - analytic).abs() < 1e-4,
                "w_{j}: numeric {numeric} vs analytic {analytic}"
            );
            for f in 0..factors {
                let mut p2 = p.clone();
                p2.blocks[1][j * factors + f] += eps;
                let numeric = (loss_of(&p2) - loss_of(&p)) / eps;
                let analytic = g.blocks[1][pos * factors + f];
                assert!(
                    (numeric - analytic).abs() < 1e-4,
                    "v_{j},{f}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn init_v_is_deterministic_bounded_and_spread() {
        let f = 8;
        let vals: Vec<f64> = (0..100).map(|j| init_v(7, j, 3, f)).collect();
        let bound = 0.1 / (f as f64).sqrt();
        assert!(vals.iter().all(|v| v.abs() <= bound));
        assert_eq!(init_v(7, 50, 3, f), vals[50]);
        let distinct = vals.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(distinct > 90);
    }

    #[test]
    fn loss_and_accuracy_from_stats() {
        // stats for 2 rows, F=1: [stat0, s1] each.
        let stats = vec![1.0, 2.0, -3.0, 0.0]; // ŷ = 3.0, ŷ = -3.0
        let l = loss(1, &[1.0, -1.0], &stats);
        assert!(l < 0.1);
        assert_eq!(accuracy(1, &[1.0, -1.0], &stats), 1.0);
        assert_eq!(accuracy(1, &[-1.0, -1.0], &stats), 0.5);
    }
}
