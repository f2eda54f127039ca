//! [`ModelSpec`]: the model abstraction implementing the paper's
//! programming interface (§IX) for both parallelization strategies.
//!
//! The four functions of Figure 12 map onto this type as follows:
//!
//! | Paper (`Figure 12`)   | Here                                        |
//! |-----------------------|---------------------------------------------|
//! | `initModel(K)`        | [`ModelSpec::init_params`]                  |
//! | `computeStat(batch)`  | [`ModelSpec::compute_stats`]                |
//! | `reduceStat(s1, s2)`  | [`reduce_stats`] (element-wise sum)         |
//! | `updateModel(stat,…)` | [`ModelSpec::update_from_stats`]            |
//!
//! The same type also exposes the *horizontal* path used by the RowSGD
//! baselines ([`ModelSpec::row_gradient`] / [`ModelSpec::apply_gradient`]),
//! so every system in the evaluation shares one implementation of the
//! model mathematics — differences in the experiments are attributable to
//! the parallelization strategy alone.

use std::collections::BTreeMap;

use columnsgd_linalg::{ops, CsrMatrix, FeatureIndex, SparseVector};
use columnsgd_telemetry::ProfScope;

use crate::fm;
use crate::glm::{self, GlmKind};
use crate::mlr;
use crate::optimizer::OptimizerState;
use crate::params::{ParamSet, SparseGrad, UpdateParams};

/// Which ML model to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// Logistic regression (binary, labels ±1).
    Lr,
    /// Linear SVM with hinge loss (binary, labels ±1).
    Svm,
    /// Least-squares regression.
    LeastSquares,
    /// Multinomial logistic regression with `classes` classes (labels
    /// `0..classes` as f64).
    Mlr {
        /// Number of classes C ≥ 2.
        classes: usize,
    },
    /// Degree-2 factorization machine with `factors` latent factors and
    /// logistic loss (binary, labels ±1).
    Fm {
        /// Number of latent factors F ≥ 1.
        factors: usize,
    },
}

impl ModelSpec {
    /// Values per feature in each parameter block.
    pub fn widths(&self) -> Vec<usize> {
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => vec![1],
            ModelSpec::Mlr { classes } => vec![1; classes],
            ModelSpec::Fm { factors } => vec![1, factors],
        }
    }

    /// Statistics values shipped per data point: 1 for GLMs, C for MLR,
    /// F+1 for FM (§III-C).
    pub fn stats_width(&self) -> usize {
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => 1,
            ModelSpec::Mlr { classes } => classes,
            ModelSpec::Fm { factors } => factors + 1,
        }
    }

    /// Total scalar parameters for a model over `dim` features.
    pub fn num_params(&self, dim: u64) -> u64 {
        self.widths().iter().map(|&w| dim * w as u64).sum()
    }

    /// Stable lowercase label for reports and telemetry (`lr`, `svm`,
    /// `lsq`, `mlr`, `fm`).
    pub fn label(&self) -> &'static str {
        match self {
            ModelSpec::Lr => "lr",
            ModelSpec::Svm => "svm",
            ModelSpec::LeastSquares => "lsq",
            ModelSpec::Mlr { .. } => "mlr",
            ModelSpec::Fm { .. } => "fm",
        }
    }

    /// Work proxy for one superstep's statistics kernels: statistics slots
    /// produced per counted worker — `B × stats_width` — times the number
    /// of counted workers. A unitless volume (not FLOPs), comparable
    /// across models and batch sizes; telemetry stamps it on every
    /// `KernelRecord`.
    pub fn flops_proxy(&self, batch_size: usize, counted_workers: usize) -> u64 {
        (batch_size * self.stats_width() * counted_workers) as u64
    }

    fn glm_kind(&self) -> Option<GlmKind> {
        match self {
            ModelSpec::Lr => Some(GlmKind::Logistic),
            ModelSpec::Svm => Some(GlmKind::Hinge),
            ModelSpec::LeastSquares => Some(GlmKind::Squares),
            _ => None,
        }
    }

    /// Initializes a parameter set covering `dim` feature slots.
    ///
    /// `global_of` maps a local slot to its global feature index; a full
    /// (RowSGD/serial) model passes the identity. Linear weights start at
    /// zero; FM factor matrices use the functional initializer
    /// [`fm::init_v`] (filled a row at a time by [`fm::init_v_row`]) keyed
    /// by *global* index, so any column partitioning of the model
    /// initializes identically to the serial model.
    pub fn init_params<G: Fn(usize) -> u64>(
        &self,
        dim: usize,
        seed: u64,
        global_of: G,
    ) -> ParamSet {
        let mut params = ParamSet::zeros(dim, &self.widths());
        if let ModelSpec::Fm { factors } = *self {
            let v = params.blocks[1].as_mut_slice();
            for slot in 0..dim {
                let row = &mut v[slot * factors..(slot + 1) * factors];
                fm::init_v_row(seed, global_of(slot), row);
            }
        }
        params
    }

    /// Computes this node's partial statistics for a batch
    /// (`computeStat`). `out` is resized to `batch.nrows() *
    /// stats_width()` and overwritten.
    pub fn compute_stats(&self, params: &ParamSet, batch: &CsrMatrix, out: &mut Vec<f64>) {
        let _prof = ProfScope::enter("kernel_stats");
        out.clear();
        out.resize(batch.nrows() * self.stats_width(), 0.0);
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => {
                glm::partial_stats(params, batch, out);
            }
            ModelSpec::Mlr { classes } => mlr::partial_stats(classes, params, batch, out),
            ModelSpec::Fm { factors } => fm::partial_stats(factors, params, batch, out),
        }
    }

    /// Accumulates the (summed, unaveraged) batch gradient given complete
    /// statistics.
    pub fn accumulate_grad(
        &self,
        params: &ParamSet,
        batch: &CsrMatrix,
        stats: &[f64],
        accum: &mut impl GradSink,
    ) {
        let mut probs = Vec::new();
        self.accumulate_grad_into(params, batch, stats, &mut probs, accum);
    }

    /// [`ModelSpec::accumulate_grad`] with every scratch buffer supplied by
    /// the caller (`probs` is the MLR softmax buffer; the other models
    /// ignore it).
    fn accumulate_grad_into(
        &self,
        params: &ParamSet,
        batch: &CsrMatrix,
        stats: &[f64],
        probs: &mut Vec<f64>,
        accum: &mut impl GradSink,
    ) {
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => {
                glm::accumulate_grad(self.glm_kind().expect("glm"), batch, stats, accum);
            }
            ModelSpec::Mlr { classes } => {
                mlr::accumulate_grad(classes, batch, stats, probs, accum);
            }
            ModelSpec::Fm { factors } => fm::accumulate_grad(factors, params, batch, stats, accum),
        }
    }

    /// The ColumnSGD `updateModel`: computes the local gradient from the
    /// aggregated statistics and applies one optimizer step.
    ///
    /// `total_batch` is the global batch size B (gradients are averaged
    /// over the whole batch, matching Figure 12 line 25).
    pub fn update_from_stats(
        &self,
        params: &mut ParamSet,
        opt: &mut OptimizerState,
        batch: &CsrMatrix,
        stats: &[f64],
        up: &UpdateParams,
        total_batch: usize,
    ) {
        let mut accum = GradAccum::new(&self.widths());
        self.accumulate_grad(params, batch, stats, &mut accum);
        step_blocks(params, opt, up, total_batch, |block| accum.runs(block));
    }

    /// Allocation-free [`ModelSpec::update_from_stats`]: identical
    /// mathematics and bit-identical results, but the gradient accumulator
    /// and every scratch buffer live in the caller-owned
    /// [`UpdateScratch`], so the per-iteration hot path performs no heap
    /// allocation once the scratch has seen its largest batch.
    ///
    /// Equivalence holds because both paths fold the same per-coordinate
    /// `+=` sequence and apply each touched coordinate exactly once
    /// through per-coordinate optimizer state; only the application
    /// *order* differs (arrival order here, sorted order there), which
    /// cannot change any coordinate's result. The kernel-equivalence
    /// proptest suite pins this down for GLM, MLR, and FM.
    #[allow(clippy::too_many_arguments)] // mirrors update_from_stats + scratch
    pub fn update_from_stats_with(
        &self,
        params: &mut ParamSet,
        opt: &mut OptimizerState,
        batch: &CsrMatrix,
        stats: &[f64],
        up: &UpdateParams,
        total_batch: usize,
        scratch: &mut UpdateScratch,
    ) {
        let _prof = ProfScope::enter("kernel_update");
        let UpdateScratch { accum, probs } = scratch;
        accum.ensure(params);
        self.accumulate_grad_into(params, batch, stats, probs, accum);
        step_blocks(params, opt, up, total_batch, |block| accum.runs(block));
        accum.clear();
    }

    /// Mean loss over a batch given the complete statistics.
    pub fn loss_from_stats(&self, labels: &[f64], stats: &[f64]) -> f64 {
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => {
                self.glm_kind().expect("glm").loss(labels, stats)
            }
            ModelSpec::Mlr { classes } => mlr::loss(classes, labels, stats),
            ModelSpec::Fm { factors } => fm::loss(factors, labels, stats),
        }
    }

    /// Classification accuracy over a batch given complete statistics.
    pub fn accuracy_from_stats(&self, labels: &[f64], stats: &[f64]) -> f64 {
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => {
                self.glm_kind().expect("glm").accuracy(labels, stats)
            }
            ModelSpec::Mlr { classes } => mlr::accuracy(classes, labels, stats),
            ModelSpec::Fm { factors } => fm::accuracy(factors, labels, stats),
        }
    }

    /// The RowSGD worker step (Algorithm 2, `computeGradients`): computes
    /// the summed gradient of `batch` against a *full* model, as a sparse
    /// message for the master/servers.
    pub fn row_gradient(&self, params: &ParamSet, batch: &CsrMatrix) -> SparseGrad {
        let mut stats = Vec::new();
        // With the full model, the "partial" statistics are already
        // complete — the horizontal path is the vertical path with K=1.
        self.compute_stats(params, batch, &mut stats);
        let mut accum = GradAccum::new(&self.widths());
        self.accumulate_grad(params, batch, &stats, &mut accum);
        accum.to_sparse_grad()
    }

    /// The RowSGD master/server step (Algorithm 2, line 7): applies an
    /// aggregated sparse gradient to (a shard of) the full model.
    ///
    /// `grad` indices must be *local* to `params` (callers shift indices
    /// when the model is sharded over parameter servers).
    pub fn apply_gradient(
        &self,
        params: &mut ParamSet,
        opt: &mut OptimizerState,
        grad: &SparseGrad,
        up: &UpdateParams,
        total_batch: usize,
    ) {
        let widths = self.widths();
        step_blocks(params, opt, up, total_batch, |block| {
            let width = widths[block];
            // An empty gradient may carry no blocks at all.
            let values = grad.blocks.get(block).map_or(&[][..], Vec::as_slice);
            let rows = grad.indices.iter().zip(values.chunks_exact(width));
            rows.map(move |(&j, g_sums)| (j as usize * width, g_sums))
        });
    }

    /// Model output for a single example against a full model: the margin
    /// for GLMs, `ŷ` for FM, and the argmax class (as f64) for MLR.
    pub fn predict(&self, params: &ParamSet, x: &SparseVector) -> f64 {
        let batch = CsrMatrix::from_rows(&[(0.0, x.clone())]);
        let mut stats = Vec::new();
        self.compute_stats(params, &batch, &mut stats);
        match *self {
            ModelSpec::Lr | ModelSpec::Svm | ModelSpec::LeastSquares => stats[0],
            ModelSpec::Mlr { classes } => stats
                .iter()
                .take(classes)
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(c, _)| c as f64)
                .expect("classes >= 1"),
            ModelSpec::Fm { factors } => fm::predict_from_stats(factors, &stats),
        }
    }
}

/// The master's `reduceStat`: element-wise sum of partial statistics
/// (Algorithm 3 line 10; Figure 12 lines 28-33).
pub fn reduce_stats(acc: &mut [f64], partial: &[f64]) {
    assert_eq!(acc.len(), partial.len(), "statistics length mismatch");
    for (a, p) in acc.iter_mut().zip(partial) {
        *a += p;
    }
}

/// One optimizer step over every block of `params`: `runs(block)` yields
/// the block's `(base coordinate, summed gradients)` runs, one per touched
/// feature. Every coordinate is stepped exactly once through
/// per-coordinate state, so the order of runs cannot change any result.
fn step_blocks<'a, I: Iterator<Item = (usize, &'a [f64])> + Clone>(
    params: &mut ParamSet,
    opt: &mut OptimizerState,
    up: &UpdateParams,
    total_batch: usize,
    runs: impl Fn(usize) -> I,
) {
    opt.begin_step();
    let inv_b = 1.0 / total_batch.max(1) as f64;
    for (block, model) in params.blocks.iter_mut().enumerate() {
        opt.apply_runs(block, model, runs(block), inv_b, up);
    }
}

/// Maps `(feature, gradient row)` to the feature's run in `block`: its
/// base coordinate and the block's lanes of the row.
fn block_run<'a>(
    widths: &[usize],
    block: usize,
) -> impl Fn((&usize, &'a [f64])) -> (usize, &'a [f64]) + Clone {
    let (off, width) = (widths[..block].iter().sum::<usize>(), widths[block]);
    move |(&feature, row)| (feature * width, &row[off..off + width])
}

/// Destination for accumulated gradients, one row per touched feature.
///
/// The model kernels `+=` into rows in a deterministic order (row by row,
/// nonzero by nonzero); a sink only decides where a feature's row lives.
/// Two implementations exist: [`GradAccum`] (sorted — the reference) and
/// the compact [`SparseAccum`] (the allocation-free hot path of both
/// engines: inside [`UpdateScratch`] for ColumnSGD, owned by each RowSGD
/// worker). Because both fold the identical `+=` sequence per coordinate,
/// their sums are bit-identical.
pub trait GradSink {
    /// The gradient row of local `feature`: Σwidths lanes laid out block
    /// after block (block `b` starts at lane `Σ widths[..b]`), all zero
    /// on first touch.
    fn row(&mut self, feature: usize) -> &mut [f64];

    /// Hints that [`GradSink::row`] will soon be asked for `feature`. The
    /// kernels call it [`ops::PREFETCH_DISTANCE`] non-zeros ahead; it
    /// changes nothing a sink holds.
    fn prefetch(&self, _feature: usize) {}
}

/// Compact sparse accumulator: memory follows the batch, not the model.
/// A `u32` slot map over local features (4 B each, pages never written
/// stay unmapped), the touched features in arrival order, and one
/// contiguous buffer holding a row of `lanes` gradients per touched
/// feature. Reused across batches: [`SparseAccum::reset`] before each
/// one, then read it out with [`SparseAccum::scatter_into`] or
/// [`SparseAccum::to_sparse_grad`].
#[derive(Debug, Default)]
pub struct SparseAccum {
    /// Per local feature: 0 = untouched, else 1 + its position in `touched`.
    slot: Vec<u32>,
    touched: Vec<usize>,
    /// Rows of `touched`, then zeros; grown geometrically, never shrunk.
    grad: Vec<f64>,
    widths: Vec<usize>,
    lanes: usize,
}

impl SparseAccum {
    /// An empty accumulator. Buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the accumulator of the previous batch and shapes it for
    /// `params`, ready to fold the next one.
    pub fn reset(&mut self, params: &ParamSet) {
        self.clear();
        self.ensure(params);
    }

    /// Adds every accumulated row into the dense `params`-shaped blocks
    /// of `dense`. Into zeroed blocks this leaves each touched
    /// coordinate holding exactly its sum (`0.0 + g == g`).
    pub fn scatter_into(&self, dense: &mut ParamSet) {
        for (block, values) in dense.blocks.iter_mut().enumerate() {
            let values = values.as_mut_slice();
            for (base, run) in self.runs(block) {
                for (d, g) in values[base..base + run.len()].iter_mut().zip(run) {
                    *d += g;
                }
            }
        }
    }

    /// Sets every coordinate of `dense` that [`SparseAccum::scatter_into`]
    /// writes back to `0.0` and leaves the rest alone, so a dense buffer
    /// reused across batches is all zeros again in time proportional to
    /// the batch, not the model.
    pub fn zero_touched(&self, dense: &mut ParamSet) {
        for (block, values) in dense.blocks.iter_mut().enumerate() {
            let values = values.as_mut_slice();
            for (base, run) in self.runs(block) {
                values[base..base + run.len()].fill(0.0);
            }
        }
    }

    /// Materializes the accumulator as a [`SparseGrad`] over the touched
    /// features in feature order — the same message
    /// [`GradAccum::to_sparse_grad`] builds from the same folds.
    pub fn to_sparse_grad(&self) -> SparseGrad {
        let mut order: Vec<(usize, usize)> = self
            .touched
            .iter()
            .enumerate()
            .map(|(pos, &feature)| (feature, pos))
            .collect();
        order.sort_unstable();
        let mut off = 0;
        let blocks = self
            .widths
            .iter()
            .map(|&width| {
                let mut values = Vec::with_capacity(order.len() * width);
                for &(_, pos) in &order {
                    let row = pos * self.lanes + off;
                    values.extend_from_slice(&self.grad[row..row + width]);
                }
                off += width;
                values
            })
            .collect();
        SparseGrad {
            indices: order.iter().map(|&(f, _)| f as FeatureIndex).collect(),
            blocks,
            widths: self.widths.clone(),
        }
    }

    /// Shapes the (all-zero) accumulator for `params`.
    fn ensure(&mut self, params: &ParamSet) {
        let dim = params.dim();
        assert!(
            dim <= u32::MAX as usize,
            "{dim} features overflow u32 slots"
        );
        if self.slot.len() < dim {
            self.slot = vec![0; dim];
        }
        self.widths.clone_from(&params.widths);
        self.lanes = params.widths.iter().sum();
    }

    #[cold]
    fn grow(&mut self) {
        let len = (2 * self.grad.len()).max(64 * self.lanes);
        self.grad.resize(len, 0.0);
    }

    /// The runs of `block`, one per touched feature in arrival order.
    fn runs(&self, block: usize) -> impl Iterator<Item = (usize, &[f64])> + Clone {
        let rows = self.grad.chunks_exact(self.lanes);
        self.touched
            .iter()
            .zip(rows)
            .map(block_run(&self.widths, block))
    }

    /// Back to all-zero, touching only what the batch touched.
    fn clear(&mut self) {
        for &feature in &self.touched {
            self.slot[feature] = 0;
        }
        self.grad[..self.touched.len() * self.lanes].fill(0.0);
        self.touched.clear();
    }
}

impl GradSink for SparseAccum {
    #[inline]
    fn row(&mut self, feature: usize) -> &mut [f64] {
        let mut pos = self.slot[feature] as usize;
        if pos == 0 {
            self.touched.push(feature);
            pos = self.touched.len();
            self.slot[feature] = pos as u32; // pos <= dim, which `ensure` checked fits
            if self.grad.len() < pos * self.lanes {
                self.grow();
            }
        }
        &mut self.grad[(pos - 1) * self.lanes..pos * self.lanes]
    }

    /// Starts loading the feature's slot: the map is 4 B per local
    /// feature (2 MB at 500 k features) and read at random.
    #[inline]
    fn prefetch(&self, feature: usize) {
        ops::prefetch(&self.slot, feature);
    }
}

/// Caller-owned scratch space for [`ModelSpec::update_from_stats_with`]:
/// the compact gradient accumulator and the MLR softmax buffer. It costs
/// 4 B per local feature (lazily zeroed) plus `8·Σwidths` B per feature
/// the largest batch touched — nothing scales with the parameter count.
#[derive(Debug, Default)]
pub struct UpdateScratch {
    accum: SparseAccum,
    probs: Vec<f64>,
}

impl UpdateScratch {
    /// A fresh, empty scratch. Buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sparse gradient accumulator keyed by feature, sorted.
#[derive(Debug, Clone, Default)]
pub struct GradAccum {
    widths: Vec<usize>,
    rows: BTreeMap<usize, Vec<f64>>,
}

impl GradSink for GradAccum {
    fn row(&mut self, feature: usize) -> &mut [f64] {
        let lanes = self.widths.iter().sum();
        self.rows.entry(feature).or_insert_with(|| vec![0.0; lanes])
    }
}

impl GradAccum {
    /// A fresh accumulator for blocks with the given widths.
    pub fn new(widths: &[usize]) -> Self {
        Self {
            widths: widths.to_vec(),
            rows: BTreeMap::new(),
        }
    }

    /// Whether nothing was accumulated.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The runs of `block`, one per touched feature in feature order.
    fn runs(&self, block: usize) -> impl Iterator<Item = (usize, &[f64])> + Clone {
        let rows = self
            .rows
            .iter()
            .map(|(feature, row)| (feature, row.as_slice()));
        rows.map(block_run(&self.widths, block))
    }

    /// Iterates all `(block, coordinate, value)` triples block by block in
    /// coordinate order, skipping exact zeros.
    pub fn iter_coords(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.widths.len()).flat_map(move |block| {
            self.runs(block).flat_map(move |(base, row)| {
                let nonzero = row.iter().enumerate().filter(|(_, &v)| v != 0.0);
                nonzero.map(move |(f, &v)| (block, base + f, v))
            })
        })
    }

    /// Materializes the accumulator as a [`SparseGrad`] over the touched
    /// features.
    pub fn to_sparse_grad(&self) -> SparseGrad {
        let blocks = (0..self.widths.len())
            .map(|block| {
                let mut values = Vec::with_capacity(self.rows.len() * self.widths[block]);
                self.runs(block)
                    .for_each(|(_, row)| values.extend_from_slice(row));
                values
            })
            .collect();
        SparseGrad {
            indices: self.rows.keys().map(|&f| f as FeatureIndex).collect(),
            blocks,
            widths: self.widths.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerKind;

    fn lr_batch() -> CsrMatrix {
        CsrMatrix::from_rows(&[
            (1.0, SparseVector::from_pairs(vec![(0, 1.0), (2, 1.0)])),
            (-1.0, SparseVector::from_pairs(vec![(1, 1.0), (2, 1.0)])),
        ])
    }

    #[test]
    fn widths_and_stats_width() {
        assert_eq!(ModelSpec::Lr.widths(), vec![1]);
        assert_eq!(ModelSpec::Mlr { classes: 3 }.widths(), vec![1, 1, 1]);
        assert_eq!(ModelSpec::Fm { factors: 10 }.widths(), vec![1, 10]);
        assert_eq!(ModelSpec::Fm { factors: 10 }.stats_width(), 11);
        assert_eq!(ModelSpec::Svm.stats_width(), 1);
        assert_eq!(
            ModelSpec::Fm { factors: 50 }.num_params(54_686_452),
            54_686_452 * 51
        );
    }

    #[test]
    fn reduce_stats_is_elementwise_sum() {
        let mut acc = vec![1.0, 2.0];
        reduce_stats(&mut acc, &[10.0, 20.0]);
        assert_eq!(acc, vec![11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_stats_rejects_mismatch() {
        reduce_stats(&mut [0.0], &[1.0, 2.0]);
    }

    #[test]
    fn grad_accum_roundtrip() {
        let mut a = GradAccum::new(&[1, 2]);
        assert!(a.is_empty());
        a.row(3)[0] += 1.0;
        a.row(3)[0] += 2.0;
        a.row(3)[2] += 5.0; // block 1, feature 3, comp 1
        let g = a.to_sparse_grad();
        assert_eq!(g.indices, vec![3]);
        assert_eq!(g.blocks[0], vec![3.0]);
        assert_eq!(g.blocks[1], vec![0.0, 5.0]);
        let coords: Vec<_> = a.iter_coords().collect();
        assert_eq!(coords, vec![(0, 3, 3.0), (1, 7, 5.0)]);
    }

    /// The `GradAccum` contract for one block layout: features touched
    /// out of order (9, 2, 5; feature 5 only with zeros) with lane `l` of
    /// feature `j` holding `10·j + l`, except an exact zero in the last
    /// lane of feature 2.
    fn check_grad_accum_contract(widths: &[usize]) {
        let lanes: usize = widths.iter().sum();
        let mut a = GradAccum::new(widths);
        for j in [9usize, 2, 5, 9] {
            let row = a.row(j);
            assert_eq!(row.len(), lanes);
            for (l, g) in row.iter_mut().enumerate() {
                // Feature 9 is visited twice: halves fold to the whole.
                *g += if j == 5 {
                    0.0
                } else {
                    (10 * j + l) as f64 / (1 + j / 9) as f64
                };
            }
        }
        a.row(2)[lanes - 1] = 0.0;
        let value = |j: usize, l: usize| {
            if j == 5 || (j == 2 && l == lanes - 1) {
                0.0
            } else {
                (10 * j + l) as f64
            }
        };

        // Sorted indices (zero rows included: the feature was touched),
        // per block `indices.len() × width` values, feature-major.
        let g = a.to_sparse_grad();
        assert_eq!(g.indices, vec![2, 5, 9]);
        assert_eq!(g.widths, widths);
        assert_eq!(g.blocks.len(), widths.len());
        let mut expect_coords = Vec::new();
        let mut off = 0;
        for (b, &w) in widths.iter().enumerate() {
            let expect: Vec<f64> = [2usize, 5, 9]
                .iter()
                .flat_map(|&j| (0..w).map(move |f| (j, f)))
                .map(|(j, f)| value(j, off + f))
                .collect();
            assert_eq!(g.blocks[b], expect, "widths {widths:?} block {b}");
            assert_eq!(g.blocks[b].len(), g.indices.len() * w);
            // Block by block, then by coordinate, exact zeros skipped.
            for j in [2usize, 9] {
                for f in 0..w {
                    if value(j, off + f) != 0.0 {
                        expect_coords.push((b, j * w + f, value(j, off + f)));
                    }
                }
            }
            off += w;
        }
        assert_eq!(a.iter_coords().collect::<Vec<_>>(), expect_coords);
    }

    #[test]
    fn grad_accum_contract_across_layouts() {
        check_grad_accum_contract(&[1]);
        check_grad_accum_contract(&[1, 1, 1]);
        check_grad_accum_contract(&[1, 4]);
    }

    #[test]
    fn fm_init_fill_matches_init_v_for_every_coordinate() {
        for factors in [1, 3, 10] {
            let spec = ModelSpec::Fm { factors };
            // Worker 1 of a 3-way round-robin split: global = 3·slot + 1.
            let global_of = |slot: usize| 3 * slot as u64 + 1;
            let p = spec.init_params(37, 11, global_of);
            assert!(p.blocks[0].as_slice().iter().all(|&w| w == 0.0));
            let v = p.blocks[1].as_slice();
            assert_eq!(v.len(), 37 * factors);
            for slot in 0..37 {
                for f in 0..factors {
                    let want = fm::init_v(11, global_of(slot), f, factors);
                    assert_eq!(v[slot * factors + f].to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn scratch_memory_follows_the_batch_not_the_model() {
        let spec = ModelSpec::Fm { factors: 10 };
        let dim = 1usize << 20;
        let mut p = spec.init_params(dim, 3, |s| s as u64);
        let mut opt = OptimizerState::for_params(OptimizerKind::Sgd, &p);
        // 64 rows × 16 non-zeros, strided so most features are distinct
        // and a few repeat across rows.
        let rows: Vec<(f64, SparseVector)> = (0..64u64)
            .map(|i| {
                let pairs = (0..16u64).map(|k| ((i * 7919 + k * 65_537) % dim as u64, 0.5));
                let pairs: BTreeMap<u64, f64> = pairs.collect();
                (
                    if i % 2 == 0 { 1.0 } else { -1.0 },
                    SparseVector::from_pairs(pairs.into_iter().collect()),
                )
            })
            .collect();
        let batch = CsrMatrix::from_rows(&rows);
        let distinct: std::collections::BTreeSet<u64> = batch
            .iter_rows()
            .flat_map(|(_, idx, _)| idx.iter().copied())
            .collect();
        let mut stats = Vec::new();
        spec.compute_stats(&p, &batch, &mut stats);
        let mut scratch = UpdateScratch::new();
        let up = UpdateParams::plain(0.05);
        spec.update_from_stats_with(&mut p, &mut opt, &batch, &stats, &up, 64, &mut scratch);

        let accum = &scratch.accum;
        assert_eq!(accum.lanes, 11);
        // Grown by doubling from 64 rows: under twice what the batch needs.
        let need = distinct.len().max(64) * 11;
        assert!(accum.grad.len() >= distinct.len() * 11);
        assert!(
            accum.grad.len() < 2 * need,
            "{} vs {need}",
            accum.grad.len()
        );
        assert!(accum.grad.len() < dim, "nothing is sized by the model");
        assert!(accum.grad.iter().all(|&g| g == 0.0));
        assert_eq!(accum.slot.len(), dim);
        assert!(accum.slot.iter().all(|&s| s == 0));
        assert!(accum.touched.is_empty());
        assert!(accum.touched.capacity() < dim);
    }

    #[test]
    fn update_from_stats_descends() {
        let spec = ModelSpec::Lr;
        let mut p = spec.init_params(3, 0, |s| s as u64);
        let mut opt = OptimizerState::for_params(OptimizerKind::Sgd, &p);
        let batch = lr_batch();
        let up = UpdateParams::plain(0.5);
        let mut last = f64::INFINITY;
        let mut stats = Vec::new();
        for _ in 0..50 {
            spec.compute_stats(&p, &batch, &mut stats);
            let l = spec.loss_from_stats(batch.labels(), &stats);
            assert!(l <= last + 1e-9, "loss must not increase: {l} > {last}");
            last = l;
            spec.update_from_stats(&mut p, &mut opt, &batch, &stats.clone(), &up, 2);
        }
        assert!(last < 0.3, "final loss {last}");
        // Separating direction learned: w0 > 0, w1 < 0.
        assert!(p.blocks[0][0] > 0.0 && p.blocks[0][1] < 0.0);
    }

    #[test]
    fn row_path_equals_vertical_path_for_k1() {
        // With the full model, applying row_gradient must produce exactly
        // the same parameters as update_from_stats.
        for spec in [ModelSpec::Lr, ModelSpec::Svm, ModelSpec::Fm { factors: 3 }] {
            let batch = lr_batch();
            let up = UpdateParams::plain(0.1);

            let mut p1 = spec.init_params(3, 9, |s| s as u64);
            let mut o1 = OptimizerState::for_params(OptimizerKind::Sgd, &p1);
            let mut stats = Vec::new();
            spec.compute_stats(&p1, &batch, &mut stats);
            let mut p2 = p1.clone();
            let mut o2 = OptimizerState::for_params(OptimizerKind::Sgd, &p2);

            spec.update_from_stats(&mut p1, &mut o1, &batch, &stats, &up, 2);
            let g = spec.row_gradient(&p2, &batch);
            spec.apply_gradient(&mut p2, &mut o2, &g, &up, 2);

            for (b1, b2) in p1.blocks.iter().zip(&p2.blocks) {
                for (x, y) in b1.as_slice().iter().zip(b2.as_slice()) {
                    assert!((x - y).abs() < 1e-12, "{spec:?}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn fm_init_matches_partitioned_init() {
        let spec = ModelSpec::Fm { factors: 4 };
        let full = spec.init_params(10, 77, |s| s as u64);
        // "Worker" owning features {1, 4, 7} via a slot→global map.
        let feats = [1u64, 4, 7];
        let local = spec.init_params(3, 77, |s| feats[s]);
        for (slot, &j) in feats.iter().enumerate() {
            for f in 0..4 {
                assert_eq!(
                    local.blocks[1][slot * 4 + f],
                    full.blocks[1][j as usize * 4 + f]
                );
            }
        }
    }

    #[test]
    fn predict_shapes() {
        let mut p = ModelSpec::Lr.init_params(3, 0, |s| s as u64);
        p.blocks[0] = vec![1.0, -2.0, 0.0].into();
        let x = SparseVector::from_pairs(vec![(0, 2.0), (1, 1.0)]);
        assert_eq!(ModelSpec::Lr.predict(&p, &x), 0.0);

        let spec = ModelSpec::Mlr { classes: 2 };
        let mut p = spec.init_params(2, 0, |s| s as u64);
        p.blocks[1] = vec![5.0, 5.0].into();
        assert_eq!(
            spec.predict(&p, &SparseVector::from_pairs(vec![(0, 1.0)])),
            1.0
        );
    }

    use columnsgd_linalg::SparseVector;
}
