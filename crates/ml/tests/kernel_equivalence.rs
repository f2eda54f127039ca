//! Property suite pinning the superstep hot path to the reference kernels.
//!
//! The allocation-free path (`compute_stats` into reused buffers +
//! `update_from_stats_with` with a persistent [`UpdateScratch`]) must be
//! **bit-identical** to the straightforward path (fresh vectors +
//! `update_from_stats` over the `BTreeMap`-backed `GradAccum`) — for every
//! model family, across random batches, partition counts, optimizers and
//! regularizers, and across consecutive iterations reusing the same scratch
//! buffers — including batches whose feature sets shrink, move and grow
//! from one call to the next, and a larger model on the same scratch.
//! Feature ranges are small (≤ 32) so that rows share features and
//! coordinates fold several `+=` terms. The RowSGD reply path (one reused
//! `SparseAccum` read out as a sparse or a dense gradient) is pinned to
//! `GradAccum` the same way.
//!
//! Equivalence is exact, not approximate: both paths fold the identical
//! per-coordinate `+=` sequence, and optimizer state is per-coordinate, so
//! the only difference (gradient application *order*) cannot change any
//! coordinate's value. `assert_eq!` on the raw f64 bits enforces this.
//!
//! Both paths above run the same kernels, so they cannot catch a kernel
//! whose cursor walks its batch wrongly. [`reference`] therefore keeps a
//! copy of the row-at-a-time loops the flat-cursor, read-ahead kernels
//! replaced, and `flat_kernels_match_the_row_loops` pins the shipped
//! kernels to it.

use std::collections::{BTreeMap, BTreeSet};

use columnsgd_data::block::Block;
use columnsgd_data::workset::split_block;
use columnsgd_data::{ColumnPartitioner, Workset};
use columnsgd_linalg::{CsrMatrix, SparseVector};
use columnsgd_ml::spec::{reduce_stats, GradAccum};
use columnsgd_ml::{
    ModelSpec, OptimizerKind, OptimizerState, ParamSet, Regularizer, SparseAccum, SparseGrad,
    UpdateParams, UpdateScratch,
};
use proptest::prelude::*;

const SEED: u64 = 77;
const ITERS: usize = 3;

fn model_strategy() -> impl Strategy<Value = ModelSpec> {
    prop_oneof![
        Just(ModelSpec::Lr),
        Just(ModelSpec::Svm),
        Just(ModelSpec::LeastSquares),
        (2usize..5).prop_map(|classes| ModelSpec::Mlr { classes }),
        (1usize..5).prop_map(|factors| ModelSpec::Fm { factors }),
    ]
}

fn optimizer_strategy() -> impl Strategy<Value = OptimizerKind> {
    prop_oneof![
        Just(OptimizerKind::Sgd),
        Just(OptimizerKind::adagrad()),
        Just(OptimizerKind::adam()),
    ]
}

fn update_strategy() -> impl Strategy<Value = UpdateParams> {
    let regularizer = prop_oneof![
        Just(Regularizer::None),
        (0.001f64..0.5).prop_map(Regularizer::L2),
        (0.001f64..0.5).prop_map(Regularizer::L1),
    ];
    regularizer.prop_map(|regularizer| UpdateParams {
        learning_rate: 0.3,
        regularizer,
    })
}

/// Raw rows: `(label seed, [(feature seed, value)])`, mapped onto a
/// concrete feature set by the test.
type RawRows = Vec<(u64, Vec<(u64, f64)>)>;

fn raw_rows_strategy(features: std::ops::Range<u64>) -> impl Strategy<Value = RawRows> {
    let row = prop::collection::vec((features, -2.0f64..2.0), 1..8);
    prop::collection::vec((0u64..1_000, row), 1usize..16)
}

/// One partition's state, kept twice: the reference (fresh allocations,
/// `GradAccum`) and the tuned (reused buffers, `UpdateScratch`) copies.
struct Lane {
    params: ParamSet,
    opt: OptimizerState,
}

fn lanes(
    model: ModelSpec,
    optimizer: OptimizerKind,
    part: &ColumnPartitioner,
    dim: u64,
) -> Vec<Lane> {
    (0..part.num_workers())
        .map(|p| {
            let local_dim = part.local_dim(p, dim);
            let params = model.init_params(local_dim, SEED, |slot| part.global_index(p, slot));
            let opt = OptimizerState::for_params(optimizer, &params);
            Lane { params, opt }
        })
        .collect()
}

fn materialize_rows(model: ModelSpec, raw_rows: &RawRows) -> Vec<(f64, SparseVector)> {
    materialize_rows_onto(model, raw_rows, |j| j)
}

/// [`materialize_rows`] with every feature seed sent through `feature_of`.
fn materialize_rows_onto(
    model: ModelSpec,
    raw_rows: &RawRows,
    feature_of: impl Fn(u64) -> u64,
) -> Vec<(f64, SparseVector)> {
    raw_rows
        .iter()
        .map(|(raw_label, pairs)| {
            let dedup: BTreeMap<u64, f64> =
                pairs.iter().map(|&(j, x)| (feature_of(j), x)).collect();
            let label = match model {
                ModelSpec::Mlr { classes } => (raw_label % classes as u64) as f64,
                _ => {
                    if raw_label & 1 == 0 {
                        -1.0
                    } else {
                        1.0
                    }
                }
            };
            (label, SparseVector::from_pairs(dedup.into_iter().collect()))
        })
        .collect()
}

proptest! {
    #[test]
    fn scratch_path_is_bit_identical_to_reference(
        (model, optimizer, k, dim, raw_rows) in (
            model_strategy(),
            optimizer_strategy(),
            1usize..6,
            8u64..32,
        ).prop_flat_map(|(model, optimizer, k, dim)| {
            (Just(model), Just(optimizer), Just(k), Just(dim), raw_rows_strategy(0..dim))
        }),
        up in update_strategy(),
    ) {
        let rows = materialize_rows(model, &raw_rows);
        let b = rows.len();
        let width = model.stats_width();

        let part = ColumnPartitioner::round_robin(k);
        let block = Block::from_rows(0, &rows);
        let worksets: Vec<Workset> = split_block(&block, &part);

        let mut reference = lanes(model, optimizer, &part, dim);
        let mut tuned = lanes(model, optimizer, &part, dim);
        // Tuned-path buffers persist across iterations — reuse is the
        // property under test, not a per-iteration reset.
        let mut stats_bufs: Vec<Vec<f64>> = vec![Vec::new(); k];
        let mut scratches: Vec<UpdateScratch> = (0..k).map(|_| UpdateScratch::new()).collect();
        let mut agg = Vec::new();

        for iter in 0..ITERS {
            // Reference statistics: fresh vectors every time.
            let mut ref_agg = vec![0.0; b * width];
            for (lane, ws) in reference.iter().zip(&worksets) {
                let mut partial = Vec::new();
                model.compute_stats(&lane.params, &ws.data, &mut partial);
                reduce_stats(&mut ref_agg, &partial);
            }
            // Tuned statistics: per-partition buffers reused across
            // iterations, reduced in the same fixed partition order.
            agg.clear();
            agg.resize(b * width, 0.0);
            for ((lane, ws), buf) in tuned.iter().zip(&worksets).zip(&mut stats_bufs) {
                model.compute_stats(&lane.params, &ws.data, buf);
                reduce_stats(&mut agg, buf);
            }
            for (i, (a, r)) in agg.iter().zip(&ref_agg).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    r.to_bits(),
                    "iter {}: stat {} diverged: {} vs {}", iter, i, a, r
                );
            }

            // Reference update: GradAccum (sorted apply order).
            for (lane, ws) in reference.iter_mut().zip(&worksets) {
                model.update_from_stats(&mut lane.params, &mut lane.opt, &ws.data, &ref_agg, &up, b);
            }
            // Tuned update: persistent scratch (arrival apply order).
            for ((lane, ws), scratch) in tuned.iter_mut().zip(&worksets).zip(&mut scratches) {
                model.update_from_stats_with(
                    &mut lane.params,
                    &mut lane.opt,
                    &ws.data,
                    &agg,
                    &up,
                    b,
                    scratch,
                );
            }
            for (p, (r, t)) in reference.iter().zip(&tuned).enumerate() {
                for (bi, (rb, tb)) in r.params.blocks.iter().zip(&t.params.blocks).enumerate() {
                    for (c, (x, y)) in rb.as_slice().iter().zip(tb.as_slice()).enumerate() {
                        prop_assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "iter {}: partition {} block {} coord {}: {} vs {}",
                            iter, p, bi, c, x, y
                        );
                    }
                }
            }
        }
    }

    /// One scratch, a full model (K = 1), and a batch sequence built to
    /// stress the accumulator's reset: features of batch t+1 are a strict
    /// subset of batch t's, then disjoint from them, then a superset, and
    /// finally a model twice as large takes over the same scratch.
    #[test]
    fn persistent_scratch_survives_changing_feature_sets_and_shapes(
        (model, optimizer, up, dim) in
            (model_strategy(), optimizer_strategy(), update_strategy(), 8u64..32),
        (rows_a, rows_b, rows_c, rows_d, rows_e) in (
            raw_rows_strategy(0..1_000),
            raw_rows_strategy(0..1_000),
            raw_rows_strategy(0..1_000),
            raw_rows_strategy(0..1_000),
            raw_rows_strategy(0..1_000),
        ),
    ) {
        let half = dim / 2;
        let touched = |rows: &[(f64, SparseVector)]| -> Vec<u64> {
            let set: BTreeSet<u64> = rows.iter().flat_map(|(_, x)| x.iter().map(|(j, _)| j)).collect();
            set.into_iter().collect()
        };
        let all_of = |features: &[u64]| {
            (1.0, SparseVector::from_pairs(features.iter().map(|&j| (j, 0.75)).collect()))
        };

        // A: the lower half, at least features 0 and 1.
        let mut a = materialize_rows_onto(model, &rows_a, |j| j % half);
        a.push(all_of(&[0, 1]));
        let in_a = touched(&a);
        // B: a strict subset of A's features (all but its largest).
        let b = materialize_rows_onto(model, &rows_b, |j| in_a[j as usize % (in_a.len() - 1)]);
        // C: the upper half only — disjoint from A and B.
        let c = materialize_rows_onto(model, &rows_c, |j| half + j % (dim - half));
        let in_c = touched(&c);
        // D: everything C touched, feature 0, and whatever else falls out.
        let mut d = materialize_rows_onto(model, &rows_d, |j| j % dim);
        d.push(all_of(&in_c));
        d.push(all_of(&[0]));
        // E: a model twice as large, touching its last feature.
        let dim_e = 2 * dim + 3;
        let mut e = materialize_rows_onto(model, &rows_e, |j| j % dim_e);
        e.push(all_of(&[dim_e - 1]));

        let in_b = touched(&b);
        let in_d = touched(&d);
        prop_assert!(in_b.len() < in_a.len() && in_b.iter().all(|j| in_a.contains(j)));
        prop_assert!(in_c.iter().all(|j| !in_a.contains(j)));
        prop_assert!(in_d.len() > in_c.len() && in_c.iter().all(|j| in_d.contains(j)));

        let mut scratch = UpdateScratch::new();
        let mut stats = Vec::new();
        for (dim, batches) in [(dim, vec![a, b, c, d]), (dim_e, vec![e])] {
            let fresh = || {
                let params = model.init_params(dim as usize, SEED, |slot| slot as u64);
                let opt = OptimizerState::for_params(optimizer, &params);
                Lane { params, opt }
            };
            let (mut reference, mut tuned) = (fresh(), fresh());
            for (step, rows) in batches.iter().enumerate() {
                let batch = CsrMatrix::from_rows(rows);
                let n = batch.nrows();
                model.compute_stats(&reference.params, &batch, &mut stats);
                model.update_from_stats(&mut reference.params, &mut reference.opt, &batch, &stats, &up, n);
                model.update_from_stats_with(
                    &mut tuned.params, &mut tuned.opt, &batch, &stats, &up, n, &mut scratch,
                );
                for (bi, (rb, tb)) in reference.params.blocks.iter().zip(&tuned.params.blocks).enumerate() {
                    for (coord, (x, y)) in rb.as_slice().iter().zip(tb.as_slice()).enumerate() {
                        prop_assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "dim {} step {}: block {} coord {}: {} vs {}",
                            dim, step, bi, coord, x, y
                        );
                    }
                }
                prop_assert!(reference.opt == tuned.opt, "dim {} step {}: optimizer state", dim, step);
            }
        }
    }

    /// The RowSGD worker's reply path: one [`SparseAccum`], reused across
    /// batches whose feature sets and model sizes change and across the
    /// block layouts `[1]`, `[1, 1, 1]` and `[1, 4]`, reads out exactly
    /// what a fresh `GradAccum` over the same folds does — as a sorted
    /// `SparseGrad`, and scattered into a zeroed dense reply.
    #[test]
    fn reused_sparse_accum_reads_out_like_grad_accum(
        batches in prop::collection::vec((8u64..40, raw_rows_strategy(0..1_000)), 1..6),
    ) {
        let mut accum = SparseAccum::new();
        let mut stats = Vec::new();
        for model in [ModelSpec::Lr, ModelSpec::Mlr { classes: 3 }, ModelSpec::Fm { factors: 4 }] {
            for (step, (dim, raw_rows)) in batches.iter().enumerate() {
                let rows = materialize_rows_onto(model, raw_rows, |j| j % dim);
                let batch = CsrMatrix::from_rows(&rows);
                let params = model.init_params(*dim as usize, SEED, |slot| slot as u64);
                model.compute_stats(&params, &batch, &mut stats);

                let mut reference = GradAccum::new(&model.widths());
                model.accumulate_grad(&params, &batch, &stats, &mut reference);
                accum.reset(&params);
                model.accumulate_grad(&params, &batch, &stats, &mut accum);

                let (want, got) = (reference.to_sparse_grad(), accum.to_sparse_grad());
                prop_assert_eq!(&got.indices, &want.indices, "{:?} step {}: indices", model, step);
                prop_assert_eq!(&got.widths, &want.widths, "{:?} step {}: widths", model, step);
                prop_assert_eq!(
                    bits(got.blocks.iter().flatten()),
                    bits(want.blocks.iter().flatten()),
                    "{:?} step {}: sparse values", model, step
                );

                let mut want_dense = ParamSet::zeros(*dim as usize, &model.widths());
                scatter_grad(&want, &mut want_dense);
                let mut got_dense = ParamSet::zeros(*dim as usize, &model.widths());
                accum.scatter_into(&mut got_dense);
                prop_assert_eq!(
                    bits(got_dense.blocks.iter().flat_map(|b| b.as_slice())),
                    bits(want_dense.blocks.iter().flat_map(|b| b.as_slice())),
                    "{:?} step {}: dense values", model, step
                );
            }
        }
    }
}

/// The per-row kernels as they stood before the flat-cursor rewrite, kept
/// verbatim as the pin for [`flat_kernels_match_the_row_loops`].
mod reference {
    use columnsgd_linalg::{ops, CsrMatrix};
    use columnsgd_ml::glm::GlmKind;
    use columnsgd_ml::{fm, GradSink, ModelSpec, ParamSet};

    fn glm_kind(model: ModelSpec) -> GlmKind {
        match model {
            ModelSpec::Lr => GlmKind::Logistic,
            ModelSpec::Svm => GlmKind::Hinge,
            ModelSpec::LeastSquares => GlmKind::Squares,
            _ => unreachable!("{model:?} is not a GLM"),
        }
    }

    pub fn stats(model: ModelSpec, params: &ParamSet, batch: &CsrMatrix) -> Vec<f64> {
        let mut out = vec![0.0; batch.nrows() * model.stats_width()];
        match model {
            ModelSpec::Mlr { classes } => {
                for c in 0..classes {
                    let w = params.blocks[c].as_slice();
                    for i in 0..batch.nrows() {
                        out[i * classes + c] = batch.row_dot_dense(i, w);
                    }
                }
            }
            ModelSpec::Fm { factors } => {
                let width = factors + 1;
                let w = params.blocks[0].as_slice();
                let v = params.blocks[1].as_slice();
                for (i, (_, idx, val)) in batch.iter_rows().enumerate() {
                    let row_out = &mut out[i * width..(i + 1) * width];
                    let mut stat0 = 0.0;
                    for (&j, &x) in idx.iter().zip(val) {
                        let j = j as usize;
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
            _ => {
                let w = params.blocks[0].as_slice();
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = batch.row_dot_dense(i, w);
                }
            }
        }
        out
    }

    pub fn accumulate(
        model: ModelSpec,
        params: &ParamSet,
        batch: &CsrMatrix,
        stats: &[f64],
        accum: &mut impl GradSink,
    ) {
        match model {
            ModelSpec::Mlr { classes } => {
                let mut probs = vec![0.0; classes];
                for (i, (y, idx, val)) in batch.iter_rows().enumerate() {
                    let row = &stats[i * classes..(i + 1) * classes];
                    ops::softmax_into(row, &mut probs);
                    let target = y as usize;
                    for (c, &p) in probs.iter().enumerate() {
                        let coeff = p - f64::from(c == target);
                        if coeff == 0.0 {
                            continue;
                        }
                        for (&j, &x) in idx.iter().zip(val) {
                            accum.row(j as usize)[c] += coeff * x;
                        }
                    }
                }
            }
            ModelSpec::Fm { factors } => {
                let width = factors + 1;
                let v = params.blocks[1].as_slice();
                for (i, (y, idx, val)) in batch.iter_rows().enumerate() {
                    let row_stats = &stats[i * width..(i + 1) * width];
                    let yhat = fm::predict_from_stats(factors, row_stats);
                    let c = -y * ops::sigmoid(-y * yhat);
                    if c == 0.0 {
                        continue;
                    }
                    for (&j, &x) in idx.iter().zip(val) {
                        let j = j as usize;
                        let (gw, gv) = accum.row(j).split_at_mut(1);
                        gw[0] += c * x;
                        let vrow = &v[j * factors..(j + 1) * factors];
                        for ((g, &vjf), &sf) in gv.iter_mut().zip(vrow).zip(&row_stats[1..]) {
                            *g += c * (x * sf - vjf * x * x);
                        }
                    }
                }
            }
            _ => {
                let kind = glm_kind(model);
                for (i, (y, idx, val)) in batch.iter_rows().enumerate() {
                    let c = kind.coeff(y, stats[i]);
                    if c == 0.0 {
                        continue;
                    }
                    for (&j, &x) in idx.iter().zip(val) {
                        accum.row(j as usize)[0] += c * x;
                    }
                }
            }
        }
    }
}

/// GLMs, MLR and FM at every factor count from 1 to 12 (12 lanes of `V`
/// is the first count whose row spans three cache lines).
fn every_kernel_strategy() -> impl Strategy<Value = ModelSpec> {
    prop_oneof![
        Just(ModelSpec::Lr),
        Just(ModelSpec::Svm),
        Just(ModelSpec::LeastSquares),
        (2usize..6).prop_map(|classes| ModelSpec::Mlr { classes }),
        (1usize..=12).prop_map(|factors| ModelSpec::Fm { factors }),
    ]
}

/// Rows that may be empty or longer than the read-ahead distance, from no
/// rows to a few dozen: batches with fewer non-zeros than that distance
/// as well as many more.
fn sparse_rows_strategy(features: std::ops::Range<u64>) -> impl Strategy<Value = RawRows> {
    let row = prop::collection::vec((features, -2.0f64..2.0), 0..24);
    prop::collection::vec((0u64..1_000, row), 0usize..24)
}

proptest! {
    /// The flat-cursor kernels that read model rows and accumulator slots
    /// ahead compute the bits the row loops did: statistics, parameters,
    /// optimizer state and the RowSGD gradient message. `scale` stretches
    /// the linear weights so that some rows' coefficients vanish (`c == 0`
    /// skips the row: an inactive hinge, a saturated sigmoid or softmax),
    /// and with `last` a row touches the feature at `dim - 1`.
    #[test]
    fn flat_kernels_match_the_row_loops(
        (model, optimizer, up, dim) in
            (every_kernel_strategy(), optimizer_strategy(), update_strategy(), 1u64..64),
        raw_rows in sparse_rows_strategy(0..1_000),
        (scale, last) in (prop_oneof![Just(1.0), Just(1e4)], (0u8..2).prop_map(|b| b == 1)),
    ) {
        let mut rows = materialize_rows_onto(model, &raw_rows, |j| j % dim);
        if last {
            let label = rows.first().map_or(1.0, |r| r.0);
            rows.push((label, SparseVector::from_pairs(vec![(dim - 1, 1.25)])));
        }
        let batch = CsrMatrix::from_rows(&rows);
        let n = batch.nrows();

        let mut params = model.init_params(dim as usize, SEED, |slot| slot as u64);
        for (j, w) in params.blocks[0].as_mut_slice().iter_mut().enumerate() {
            *w = scale * ((j as f64) * 0.61).sin();
        }
        let (mut ref_params, mut ref_opt) =
            (params.clone(), OptimizerState::for_params(optimizer, &params));
        let mut opt = ref_opt.clone();
        let (mut stats, mut scratch, mut accum) = (Vec::new(), UpdateScratch::new(), SparseAccum::new());

        for step in 0..2 {
            let want = reference::stats(model, &ref_params, &batch);
            model.compute_stats(&params, &batch, &mut stats);
            prop_assert_eq!(bits(stats.iter()), bits(want.iter()), "{:?} step {}: stats", model, step);

            // The RowSGD message: the prefetching sink and the plain one
            // fold what the row loops folded.
            let mut ref_grad = GradAccum::new(&model.widths());
            reference::accumulate(model, &ref_params, &batch, &want, &mut ref_grad);
            let want_grad = ref_grad.to_sparse_grad();
            let mut plain = GradAccum::new(&model.widths());
            model.accumulate_grad(&params, &batch, &stats, &mut plain);
            accum.reset(&params);
            model.accumulate_grad(&params, &batch, &stats, &mut accum);
            for got in [plain.to_sparse_grad(), accum.to_sparse_grad()] {
                prop_assert_eq!(&got.indices, &want_grad.indices, "{:?} step {}: touched", model, step);
                prop_assert_eq!(
                    bits(got.blocks.iter().flatten()),
                    bits(want_grad.blocks.iter().flatten()),
                    "{:?} step {}: gradient", model, step
                );
            }

            // The ColumnSGD update against the row loops' gradient applied
            // through the same optimizer.
            model.apply_gradient(&mut ref_params, &mut ref_opt, &want_grad, &up, n);
            model.update_from_stats_with(&mut params, &mut opt, &batch, &stats, &up, n, &mut scratch);
            prop_assert_eq!(
                bits(params.blocks.iter().flat_map(|b| b.as_slice())),
                bits(ref_params.blocks.iter().flat_map(|b| b.as_slice())),
                "{:?} step {}: parameters", model, step
            );
            // `Debug` prints every f64 in a form that round-trips, sign of
            // zero included: equal strings are equal state bits.
            prop_assert_eq!(format!("{opt:?}"), format!("{ref_opt:?}"), "{:?} step {}: optimizer", model, step);
        }
    }
}

#[test]
fn saturated_rows_are_skipped_by_every_kernel_family() {
    // The property above draws `c == 0` rows at random; make sure they do
    // occur: one FM row so confident its sigmoid underflows, and one SVM
    // row past the hinge, each next to a row that does contribute.
    let rows = vec![
        (1.0, SparseVector::from_pairs(vec![(0, 1.0)])),
        (1.0, SparseVector::from_pairs(vec![(1, 1.0)])),
    ];
    let batch = CsrMatrix::from_rows(&rows);
    for model in [ModelSpec::Fm { factors: 3 }, ModelSpec::Svm] {
        let mut params = model.init_params(2, SEED, |slot| slot as u64);
        params.blocks[0][0] = 1e4;
        let mut stats = Vec::new();
        model.compute_stats(&params, &batch, &mut stats);
        let mut accum = SparseAccum::new();
        accum.reset(&params);
        model.accumulate_grad(&params, &batch, &stats, &mut accum);
        assert_eq!(accum.to_sparse_grad().indices, vec![1], "{model:?}");
    }
}

/// Raw bits of a run of gradients (exact comparison, `-0.0` and NaN
/// payloads included).
fn bits<'a>(values: impl Iterator<Item = &'a f64>) -> Vec<u64> {
    values.map(|v| v.to_bits()).collect()
}

/// Scatters a sorted sparse gradient into zeroed dense blocks: the dense
/// reply an MLlib worker built from a `GradAccum` message.
fn scatter_grad(grad: &SparseGrad, dense: &mut ParamSet) {
    for (pos, &j) in grad.indices.iter().enumerate() {
        for (b, &w) in grad.widths.iter().enumerate() {
            for f in 0..w {
                dense.blocks[b][j as usize * w + f] += grad.blocks[b][pos * w + f];
            }
        }
    }
}
