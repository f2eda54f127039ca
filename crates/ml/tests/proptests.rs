//! Property-based tests for the model layer. The headline property is the
//! paper's correctness foundation: for every supported model, partial
//! statistics computed over ANY column partitioning sum to the serial
//! statistics, and the resulting update equals the serial update.

use columnsgd_linalg::{CsrMatrix, SparseVector};
use columnsgd_ml::spec::reduce_stats;
use columnsgd_ml::{ModelSpec, OptimizerKind, OptimizerState, ParamSet, SparseAccum, UpdateParams};
use proptest::prelude::*;

const DIM: u64 = 60;

fn arb_batch() -> impl Strategy<Value = CsrMatrix> {
    prop::collection::vec(
        (
            prop::bool::ANY,
            prop::collection::vec((0..DIM, 0.25f64..4.0), 1..10),
        ),
        1..12,
    )
    .prop_map(|rows| {
        CsrMatrix::from_rows(
            &rows
                .into_iter()
                .map(|(pos, pairs)| {
                    (
                        if pos { 1.0 } else { -1.0 },
                        SparseVector::from_pairs(pairs),
                    )
                })
                .collect::<Vec<_>>(),
        )
    })
}

fn arb_model() -> impl Strategy<Value = ModelSpec> {
    prop_oneof![
        Just(ModelSpec::Lr),
        Just(ModelSpec::Svm),
        Just(ModelSpec::LeastSquares),
        (2usize..4).prop_map(|classes| ModelSpec::Mlr { classes }),
        (1usize..5).prop_map(|factors| ModelSpec::Fm { factors }),
    ]
}

/// Multiclass labels for MLR: remap ±1 labels into class ids.
fn fix_labels(spec: ModelSpec, batch: &CsrMatrix) -> CsrMatrix {
    match spec {
        ModelSpec::Mlr { classes } => {
            let mut out = CsrMatrix::new();
            for (i, (label, idx, val)) in batch.iter_rows().enumerate() {
                let class = ((i + usize::from(label > 0.0)) % classes) as f64;
                out.push_raw_row(class, idx, val);
            }
            out
        }
        _ => batch.clone(),
    }
}

/// Splits a batch by columns into per-worker compacted (params, batch)
/// pairs using round-robin partitioning.
fn column_split(
    spec: ModelSpec,
    full: &ParamSet,
    batch: &CsrMatrix,
    k: usize,
) -> Vec<(ParamSet, CsrMatrix)> {
    let widths = spec.widths();
    (0..k)
        .map(|w| {
            // Local slot s ↔ global index s*k + w.
            let local_dim = (0..DIM).filter(|i| (i % k as u64) as usize == w).count();
            let mut local = ParamSet::zeros(local_dim, &widths);
            for slot in 0..local_dim {
                let j = slot * k + w;
                for (b, &wd) in widths.iter().enumerate() {
                    for f in 0..wd {
                        local.blocks[b][slot * wd + f] = full.blocks[b][j * wd + f];
                    }
                }
            }
            let mut local_batch = CsrMatrix::new();
            for (label, idx, val) in batch.iter_rows() {
                let mut slots = Vec::new();
                let mut vals = Vec::new();
                for (&j, &x) in idx.iter().zip(val) {
                    if (j % k as u64) as usize == w {
                        slots.push(j / k as u64);
                        vals.push(x);
                    }
                }
                local_batch.push_raw_row(label, &slots, &vals);
            }
            (local, local_batch)
        })
        .collect()
}

proptest! {
    /// **The vertical-parallel decomposition (§II-C, §VIII) is exact for
    /// every model**: partial statistics over any K-way column partition
    /// sum to the serial statistics.
    #[test]
    fn statistics_decompose_for_all_models(
        spec in arb_model(),
        batch in arb_batch(),
        k in 1usize..6,
    ) {
        let batch = fix_labels(spec, &batch);
        let full = spec.init_params(DIM as usize, 11, |s| s as u64);

        let mut serial = Vec::new();
        spec.compute_stats(&full, &batch, &mut serial);

        let mut agg = vec![0.0; serial.len()];
        for (w, (local, local_batch)) in column_split(spec, &full, &batch, k).iter().enumerate() {
            // FM functional init must agree with the partitioned view.
            let re_init = spec.init_params(local.dim(), 11, |s| (s * k + w) as u64);
            for (a, b) in re_init.blocks.iter().zip(&local.blocks) {
                for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                    prop_assert!((x - y).abs() < 1e-15);
                }
            }
            let mut partial = Vec::new();
            spec.compute_stats(local, local_batch, &mut partial);
            reduce_stats(&mut agg, &partial);
        }
        for (a, s) in agg.iter().zip(&serial) {
            prop_assert!((a - s).abs() < 1e-9, "{spec:?} K={k}: {a} vs {s}");
        }
    }

    /// The distributed update from aggregated statistics equals the serial
    /// update, coordinate for coordinate, for every model and partition
    /// count.
    #[test]
    fn updates_decompose_for_all_models(
        spec in arb_model(),
        batch in arb_batch(),
        k in 1usize..5,
        eta in 0.01f64..0.5,
    ) {
        let batch = fix_labels(spec, &batch);
        let up = UpdateParams::plain(eta);
        let b_total = batch.nrows();

        // Serial reference.
        let mut serial_params = spec.init_params(DIM as usize, 11, |s| s as u64);
        let mut serial_opt = OptimizerState::for_params(OptimizerKind::Sgd, &serial_params);
        let mut stats = Vec::new();
        spec.compute_stats(&serial_params, &batch, &mut stats);
        spec.update_from_stats(&mut serial_params, &mut serial_opt, &batch, &stats.clone(), &up, b_total);

        // Distributed: fresh init, per-worker updates from the aggregated
        // statistics of the initial model.
        let init = spec.init_params(DIM as usize, 11, |s| s as u64);
        let mut init_stats = Vec::new();
        spec.compute_stats(&init, &batch, &mut init_stats);
        for (w, (mut local, local_batch)) in column_split(spec, &init, &batch, k).into_iter().enumerate() {
            let mut opt = OptimizerState::for_params(OptimizerKind::Sgd, &local);
            spec.update_from_stats(&mut local, &mut opt, &local_batch, &init_stats, &up, b_total);
            // Compare each local coordinate with the serial result.
            let widths = spec.widths();
            for slot in 0..local.dim() {
                let j = slot * k + w;
                for (b, &wd) in widths.iter().enumerate() {
                    for f in 0..wd {
                        let x = local.blocks[b][slot * wd + f];
                        let y = serial_params.blocks[b][j * wd + f];
                        prop_assert!((x - y).abs() < 1e-9, "{spec:?} K={k} j={j}: {x} vs {y}");
                    }
                }
            }
        }
    }

    /// A single full-batch SGD step never increases the loss for convex
    /// GLMs at a small enough learning rate.
    #[test]
    fn glm_step_descends(batch in arb_batch(), seed in 0u64..50) {
        for spec in [ModelSpec::Lr, ModelSpec::LeastSquares] {
            let mut params = spec.init_params(DIM as usize, seed, |s| s as u64);
            let mut opt = OptimizerState::for_params(OptimizerKind::Sgd, &params);
            let mut stats = Vec::new();
            spec.compute_stats(&params, &batch, &mut stats);
            let before = spec.loss_from_stats(batch.labels(), &stats);
            spec.update_from_stats(&mut params, &mut opt, &batch, &stats.clone(), &UpdateParams::plain(1e-3), batch.nrows());
            spec.compute_stats(&params, &batch, &mut stats);
            let after = spec.loss_from_stats(batch.labels(), &stats);
            prop_assert!(after <= before + 1e-12, "{spec:?}: {before} -> {after}");
        }
    }

    /// Gradient merging is associative-ish: merging per-worker gradients
    /// equals the gradient of the whole batch (the RowSGD aggregation
    /// invariant, Algorithm 2 line 6).
    #[test]
    fn row_gradients_merge(batch in arb_batch(), k in 1usize..4) {
        let spec = ModelSpec::Lr;
        let params = spec.init_params(DIM as usize, 3, |s| s as u64);
        let whole = spec.row_gradient(&params, &batch);

        // Split the batch rows over k workers and merge their gradients.
        let mut merged = columnsgd_ml::SparseGrad::default();
        for w in 0..k {
            let mut part = CsrMatrix::new();
            for (i, (label, idx, val)) in batch.iter_rows().enumerate() {
                if i % k == w {
                    part.push_raw_row(label, idx, val);
                }
            }
            if part.nrows() > 0 {
                merged = merged.merge(&spec.row_gradient(&params, &part));
            }
        }
        prop_assert_eq!(whole.indices, merged.indices);
        for (a, b) in whole.blocks[0].iter().zip(&merged.blocks[0]) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// A dense buffer reused across batches (the MLlib worker's reply):
    /// `zero_touched` undoes exactly what `scatter_into` wrote, so every
    /// block holds `+0.0` bits again, for every model and batch sequence.
    #[test]
    fn zero_touched_undoes_scatter_into(
        model in arb_model(),
        batches in prop::collection::vec(arb_batch(), 1..5),
    ) {
        let params = model.init_params(DIM as usize, 3, |s| s as u64);
        let (mut accum, mut stats) = (SparseAccum::new(), Vec::new());
        let mut dense = ParamSet::zeros(DIM as usize, &model.widths());
        for batch in &batches {
            let batch = fix_labels(model, batch);
            model.compute_stats(&params, &batch, &mut stats);
            accum.reset(&params);
            model.accumulate_grad(&params, &batch, &stats, &mut accum);
            accum.scatter_into(&mut dense);
            accum.zero_touched(&mut dense);
            for block in &dense.blocks {
                prop_assert!(block.as_slice().iter().all(|v| v.to_bits() == 0));
            }
        }
    }
}
