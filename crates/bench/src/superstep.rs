//! A self-contained simulation of the worker-local superstep hot path,
//! in two flavors: the pre-optimization **legacy** path (fresh `Vec`s and
//! a `BTreeMap` gradient accumulator every iteration) and the **tuned**
//! path shipped in the engine (reused CSR storage, caller-owned statistics
//! buffers, and a persistent [`UpdateScratch`]).
//!
//! Both flavors execute the identical arithmetic — `compute_stats`,
//! `reduce_stats`, gradient recovery, optimizer step — over the same
//! sampled batches, so their models stay bit-identical; only allocation
//! and accumulator strategy differ. The `superstep` criterion bench and
//! the `BENCH_superstep` experiment time them head to head.

use columnsgd::data::block::Block;
use columnsgd::data::index::RowAddr;
use columnsgd::data::workset::split_block;
use columnsgd::data::{ColumnPartitioner, Dataset, TwoPhaseIndex};
use columnsgd::linalg::CsrMatrix;
use columnsgd::ml::spec::reduce_stats;
use columnsgd::ml::{
    ModelSpec, OptimizerKind, OptimizerState, ParamSet, UpdateParams, UpdateScratch,
};

/// One simulated worker: its column-partitioned rows, model partition,
/// optimizer state, and the tuned path's reusable buffers.
struct WorkerSim {
    /// Local workset (all rows, indices remapped to local slots).
    data: CsrMatrix,
    params: ParamSet,
    opt: OptimizerState,
    /// Tuned path: batch CSR whose storage is reused across iterations.
    batch: CsrMatrix,
    /// Tuned path: reused partial-statistics buffer.
    stats: Vec<f64>,
    /// Tuned path: persistent update scratch (accumulator + probability buffer).
    scratch: UpdateScratch,
}

/// A k-worker ColumnSGD superstep simulator (local compute only — the
/// network is out of scope here; traffic identity is checked end-to-end by
/// the engine in the `BENCH_superstep` experiment).
pub struct SuperstepSim {
    model: ModelSpec,
    batch_size: usize,
    up: UpdateParams,
    index: TwoPhaseIndex,
    workers: Vec<WorkerSim>,
    /// Tuned path: reused sampled-address buffer.
    addrs: Vec<RowAddr>,
    /// Tuned path: reused aggregated-statistics buffer.
    agg: Vec<f64>,
}

impl SuperstepSim {
    /// Builds the simulator: the dataset becomes one block, split
    /// round-robin over `k` workers holding one partition each.
    pub fn new(ds: &Dataset, model: ModelSpec, k: usize, batch_size: usize, seed: u64) -> Self {
        let rows: Vec<_> = ds.iter().cloned().collect();
        let part = ColumnPartitioner::round_robin(k);
        let block = Block::from_rows(0, &rows);
        let dim = ds.dimension();
        let workers = split_block(&block, &part)
            .into_iter()
            .enumerate()
            .map(|(w, ws)| {
                let local_dim = part.local_dim(w, dim);
                let params = model.init_params(local_dim, seed, |slot| part.global_index(w, slot));
                let opt = OptimizerState::for_params(OptimizerKind::Sgd, &params);
                WorkerSim {
                    data: ws.data,
                    params,
                    opt,
                    batch: CsrMatrix::new(),
                    stats: Vec::new(),
                    scratch: UpdateScratch::new(),
                }
            })
            .collect();
        Self {
            model,
            batch_size,
            up: UpdateParams::plain(0.1),
            index: TwoPhaseIndex::new([(0u64, rows.len())], seed),
            workers,
            addrs: Vec::new(),
            agg: Vec::new(),
        }
    }

    /// One superstep, pre-optimization style: every iteration allocates a
    /// fresh address vector, fresh per-worker batch CSRs, fresh statistics
    /// vectors, and updates through the `BTreeMap`-backed accumulator.
    pub fn step_legacy(&mut self, iteration: u64) {
        let addrs = self.index.sample_batch(iteration, self.batch_size);
        let width = self.model.stats_width();
        let mut agg = vec![0.0; self.batch_size * width];
        let mut batches = Vec::with_capacity(self.workers.len());
        for w in &self.workers {
            let mut batch = CsrMatrix::new();
            for addr in &addrs {
                let (idx, val) = w.data.row(addr.offset);
                batch.push_raw_row(w.data.label(addr.offset), idx, val);
            }
            let mut stats = Vec::new();
            self.model.compute_stats(&w.params, &batch, &mut stats);
            reduce_stats(&mut agg, &stats);
            batches.push(batch);
        }
        for (w, batch) in self.workers.iter_mut().zip(&batches) {
            self.model.update_from_stats(
                &mut w.params,
                &mut w.opt,
                batch,
                &agg,
                &self.up,
                self.batch_size,
            );
        }
    }

    /// One superstep, engine style: reused address/batch/statistics
    /// buffers and the scratch-space update kernel.
    pub fn step_tuned(&mut self, iteration: u64) {
        self.index
            .sample_batch_into(iteration, self.batch_size, &mut self.addrs);
        let width = self.model.stats_width();
        self.agg.clear();
        self.agg.resize(self.batch_size * width, 0.0);
        for w in &mut self.workers {
            w.batch.clear();
            for addr in &self.addrs {
                let (idx, val) = w.data.row(addr.offset);
                w.batch.push_raw_row(w.data.label(addr.offset), idx, val);
            }
            self.model.compute_stats(&w.params, &w.batch, &mut w.stats);
            reduce_stats(&mut self.agg, &w.stats);
        }
        for w in &mut self.workers {
            self.model.update_from_stats_with(
                &mut w.params,
                &mut w.opt,
                &w.batch,
                &self.agg,
                &self.up,
                self.batch_size,
                &mut w.scratch,
            );
        }
    }

    /// Flat copy of every worker's parameters (partition order) — used to
    /// assert the two paths stay bit-identical.
    pub fn flat_params(&self) -> Vec<f64> {
        self.workers
            .iter()
            .flat_map(|w| w.params.blocks.iter().flat_map(|b| b.as_slice()).copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd::data::synth;

    #[test]
    fn legacy_and_tuned_paths_stay_bit_identical() {
        let binary = synth::small_test_dataset(400, 500, 6);
        let multi = synth::multiclass_dataset(400, 500, 3, 6);
        for model in [
            ModelSpec::Lr,
            ModelSpec::Mlr { classes: 3 },
            ModelSpec::Fm { factors: 4 },
        ] {
            let ds = if matches!(model, ModelSpec::Mlr { .. }) {
                &multi
            } else {
                &binary
            };
            let mut legacy = SuperstepSim::new(ds, model, 4, 64, 11);
            let mut tuned = SuperstepSim::new(ds, model, 4, 64, 11);
            for t in 0..5 {
                legacy.step_legacy(t);
                tuned.step_tuned(t);
            }
            let a = legacy.flat_params();
            let b = tuned.flat_params();
            assert_eq!(a.len(), b.len());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{model:?} coord {i}: {x} vs {y}");
            }
        }
    }
}
