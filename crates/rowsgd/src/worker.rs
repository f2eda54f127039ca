//! The RowSGD worker node.
//!
//! Holds one horizontal (row) partition of the training data. Depending on
//! the variant it either computes gradients against a model received per
//! iteration (MLlib / PS variants) or maintains a local model replica and
//! participates in a worker-to-worker ring AllReduce (MLlib*).

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use columnsgd_cluster::telemetry::FaultRecord;
use columnsgd_cluster::{Endpoint, NodeId, Recorder};
use columnsgd_linalg::rng;
use columnsgd_linalg::{CsrMatrix, SparseVector};
use columnsgd_ml::{OptimizerState, ParamSet, SparseAccum, SparseGrad, UpdateScratch};
use rand::Rng;

use crate::config::{RowSgdConfig, RowSgdVariant};
use crate::msg::RowMsg;

/// Folds the summed batch gradient into `accum` (reset first) and returns
/// the mean batch loss, from one statistics pass.
pub fn grad_and_loss(
    spec: columnsgd_ml::ModelSpec,
    params: &ParamSet,
    batch: &CsrMatrix,
    accum: &mut SparseAccum,
) -> f64 {
    let mut stats = Vec::new();
    spec.compute_stats(params, batch, &mut stats);
    let loss = spec.loss_from_stats(batch.labels(), &stats);
    accum.reset(params);
    spec.accumulate_grad(params, batch, &stats, accum);
    loss
}

/// Chunk boundaries of the MLlib* ring: splits `len` into `k`
/// nearly-equal ranges, the first `len % k` one element longer. Every
/// participant computes the same split, so chunk `c` names the same range
/// on every worker.
fn chunk_bounds(len: usize, k: usize) -> Vec<(usize, usize)> {
    let base = len / k;
    let extra = len % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let sz = base + usize::from(i < extra);
        out.push((start, start + sz));
        start += sz;
    }
    out
}

struct RowWorker {
    id: usize,
    k: usize,
    dim: u64,
    cfg: RowSgdConfig,
    rows: Vec<(f64, SparseVector)>,
    /// The gradient accumulator, reused across steps (MLlib and the PS
    /// variants).
    accum: SparseAccum,
    /// MLlib over a serializing transport: the one dense reply buffer,
    /// all zeros between steps (see [`RowWorker::dense_reply`]).
    reply: ParamSet,
    /// MLlib*: the local model replica, its optimizer and the update
    /// kernel's scratch.
    replica: Option<(ParamSet, OptimizerState, UpdateScratch)>,
    /// Batch sampled while answering `RequestIndices`, consumed by the
    /// following `SparseModelGrad` (PsSparse two-round protocol).
    pending_batch: Option<(u64, CsrMatrix)>,
}

impl RowWorker {
    /// The worker's local batch for iteration `t`: B/K rows sampled with a
    /// worker-specific seed stream (each worker draws an independent share
    /// of the global batch, Algorithm 2 line 13).
    fn sample_batch(&self, t: u64) -> CsrMatrix {
        let share = self.local_batch_size();
        let mut r = rng::iteration_rng(
            self.cfg.seed ^ (self.id as u64 + 1).wrapping_mul(0xA5A5_A5A5),
            t,
        );
        let mut batch = CsrMatrix::new();
        for _ in 0..share {
            let (y, x) = &self.rows[r.gen_range(0..self.rows.len())];
            batch.push_row(*y, x);
        }
        batch
    }

    fn local_batch_size(&self) -> usize {
        (self.cfg.batch_size / self.k).max(1)
    }

    /// MLlib / PsDense: gradient against a freshly pulled full model, left
    /// in `self.accum`; returns the batch loss.
    fn dense_model_grad(&mut self, t: u64, params: &ParamSet) -> f64 {
        let batch = self.sample_batch(t);
        grad_and_loss(self.cfg.model, params, &batch, &mut self.accum)
    }

    /// MLlib: the dense gradient (MLlib's `treeAggregate` materializes
    /// dense vectors) from `self.accum`, scattered into the worker's one
    /// reply buffer, or into a fresh one when none was kept. Hand the
    /// buffer back with [`RowWorker::keep_reply`] once the reply is sent
    /// by reference.
    fn dense_reply(&mut self) -> ParamSet {
        let mut reply = std::mem::take(&mut self.reply);
        let widths = self.cfg.model.widths();
        if reply.widths != widths {
            reply = ParamSet::zeros(self.dim as usize, &widths);
        }
        self.accum.scatter_into(&mut reply);
        reply
    }

    /// Takes the sent reply buffer back and zeroes what
    /// [`RowWorker::dense_reply`] wrote, so it is all zeros again.
    fn keep_reply(&mut self, mut reply: ParamSet) {
        self.accum.zero_touched(&mut reply);
        self.reply = reply;
    }

    /// PsSparse round 1: sample the batch and extract its distinct indices.
    fn batch_indices(&mut self, t: u64) -> Vec<u64> {
        let batch = self.sample_batch(t);
        let distinct: BTreeSet<u64> = batch
            .iter_rows()
            .flat_map(|(_, idx, _)| idx.iter().copied())
            .collect();
        self.pending_batch = Some((t, batch));
        distinct.into_iter().collect()
    }

    /// PsSparse round 2: gradient from the pulled values, computed in a
    /// *compacted* index space so no dense m-sized buffer is ever built
    /// (this is what lets sparse-pull engines scale to huge m).
    ///
    /// Errors mean the two-round protocol was violated; the caller exits
    /// the worker thread and the master's deadline surfaces a typed error.
    fn sparse_model_grad(
        &mut self,
        t: u64,
        pulled: &SparseGrad,
    ) -> Result<(SparseGrad, f64), String> {
        let (bt, batch) = self
            .pending_batch
            .take()
            .ok_or("SparseModelGrad without a preceding RequestIndices")?;
        if bt != t {
            return Err(format!(
                "pull reply for iteration {t} but the pending batch is for {bt}"
            ));
        }

        // Compact params: slot i ↔ global index pulled.indices[i].
        let widths = self.cfg.model.widths();
        let n = pulled.indices.len();
        let mut compact = ParamSet::zeros(n, &widths);
        for (slot, _) in pulled.indices.iter().enumerate() {
            for (b, &w) in widths.iter().enumerate() {
                for f in 0..w {
                    compact.blocks[b][slot * w + f] = pulled.blocks[b][slot * w + f];
                }
            }
        }
        // Remap the batch into compact slots.
        let mut compact_batch = CsrMatrix::new();
        for (label, idx, val) in batch.iter_rows() {
            let mut slots = Vec::with_capacity(idx.len());
            let mut vals = Vec::with_capacity(val.len());
            for (&j, &x) in idx.iter().zip(val) {
                let slot = pulled
                    .indices
                    .binary_search(&j)
                    .map_err(|_| format!("pull reply is missing batch index {j}"))?;
                slots.push(slot as u64);
                vals.push(x);
            }
            compact_batch.push_raw_row(label, &slots, &vals);
        }
        let loss = grad_and_loss(self.cfg.model, &compact, &compact_batch, &mut self.accum);
        let grad_c = self.accum.to_sparse_grad();
        // Map gradient indices back to the global space.
        let grad = SparseGrad {
            indices: grad_c
                .indices
                .iter()
                .map(|&s| pulled.indices[s as usize])
                .collect(),
            blocks: grad_c.blocks,
            widths: grad_c.widths,
        };
        Ok((grad, loss))
    }

    /// MLlib*: one local mini-batch step on the replica, returning the
    /// pre-update batch loss.
    fn local_step(&mut self, t: u64) -> Result<f64, String> {
        let batch = self.sample_batch(t);
        let share = batch.nrows();
        let (params, opt, scratch) = self
            .replica
            .as_mut()
            .ok_or("LocalStep on a worker without a model replica")?;
        let mut stats = Vec::new();
        self.cfg.model.compute_stats(params, &batch, &mut stats);
        let loss = self.cfg.model.loss_from_stats(batch.labels(), &stats);
        self.cfg.model.update_from_stats_with(
            params,
            opt,
            &batch,
            &stats,
            &self.cfg.update,
            share,
            scratch,
        );
        Ok(loss)
    }

    /// MLlib*: ring AllReduce over the flattened replica, then divide by K
    /// (model averaging). Blocks on the endpoint until the ring completes.
    ///
    /// `early` buffers RingChunk messages that raced ahead of this
    /// worker's own `LocalStep` (the master→worker and worker→worker links
    /// are independently FIFO, so a fast predecessor can start the ring
    /// before a slow successor has even seen the step request).
    fn ring_average(
        &mut self,
        ep: &Endpoint<RowMsg>,
        early: &mut std::collections::VecDeque<(u8, u32, Vec<f64>)>,
    ) -> Result<(), String> {
        let k = self.k;
        if k == 1 {
            return Ok(());
        }
        let deadline = Duration::from_millis(self.cfg.deadline_ms);
        let (params, ..) = self
            .replica
            .as_mut()
            .ok_or("ring AllReduce on a worker without a model replica")?;
        // Flatten all blocks into one buffer.
        let mut flat: Vec<f64> = params
            .blocks
            .iter()
            .flat_map(|b| b.as_slice().iter().copied())
            .collect();
        let bounds = chunk_bounds(flat.len(), k);
        let next = NodeId::Worker((self.id + 1) % k);

        let mut recv_chunk = |expect_phase: u8, expect_step: u32| -> Result<Vec<f64>, String> {
            if let Some((phase, step, data)) = early.pop_front() {
                if (phase, step) != (expect_phase, expect_step) {
                    return Err(format!(
                        "buffered ring chunk out of order: got phase {phase} step {step}, \
                         expected phase {expect_phase} step {expect_step}"
                    ));
                }
                return Ok(data);
            }
            // Absolute deadline for this chunk: protocol noise must not
            // restart the window, or a confused peer spamming strays
            // could stall the ring forever.
            #[expect(clippy::disallowed_methods, reason = "ring receive deadline")]
            let wait_until = Instant::now() + deadline;
            loop {
                #[expect(clippy::disallowed_methods, reason = "ring receive deadline")]
                let left = wait_until.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(format!(
                        "ring recv timed out waiting for phase {expect_phase} \
                         step {expect_step} (peer silent past deadline)"
                    ));
                }
                let env = ep
                    .recv_timeout(left)
                    .map_err(|e| format!("ring recv (peer silent past deadline): {e}"))?;
                match env.payload {
                    RowMsg::RingChunk { phase, step, data } => {
                        if (phase, step) != (expect_phase, expect_step) {
                            return Err(format!(
                                "ring protocol out of order: got phase {phase} step {step}, \
                                 expected phase {expect_phase} step {expect_step}"
                            ));
                        }
                        return Ok(data);
                    }
                    other => {
                        // A non-ring message mid-ring is protocol noise;
                        // drop it and keep waiting (the deadline bounds us).
                        eprintln!(
                            "rowsgd worker: dropping non-ring message during ring: {other:?}"
                        );
                    }
                }
            }
        };

        // Phase 0: reduce-scatter.
        for step in 0..k - 1 {
            let send_chunk = (self.id + k - step) % k;
            let (lo, hi) = bounds[send_chunk];
            ep.send(
                next,
                RowMsg::RingChunk {
                    phase: 0,
                    step: step as u32,
                    data: flat[lo..hi].to_vec(),
                },
            )
            .map_err(|e| format!("ring send to {next:?} failed: {e}"))?;
            let incoming = recv_chunk(0, step as u32)?;
            let recv_id = (self.id + k - step - 1) % k;
            let (lo, hi) = bounds[recv_id];
            for (dst, src) in flat[lo..hi].iter_mut().zip(&incoming) {
                *dst += src;
            }
        }
        // Phase 1: all-gather.
        for step in 0..k - 1 {
            let send_chunk = (self.id + 1 + k - step) % k;
            let (lo, hi) = bounds[send_chunk];
            ep.send(
                next,
                RowMsg::RingChunk {
                    phase: 1,
                    step: step as u32,
                    data: flat[lo..hi].to_vec(),
                },
            )
            .map_err(|e| format!("ring send to {next:?} failed: {e}"))?;
            let incoming = recv_chunk(1, step as u32)?;
            let recv_id = (self.id + k - step) % k;
            let (lo, hi) = bounds[recv_id];
            flat[lo..hi].copy_from_slice(&incoming);
        }

        // Unflatten, averaging by K.
        let inv_k = 1.0 / k as f64;
        let mut off = 0;
        for b in &mut params.blocks {
            for v in b.as_mut_slice() {
                *v = flat[off] * inv_k;
                off += 1;
            }
        }
        Ok(())
    }
}

/// The RowSGD worker mailbox loop.
///
/// The worker never panics on protocol or transport trouble: a failed
/// send means the master is gone (exit quietly), and a protocol
/// violation logs the reason and exits the thread — the master's receive
/// deadline then converts the silence into a typed `TrainError`.
///
/// `recorder` receives worker-side guard records (non-finite losses): a
/// clone of the master's recorder in-process, or a worker-local recorder
/// in a `rowsgd-worker` process, so divergence evidence is captured even
/// when the reply carrying it never reaches the master intact.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn run_row_worker(
    ep: Endpoint<RowMsg>,
    id: usize,
    k: usize,
    dim: u64,
    cfg: RowSgdConfig,
    recorder: Recorder,
) {
    let guard_loss = |iteration: u64, loss: f64| {
        if !loss.is_finite() {
            eprintln!("rowsgd worker {id}: non-finite batch loss at iteration {iteration}");
            recorder.fault(FaultRecord {
                iteration,
                worker: id as u64,
                fault: "non-finite statistics".to_string(),
                detection: "worker guard".to_string(),
                detection_latency_s: 0.0,
                recovery_cost_s: 0.0,
                attempt: 1,
                fatal: false,
            });
        }
    };
    let replica = if cfg.variant == RowSgdVariant::MLlibStar {
        let params = cfg.model.init_params(dim as usize, cfg.seed, |s| s as u64);
        let opt = OptimizerState::for_params(cfg.optimizer, &params);
        Some((params, opt, UpdateScratch::new()))
    } else {
        None
    };
    let mut w = RowWorker {
        id,
        k,
        dim,
        cfg,
        rows: Vec::new(),
        accum: SparseAccum::new(),
        reply: ParamSet::default(),
        replica,
        pending_batch: None,
    };
    // Ring chunks that raced ahead of this worker's LocalStep.
    let mut early_chunks: std::collections::VecDeque<(u8, u32, Vec<f64>)> =
        std::collections::VecDeque::new();

    loop {
        let env = match ep.recv_timeout(Duration::from_secs(30)) {
            Ok(env) => env,
            // Idle is fine (the master may be between phases); a closed
            // channel means the run is over.
            Err(columnsgd_cluster::NetError::Timeout) => continue,
            Err(_) => return,
        };
        match env.payload {
            RowMsg::LoadRows(csr) => {
                w.rows = (0..csr.nrows())
                    .map(|r| (csr.label(r), csr.row_vector(r)))
                    .collect();
                if ep
                    .send(NodeId::Master, RowMsg::LoadAck { worker: id })
                    .is_err()
                {
                    return;
                }
            }
            RowMsg::FullModelGrad { iteration, params } => {
                #[expect(clippy::disallowed_methods, reason = "compute timer, measurement only")]
                let start = Instant::now();
                let loss = w.dense_model_grad(iteration, &params);
                guard_loss(iteration, loss);
                let compute_s = start.elapsed().as_secs_f64();
                let sent = if w.cfg.variant == RowSgdVariant::MLlib {
                    let reply = RowMsg::GradReplyDense {
                        iteration,
                        worker: id,
                        grad: w.dense_reply(),
                        loss,
                        compute_s,
                    };
                    if ep.router().serializes() {
                        // Encoded straight from the worker's reply buffer,
                        // which moves back out: no 8 MB allocation a step.
                        let sent = ep.broadcast(&[NodeId::Master], &reply);
                        if let RowMsg::GradReplyDense { grad, .. } = reply {
                            w.keep_reply(grad);
                        }
                        sent.into_iter().collect()
                    } else {
                        // The master's mailbox must own the reply, and a
                        // clone of a kept buffer costs more than a fresh
                        // one that is mostly untouched zero pages.
                        ep.send(NodeId::Master, reply)
                    }
                } else {
                    // PS push: bytes are metered per server link by the
                    // engine; the physical hop to the driver is a courier.
                    let reply = RowMsg::GradReplySparse {
                        iteration,
                        worker: id,
                        grad: w.accum.to_sparse_grad(),
                        loss,
                        compute_s,
                    };
                    ep.router().send_unmetered(ep.id(), NodeId::Master, reply)
                };
                if sent.is_err() {
                    return;
                }
            }
            RowMsg::RequestIndices { iteration } => {
                #[expect(clippy::disallowed_methods, reason = "compute timer, measurement only")]
                let start = Instant::now();
                let indices = w.batch_indices(iteration);
                let sent = ep.router().send_unmetered(
                    ep.id(),
                    NodeId::Master,
                    RowMsg::IndicesReply {
                        iteration,
                        worker: id,
                        indices,
                        compute_s: start.elapsed().as_secs_f64(),
                    },
                );
                if sent.is_err() {
                    return;
                }
            }
            RowMsg::SparseModelGrad { iteration, values } => {
                #[expect(clippy::disallowed_methods, reason = "compute timer, measurement only")]
                let start = Instant::now();
                let (grad, loss) = match w.sparse_model_grad(iteration, &values) {
                    Ok(res) => res,
                    Err(e) => {
                        eprintln!("rowsgd worker {id}: exiting on protocol violation: {e}");
                        return;
                    }
                };
                guard_loss(iteration, loss);
                let sent = ep.router().send_unmetered(
                    ep.id(),
                    NodeId::Master,
                    RowMsg::GradReplySparse {
                        iteration,
                        worker: id,
                        grad,
                        loss,
                        compute_s: start.elapsed().as_secs_f64(),
                    },
                );
                if sent.is_err() {
                    return;
                }
            }
            RowMsg::LocalStep { iteration } => {
                // Measure only local compute; the ring's communication is
                // priced analytically by the engine (waiting on chunks is
                // not compute).
                #[expect(clippy::disallowed_methods, reason = "compute timer, measurement only")]
                let start = Instant::now();
                let loss = match w.local_step(iteration) {
                    Ok(loss) => loss,
                    Err(e) => {
                        eprintln!("rowsgd worker {id}: exiting on protocol violation: {e}");
                        return;
                    }
                };
                guard_loss(iteration, loss);
                let compute_s = start.elapsed().as_secs_f64();
                if let Err(e) = w.ring_average(&ep, &mut early_chunks) {
                    eprintln!("rowsgd worker {id}: exiting on broken ring: {e}");
                    return;
                }
                let sent = ep.send(
                    NodeId::Master,
                    RowMsg::StepDone {
                        iteration,
                        worker: id,
                        loss,
                        compute_s,
                    },
                );
                if sent.is_err() {
                    return;
                }
            }
            RowMsg::FetchModel => {
                let params = w
                    .replica
                    .as_ref()
                    .map(|(p, ..)| p.clone())
                    .unwrap_or_default();
                if ep
                    .send(NodeId::Master, RowMsg::ModelReply { worker: id, params })
                    .is_err()
                {
                    return;
                }
            }
            RowMsg::Shutdown => return,
            // A predecessor's ring chunk can arrive before this worker's
            // LocalStep; buffer it for the upcoming ring.
            RowMsg::RingChunk { phase, step, data } => {
                early_chunks.push_back((phase, step, data));
            }
            // Master-bound replies looping back here are protocol noise
            // (e.g. a message for a phase this worker already left); drop
            // rather than dying. Named explicitly so a new RowMsg variant
            // fails compiler exhaustiveness (a wildcard is denied here)
            // until this loop decides what to do with it.
            other @ (RowMsg::LoadAck { .. }
            | RowMsg::IndicesReply { .. }
            | RowMsg::GradReplySparse { .. }
            | RowMsg::GradReplyDense { .. }
            | RowMsg::StepDone { .. }
            | RowMsg::ModelReply { .. }) => {
                eprintln!("rowsgd worker {id}: dropping unexpected message {other:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_ml::ModelSpec;
    use proptest::prelude::*;

    proptest! {
        /// Chunk bounds partition [0, len) exactly, in order, with sizes
        /// differing by at most one.
        #[test]
        fn chunk_bounds_partition(len in 0usize..1000, k in 1usize..16) {
            let bounds = chunk_bounds(len, k);
            prop_assert_eq!(bounds.len(), k);
            prop_assert_eq!(bounds[0].0, 0);
            prop_assert_eq!(bounds[k - 1].1, len);
            for w in bounds.windows(2) {
                prop_assert_eq!(w[0].1, w[1].0);
            }
            let sizes: Vec<usize> = bounds.iter().map(|&(lo, hi)| hi - lo).collect();
            let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            prop_assert!(mx - mn <= 1);
        }
    }

    /// Every step's MLlib reply, built in the worker's one reused buffer,
    /// is bit for bit the reply a fresh `ParamSet::zeros` + `scatter_into`
    /// of the same gradient gives. This oracle is independent of the
    /// reuse: comparing two transports running the same worker code is
    /// not.
    #[test]
    fn reused_dense_reply_equals_a_fresh_one() {
        let dim = 30;
        let rows: Vec<_> = columnsgd_data::synth::small_test_dataset(60, dim, 5)
            .iter()
            .cloned()
            .collect();
        for model in [ModelSpec::Lr, ModelSpec::Fm { factors: 3 }] {
            let cfg = RowSgdConfig::new(model, RowSgdVariant::MLlib)
                .with_batch_size(8)
                .with_seed(3);
            let mut w = RowWorker {
                id: 1,
                k: 2,
                dim,
                cfg,
                rows: rows.clone(),
                accum: SparseAccum::new(),
                reply: ParamSet::default(),
                replica: None,
                pending_batch: None,
            };
            let params = model.init_params(dim as usize, 3, |s| s as u64);
            let bits = |p: &ParamSet| -> Vec<u64> {
                let values = p.blocks.iter().flat_map(|b| b.as_slice());
                values.map(|v| v.to_bits()).collect()
            };
            for t in 0..6 {
                w.dense_model_grad(t, &params);
                let mut fresh = ParamSet::zeros(dim as usize, &model.widths());
                w.accum.scatter_into(&mut fresh);
                assert!(
                    bits(&fresh).iter().any(|&b| b != 0),
                    "{model:?}: empty gradient"
                );
                let reply = w.dense_reply();
                assert_eq!(bits(&reply), bits(&fresh), "{model:?} step {t}");
                w.keep_reply(reply);
            }
        }
    }

    #[test]
    fn grad_and_loss_consistent_with_row_gradient() {
        let spec = ModelSpec::Lr;
        let params = spec.init_params(10, 0, |s| s as u64);
        let batch = CsrMatrix::from_rows(&[
            (1.0, SparseVector::from_pairs(vec![(0, 1.0), (3, 2.0)])),
            (-1.0, SparseVector::from_pairs(vec![(5, 1.0)])),
        ]);
        let mut accum = SparseAccum::new();
        let loss = grad_and_loss(spec, &params, &batch, &mut accum);
        assert_eq!(accum.to_sparse_grad(), spec.row_gradient(&params, &batch));
        assert!((loss - std::f64::consts::LN_2).abs() < 1e-12); // zero model
    }
}
