//! The ColumnSGD worker node.
//!
//! A worker owns one or more *partitions*: a column-partitioned slice of
//! the training data (a [`WorksetStore`]), the collocated model partition,
//! and its optimizer state. Without backup computation a worker owns
//! exactly one partition; with S-backup it owns the S+1 partitions of its
//! replica group (§IV-B, Figure 6).
//!
//! The worker runs a mailbox loop ([`run_worker`]) on its own OS thread and
//! communicates with the master exclusively through [`ColMsg`] messages.
//!
//! # Fault injection and resilience
//!
//! Faults originate *here*, not at the master: a [`WorkerScript`] carries
//! the worker's slice of the failure plan, and scripted worker failures
//! (plus probabilistic chaos crashes) are real `panic!`s that the guarded
//! spawn converts into a [`ColMsg::WorkerPanic`] report. The master only
//! ever learns about a fault by *detecting* it. Conversely the worker is
//! resilient to a faulty wire: unexpected or stale messages are logged
//! and dropped, duplicate updates are acknowledged idempotently, and
//! every reply carries its iteration tag so the master can discard
//! stragglers' late answers.

use std::time::Instant;

use columnsgd_cluster::telemetry::{FaultRecord, KernelRecord, ProfScope};
use columnsgd_cluster::{
    ChaosSpec, Endpoint, FailureEvent, FailurePlan, NodeId, Recorder, TelemetryTx,
};
use columnsgd_data::block::Block;
use columnsgd_data::index::RowAddr;
use columnsgd_data::workset::{split_block, WorksetStore};
use columnsgd_data::{ColumnPartitioner, TwoPhaseIndex, Workset};
use columnsgd_linalg::CsrMatrix;
use columnsgd_ml::spec::reduce_stats;
use columnsgd_ml::{OptimizerState, ParamSet, UpdateScratch};

use crate::config::ColumnSgdConfig;
use crate::msg::ColMsg;
use crate::pool::WorkerPool;

/// The worker-local slice of a failure plan: which of *this* worker's
/// compute attempts fail, and how. The multi-process backend ships it to
/// worker processes in the stdin bootstrap line (`host::BootSpec`).
#[derive(Debug, Clone, Default)]
pub struct WorkerScript {
    /// Iterations whose first attempt throws a task exception.
    pub task_failures: Vec<u64>,
    /// Iterations whose first attempt panics the whole worker.
    pub crashes: Vec<u64>,
    /// Probabilistic chaos (crash decisions; wire faults are applied by
    /// the router, not here).
    pub chaos: Option<ChaosSpec>,
}

impl WorkerScript {
    /// Extracts worker `w`'s script from a failure plan.
    pub fn from_plan(plan: &FailurePlan, w: usize) -> Self {
        let mut script = WorkerScript {
            chaos: plan.chaos,
            ..WorkerScript::default()
        };
        for ev in plan.events_for(w) {
            match ev {
                FailureEvent::TaskFailure { iteration, .. } => script.task_failures.push(iteration),
                FailureEvent::WorkerFailure { iteration, .. } => script.crashes.push(iteration),
            }
        }
        script
    }

    /// Whether this compute attempt throws a task exception. Scripted
    /// failures hit only attempt 0, so the retry succeeds (§X: "start a
    /// new task … no additional work on data loading is required").
    pub fn task_fails(&self, iteration: u64, attempt: u64) -> bool {
        attempt == 0 && self.task_failures.contains(&iteration)
    }

    /// Whether this compute attempt kills the worker — scripted crashes on
    /// attempt 0, plus seeded chaos crashes on any attempt (keyed by
    /// attempt, so a respawned worker is not doomed).
    pub fn crashes(&self, worker: usize, iteration: u64, attempt: u64) -> bool {
        if attempt == 0 && self.crashes.contains(&iteration) {
            return true;
        }
        self.chaos
            .is_some_and(|c| c.crash_decision(worker, iteration, attempt))
    }
}

/// One (data partition, model partition, optimizer state) triple, plus the
/// per-partition reusable buffers of the superstep hot path: the batch CSR
/// (storage reused across iterations via [`CsrMatrix::clear`]), the partial
/// statistics vector, and the update kernel's [`UpdateScratch`].
struct Partition {
    pid: usize,
    store: WorksetStore,
    params: ParamSet,
    opt: OptimizerState,
    index: Option<TwoPhaseIndex>,
    batch: CsrMatrix,
    stats: Vec<f64>,
    scratch: UpdateScratch,
    /// Membership epoch of the install that produced this partition copy
    /// (always 0 for a fixed worker set). A migration stamped with an older
    /// epoch can never overwrite a newer copy.
    epoch: u64,
    /// Set when the last `rebuild_batch` hit a missing block (kernels run
    /// on the pool, so the error is parked here and collected by
    /// `ensure_batch` instead of panicking on a pool thread).
    batch_error: Option<String>,
}

impl Partition {
    fn new(pid: usize, cfg: &ColumnSgdConfig, part: &ColumnPartitioner, dim: u64) -> Self {
        let local_dim = part.local_dim(pid, dim);
        let params = cfg
            .model
            .init_params(local_dim, cfg.seed, |slot| part.global_index(pid, slot));
        let opt = OptimizerState::for_params(cfg.optimizer, &params);
        Self {
            pid,
            store: WorksetStore::new(),
            params,
            opt,
            index: None,
            batch: CsrMatrix::new(),
            stats: Vec::new(),
            scratch: UpdateScratch::new(),
            epoch: 0,
            batch_error: None,
        }
    }

    /// Rebuilds the batch CSR for this partition from sampled row
    /// addresses, reusing the matrix's storage. A missing block (a sample
    /// raced a partial reload) parks the error in `batch_error` for
    /// `ensure_batch` to surface as a task failure.
    fn rebuild_batch(&mut self, addrs: &[RowAddr]) {
        self.batch.clear();
        self.batch_error = None;
        for addr in addrs {
            let Some(ws) = self.store.get(addr.block) else {
                self.batch_error = Some(format!(
                    "partition {} missing block {}",
                    self.pid, addr.block
                ));
                return;
            };
            let (idx, val) = ws.data.row(addr.offset);
            self.batch
                .push_raw_row(ws.data.label(addr.offset), idx, val);
        }
    }
}

/// The worker's full state.
pub struct WorkerNode {
    id: usize,
    cfg: ColumnSgdConfig,
    part: ColumnPartitioner,
    dim: u64,
    partitions: Vec<Partition>,
    received_worksets: usize,
    /// Batch-cache key: the `(iteration, batch_size)` whose batches are
    /// currently materialized in the partitions. A re-issued task for the
    /// same key (deadline retry, straggler re-race) reuses the cached
    /// batches instead of re-sampling and rebuilding.
    cached_batch: Option<(u64, usize)>,
    /// Reusable sampled-address buffer (one per superstep, all partitions
    /// share the same logical batch).
    addrs: Vec<RowAddr>,
    /// Kernel pool fanning the per-partition loops out over
    /// `threads_per_worker` threads.
    pool: WorkerPool,
    /// Iteration of the last applied `Update` (for idempotent re-acks
    /// when an unreliable wire duplicates the broadcast).
    applied_iteration: Option<u64>,
}

impl WorkerNode {
    /// A worker over `parts_total` logical column partitions that starts
    /// out holding `held`: its replica group under the bulk-load protocol,
    /// nothing when shards arrive one by one as [`ColMsg::ShardData`].
    fn new(id: usize, parts_total: usize, held: &[usize], dim: u64, cfg: ColumnSgdConfig) -> Self {
        let part = cfg.partitioner(parts_total, dim);
        let partitions = held
            .iter()
            .map(|&pid| Partition::new(pid, &cfg, &part, dim))
            .collect();
        Self {
            id,
            cfg,
            part,
            dim,
            partitions,
            received_worksets: 0,
            cached_batch: None,
            addrs: Vec::new(),
            pool: WorkerPool::new(cfg.threads_per_worker),
            applied_iteration: None,
        }
    }

    /// The iteration whose batch is currently materialized, if any.
    fn batch_iteration(&self) -> Option<u64> {
        self.cached_batch.map(|(t, _)| t)
    }

    fn holds(&self, pid: usize) -> Option<usize> {
        self.partitions.iter().position(|p| p.pid == pid)
    }

    /// Whether loading finished and the worker can compute.
    fn loaded(&self) -> bool {
        self.partitions.first().is_some_and(|p| p.index.is_some())
    }

    /// Splits a block and dispatches each workset to the replicas of its
    /// partition (§IV-A step 3), in replica order. The last replica gets
    /// the workset itself; only the others (S-backup) get a clone.
    fn dispatch_block(&mut self, ep: &Endpoint<ColMsg>, block: &Block) {
        let worksets = split_block(block, &self.part);
        for (pid, ws) in worksets.into_iter().enumerate() {
            let replicas = self.cfg.replicas_of(pid);
            if let Some((&last, others)) = replicas.split_last() {
                for &replica in others {
                    self.deliver_workset(ep, replica, pid, ws.clone());
                }
                self.deliver_workset(ep, last, pid, ws);
            }
        }
    }

    /// Hands one workset to `replica`: inserted directly when that is this
    /// worker, sent otherwise.
    fn deliver_workset(&mut self, ep: &Endpoint<ColMsg>, replica: usize, pid: usize, ws: Workset) {
        if replica == self.id {
            self.accept_workset(pid, ws);
        } else if let Err(e) = ep.send(NodeId::Worker(replica), ColMsg::Workset { pid, ws }) {
            // Undeliverable workset: the replica's master-side load
            // deadline will see the gap; dying here would turn one
            // lost peer into a second worker failure.
            eprintln!(
                "worker {}: workset for partition {pid} undeliverable to \
                 worker {replica}: {e}",
                self.id
            );
        }
    }

    /// Re-splits a recovery block, keeping only this worker's partitions
    /// (worker-failure recovery: peers keep their data, §X).
    fn reload_block(&mut self, block: &Block) {
        let worksets = split_block(block, &self.part);
        for (pid, ws) in worksets.into_iter().enumerate() {
            if self.holds(pid).is_some() {
                self.accept_workset(pid, ws);
            }
        }
    }

    fn accept_workset(&mut self, pid: usize, ws: Workset) {
        let Some(slot) = self.holds(pid) else {
            // A misrouted workset cannot be stored; drop it rather than
            // dying — the sender's master will detect any resulting gap.
            eprintln!(
                "worker {}: dropping workset for foreign partition {pid}",
                self.id
            );
            return;
        };
        let local_dim = self.partitions[slot].params.dim();
        if let Err(e) = check_slots(&ws, local_dim) {
            // A workset naming slots past the local model would panic a
            // kernel or silently skip the slot; refuse it like a misrouted
            // one, so the master's load deadline sees the gap.
            eprintln!(
                "worker {}: dropping workset for partition {pid}: {e}",
                self.id
            );
            return;
        }
        self.partitions[slot].store.insert(ws);
        self.received_worksets += 1;
    }

    /// Builds the per-partition two-phase indexes once loading finishes.
    fn finalize_load(&mut self) {
        for p in &mut self.partitions {
            p.index = Some(TwoPhaseIndex::new(block_rows(&p.store), self.cfg.seed));
        }
    }

    /// Materializes the batch CSRs for `iteration` in every partition,
    /// unless the batch cache already holds them (a re-issued task after a
    /// deadline or straggler race hits the cache and pays nothing).
    fn ensure_batch(&mut self, iteration: u64) -> Result<(), String> {
        let _prof = ProfScope::enter("batch_sample");
        let key = (iteration, self.cfg.batch_size);
        if self.cached_batch == Some(key) {
            return Ok(());
        }
        {
            let index = self
                .partitions
                .first()
                .and_then(|p| p.index.as_ref())
                .ok_or_else(|| "batch requested before loading finished".to_string())?;
            index.sample_batch_into(iteration, self.cfg.batch_size, &mut self.addrs);
        }
        let addrs = &self.addrs;
        self.pool
            .for_each_mut(&mut self.partitions, |_, p| p.rebuild_batch(addrs));
        for p in &mut self.partitions {
            if let Some(e) = p.batch_error.take() {
                return Err(e);
            }
        }
        self.cached_batch = Some(key);
        Ok(())
    }

    /// `computeStatistics` (Algorithm 3 lines 14-16): samples the batch via
    /// the shared two-phase index and returns the summed partial
    /// statistics over the held partitions — all of them (the group
    /// aggregate under backup) or, with `pids`, only the named subset.
    /// The batch is materialized for *every* held partition either
    /// way, so a backup that computed only a straggler's partitions can
    /// still apply the broadcast update to all its shards.
    ///
    /// Partition kernels run on the worker pool; the reduction folds in
    /// fixed partition order, so the result is bit-identical at any pool
    /// width.
    fn compute_stats(
        &mut self,
        iteration: u64,
        pids: Option<&[usize]>,
    ) -> Result<Vec<f64>, String> {
        let _prof = ProfScope::enter("worker_stats");
        self.ensure_batch(iteration)?;
        let model = self.cfg.model;
        let wanted = |pid: usize| pids.is_none_or(|pids| pids.contains(&pid));
        self.pool.for_each_mut(&mut self.partitions, |_, p| {
            if wanted(p.pid) {
                model.compute_stats(&p.params, &p.batch, &mut p.stats);
            } else {
                p.stats.clear();
            }
        });
        let mut agg = vec![0.0; self.cfg.batch_size * model.stats_width()];
        for p in self.partitions.iter().filter(|p| wanted(p.pid)) {
            reduce_stats(&mut agg, &p.stats);
        }
        Ok(agg)
    }

    /// `updateModel` (Algorithm 3 lines 17-20): recovers the local gradient
    /// from the aggregated statistics and steps every held partition.
    /// Partitions update in parallel on the worker pool — they own disjoint
    /// model slices, and each partition's kernel is deterministic, so pool
    /// width never changes the resulting model.
    fn update(&mut self, iteration: u64, stats: &[f64]) {
        let _prof = ProfScope::enter("worker_update");
        debug_assert_eq!(
            Some(iteration),
            self.batch_iteration(),
            "update for an iteration whose batch was never sampled"
        );
        let model = self.cfg.model;
        let up = self.cfg.update;
        let total_batch = self.cfg.batch_size;
        self.pool.for_each_mut(&mut self.partitions, |_, p| {
            model.update_from_stats_with(
                &mut p.params,
                &mut p.opt,
                &p.batch,
                stats,
                &up,
                total_batch,
                &mut p.scratch,
            );
        });
        self.applied_iteration = Some(iteration);
    }

    /// Worker-failure injection: lose everything (§X — "both partitions of
    /// the model and the training data on this worker are lost").
    fn die(&mut self) {
        for p in &mut self.partitions {
            p.store.clear();
            p.params.reset();
            p.opt = OptimizerState::for_params(self.cfg.optimizer, &p.params);
            p.index = None;
            p.batch.clear();
            p.stats.clear();
        }
        self.received_worksets = 0;
        self.cached_batch = None;
        self.applied_iteration = None;
    }

    /// Installs a migrated shard: a fresh [`Partition`] built from the
    /// shipped worksets and parameters, stamped with the migration epoch.
    /// Returns `true` when the caller should acknowledge (fresh install or
    /// an idempotent duplicate of the same epoch), `false` for a stale
    /// epoch or a payload that does not fit the partition, which must be
    /// dropped unacknowledged.
    fn install_shard(
        &mut self,
        pid: usize,
        epoch: u64,
        worksets: Vec<Workset>,
        params: ParamSet,
    ) -> bool {
        if let Some(slot) = self.holds(pid) {
            if self.partitions[slot].epoch >= epoch {
                // Same epoch: a duplicated ShardData (chaos); the install
                // already happened, re-ack. Older epoch: a delayed
                // migration from a superseded plan; never overwrite.
                let duplicate = self.partitions[slot].epoch == epoch;
                if !duplicate {
                    eprintln!(
                        "worker {}: dropping stale ShardData for partition {pid} \
                         (epoch {epoch})",
                        self.id
                    );
                }
                return duplicate;
            }
        }
        let mut p = Partition::new(pid, &self.cfg, &self.part, self.dim);
        if let Err(e) = check_shard(&worksets, &params, &p.params) {
            eprintln!(
                "worker {}: dropping ShardData for partition {pid} (epoch {epoch}): {e}",
                self.id
            );
            return false;
        }
        if let Some(slot) = self.holds(pid) {
            self.partitions.remove(slot);
        }
        p.epoch = epoch;
        p.opt = OptimizerState::for_params(self.cfg.optimizer, &params);
        p.params = params;
        for ws in worksets {
            p.store.insert(ws);
        }
        p.index = Some(TwoPhaseIndex::new(block_rows(&p.store), self.cfg.seed));
        self.partitions.push(p);
        self.partitions.sort_unstable_by_key(|p| p.pid);
        // The held set changed: cached batches no longer cover it.
        self.cached_batch = None;
        true
    }

    /// Drops a shard that migrated elsewhere. A newer-epoch copy survives a
    /// stale drop order.
    fn drop_shard(&mut self, pid: usize, epoch: u64) {
        if let Some(slot) = self.holds(pid) {
            if self.partitions[slot].epoch <= epoch {
                self.partitions.remove(slot);
                self.cached_batch = None;
            }
        }
    }

    /// Overwrites the parameters of held partitions (crash recovery: the
    /// master restores the current model from a surviving replica).
    fn install_params(&mut self, parts: Vec<(usize, ParamSet)>) {
        for (pid, params) in parts {
            if let Some(slot) = self.holds(pid) {
                let p = &mut self.partitions[slot];
                p.opt = OptimizerState::for_params(self.cfg.optimizer, &params);
                p.params = params;
            }
        }
    }

    /// The worksets of shard `pid` in block-id order plus its current
    /// parameters — the migration payload.
    fn shard_payload(&self, pid: usize) -> Option<(Vec<Workset>, ParamSet)> {
        let slot = self.holds(pid)?;
        let p = &self.partitions[slot];
        let worksets: Vec<Workset> = p.store.iter().map(|(_, ws)| ws.clone()).collect();
        Some((worksets, p.params.clone()))
    }

    /// The first partition's `(block, rows)` layout for the LoadAck, in
    /// canonical (block-id) order — workset *arrival* order differs across
    /// workers, but the two-phase index sorts by block id, so the canonical
    /// layout is what must agree.
    fn layout(&self) -> Vec<(u64, usize)> {
        let mut layout = self
            .partitions
            .first()
            .map(|p| block_rows(&p.store))
            .unwrap_or_default();
        layout.sort_unstable_by_key(|&(bid, _)| bid);
        layout
    }
}

/// Refuses a workset that names a model slot past `local_dim`: the kernels
/// index the local model directly, and read it ahead, on the strength of
/// this check.
fn check_slots(ws: &Workset, local_dim: usize) -> Result<(), String> {
    let bound = ws.data.dimension_bound();
    if bound > local_dim as u64 {
        return Err(format!(
            "block {} names slot {} of a {local_dim}-slot partition",
            ws.block_id,
            bound - 1
        ));
    }
    Ok(())
}

/// Refuses a migrated shard whose parameters are not shaped like the
/// partition's (`want`) or whose worksets do not pass [`check_slots`].
fn check_shard(worksets: &[Workset], params: &ParamSet, want: &ParamSet) -> Result<(), String> {
    let lens = |p: &ParamSet| p.blocks.iter().map(|b| b.len()).collect::<Vec<_>>();
    if params.widths != want.widths || lens(params) != lens(want) {
        return Err(format!(
            "parameter blocks {:?} x {:?}, the partition's {:?} x {:?}",
            lens(params),
            params.widths,
            lens(want),
            want.widths
        ));
    }
    worksets
        .iter()
        .try_for_each(|ws| check_slots(ws, want.dim()))
}

/// A store's `(block, rows)` layout in arrival order, recovered from its
/// cumulative row counts.
fn block_rows(store: &WorksetStore) -> Vec<(u64, usize)> {
    let mut prev = 0usize;
    store
        .cumulative_rows()
        .iter()
        .map(|&(bid, cum)| {
            let rows = cum - prev;
            prev = cum;
            (bid, rows)
        })
        .collect()
}

/// One `computeStatistics` task as it came off the wire: the whole held
/// set ([`ColMsg::ComputeStats`], `pids: None`) or an explicit partition
/// subset ([`ColMsg::ComputeStatsFor`]). The reply mirrors the request's
/// shape; everything else about serving the task is shared.
struct StatsTask {
    iteration: u64,
    batch_size: usize,
    attempt: u64,
    pids: Option<Vec<usize>>,
}

/// Serves one statistics task: scripted faults, request validation, batch
/// sampling, the kernels, the worker-side records, and the reply.
#[expect(clippy::panic, reason = "injected fault, reported as WorkerPanic")]
fn serve_stats(
    w: &mut WorkerNode,
    ep: &Endpoint<ColMsg>,
    script: &WorkerScript,
    recorder: &Recorder,
    flush_telemetry: &impl Fn(),
    task: StatsTask,
) {
    let StatsTask {
        iteration,
        batch_size,
        attempt,
        pids,
    } = task;
    let id = w.id;
    if script.crashes(id, iteration, attempt) {
        panic!("injected worker failure at iteration {iteration} attempt {attempt}");
    }
    let per_partition = pids.is_some();
    let reply = |covered: Vec<usize>, partial: Vec<f64>, compute_s: f64, sample_s, task_failed| {
        if per_partition {
            ColMsg::StatsReplyFor {
                iteration,
                worker: id,
                pids: covered,
                partial,
                compute_s,
                sample_s,
                task_failed,
            }
        } else {
            ColMsg::StatsReply {
                iteration,
                worker: id,
                partial,
                compute_s,
                sample_s,
                task_failed,
            }
        }
    };
    // A task failure is reported, never fatal: the master's retry logic
    // decides what happens next (Figure 13a). A failed per-partition task
    // echoes the *requested* partitions, so the master can tell which of
    // this worker's tasks to retry.
    let fail = |reason: &str, compute_s: f64, sample_s: f64| {
        eprintln!("worker {id}: statistics task t={iteration} failed: {reason}");
        let asked = pids.clone().unwrap_or_default();
        let _ = ep.send(
            NodeId::Master,
            reply(asked, Vec::new(), compute_s, sample_s, true),
        );
    };
    if batch_size != w.cfg.batch_size {
        // A malformed task: computing on a differently-sized batch would
        // ship statistics the master cannot reduce (and silently train on
        // the wrong data in release builds).
        let configured = w.cfg.batch_size;
        fail(
            &format!("carries batch_size {batch_size}, configured {configured}"),
            0.0,
            0.0,
        );
        return;
    }
    let runnable = w.loaded()
        && pids
            .as_ref()
            .is_none_or(|pids| pids.iter().any(|&pid| w.holds(pid).is_some()));
    if !runnable {
        match &pids {
            // A whole-worker task before loading (a stale re-issue raced a
            // respawn): stay silent — the master's deadline fires and its
            // probe sees loaded=false, which is what triggers the reload.
            None => eprintln!("worker {id}: dropping ComputeStats t={iteration} before loading"),
            // A per-partition request that raced a migration: say so, and
            // the master re-plans without waiting out a deadline.
            Some(_) => fail("no requested shard held", 0.0, 0.0),
        }
        return;
    }
    #[expect(clippy::disallowed_methods, reason = "compute timer, measurement only")]
    let start = Instant::now();
    if script.task_fails(iteration, attempt) {
        fail("injected task failure", start.elapsed().as_secs_f64(), 0.0);
        return;
    }
    // Time the sampling/assembly sub-phase separately for telemetry;
    // `compute_stats` below hits the batch cache, so the work is not
    // repeated. A batch that cannot be assembled (block lost in a reload
    // race) is a task failure, not a worker death.
    let sampled = w.ensure_batch(iteration);
    let sample_s = start.elapsed().as_secs_f64();
    match sampled.and_then(|()| w.compute_stats(iteration, pids.as_deref())) {
        Ok(partial) => {
            // What a per-partition reply covers: the requested shards held
            // here, in partition order. A whole-worker reply names none.
            let covered = pids.as_deref().map_or_else(Vec::new, |pids| {
                let held = w.partitions.iter().map(|p| p.pid);
                held.filter(|pid| pids.contains(pid)).collect()
            });
            recorder.kernel(KernelRecord {
                iteration,
                model: w.cfg.model.label().to_string(),
                batch_size: w.cfg.batch_size as u64,
                pool_width: w.cfg.threads_per_worker as u64,
                flops_proxy: w.cfg.model.flops_proxy(w.cfg.batch_size, 1),
                worker: Some(id as u64),
            });
            // Worker-side NaN guard: a diverged kernel is recorded here
            // even when the statistics never reach the master intact (e.g.
            // a dropped reply), so TCP traces keep the evidence.
            if partial.iter().any(|v| !v.is_finite()) {
                recorder.fault(FaultRecord {
                    iteration,
                    worker: id as u64,
                    fault: "non-finite statistics".to_string(),
                    detection: "worker guard".to_string(),
                    detection_latency_s: start.elapsed().as_secs_f64(),
                    recovery_cost_s: 0.0,
                    attempt: attempt + 1,
                    fatal: false,
                });
            }
            flush_telemetry();
            let compute_s = start.elapsed().as_secs_f64();
            let _ = ep.send(
                NodeId::Master,
                reply(covered, partial, compute_s, sample_s, false),
            );
        }
        Err(e) => fail(&e, start.elapsed().as_secs_f64(), sample_s),
    }
}

/// The worker mailbox loop — the one executor behind both membership
/// policies. Runs
/// until [`ColMsg::Shutdown`] or the master disappears; panics (scripted,
/// chaos, or genuine bugs) unwind out of here and are converted into
/// [`ColMsg::WorkerPanic`] by the guarded spawn in the engine.
///
/// The loop serves the whole worker-bound protocol: the bulk load/reload
/// stream of a fixed worker set (`held` names the partitions the worker
/// owns from the start) *and* the shard-at-a-time traffic of elastic
/// membership (`held` empty; shards arrive as [`ColMsg::ShardData`], tasks name
/// partition subsets, the held set changes over the worker's lifetime).
///
/// `recorder` receives this worker's kernel and guard records: a clone of
/// the master's shared recorder in-process, or a worker-local recorder in
/// a worker process. `ship` (TCP mode only, when the master traces) flushes
/// the local recorder to the master as telemetry frames; flushes happen
/// *before* the protocol reply they describe, so a master barrier that saw
/// the reply has already ingested the matching worker events.
#[allow(clippy::too_many_arguments)]
#[deny(clippy::wildcard_enum_match_arm)]
pub fn run_worker(
    ep: Endpoint<ColMsg>,
    id: usize,
    parts_total: usize,
    held: &[usize],
    dim: u64,
    cfg: ColumnSgdConfig,
    script: WorkerScript,
    recorder: Recorder,
    ship: Option<TelemetryTx>,
) {
    let flush_telemetry = || {
        if let Some(tx) = &ship {
            // Fold this process's profiler accumulation into the outgoing
            // event batch first: the samples ride the same socket as the
            // barrier reply that follows, so the master ingests them before
            // the superstep completes. No-op unless profiling is enabled.
            recorder.prof_drain(Some(id as u64));
            tx.flush(&recorder);
        }
    };
    let mut w = WorkerNode::new(id, parts_total, held, dim, cfg);
    let held = held.len();
    let mut load_done_total: Option<usize> = None;
    let mut reload_done_total: Option<usize> = None;
    let mut reload_received = 0usize;

    loop {
        let env = match ep.recv() {
            Ok(env) => env,
            // Master gone: shut down quietly (end of test/bench).
            Err(_) => return,
        };
        match env.payload {
            ColMsg::LoadBlock(block) => w.dispatch_block(&ep, &block),
            ColMsg::Workset { pid, ws } => w.accept_workset(pid, ws),
            ColMsg::LoadDone { blocks_total } => load_done_total = Some(blocks_total),
            ColMsg::ComputeStats {
                iteration,
                batch_size,
                attempt,
            } => serve_stats(
                &mut w,
                &ep,
                &script,
                &recorder,
                &flush_telemetry,
                StatsTask {
                    iteration,
                    batch_size,
                    attempt,
                    pids: None,
                },
            ),
            ColMsg::ComputeStatsFor {
                iteration,
                batch_size,
                attempt,
                pids,
            } => serve_stats(
                &mut w,
                &ep,
                &script,
                &recorder,
                &flush_telemetry,
                StatsTask {
                    iteration,
                    batch_size,
                    attempt,
                    pids: Some(pids),
                },
            ),
            ColMsg::Update { iteration, stats } => {
                if w.applied_iteration == Some(iteration) {
                    // Duplicate broadcast (chaos): the update is already
                    // in; re-ack idempotently so a lost ack also heals.
                    let _ = ep.send(
                        NodeId::Master,
                        ColMsg::UpdateAck {
                            iteration,
                            worker: id,
                            compute_s: 0.0,
                        },
                    );
                } else if Some(iteration) == w.batch_iteration() {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "compute timer, measurement only"
                    )]
                    let start = Instant::now();
                    w.update(iteration, &stats);
                    flush_telemetry();
                    let _ = ep.send(
                        NodeId::Master,
                        ColMsg::UpdateAck {
                            iteration,
                            worker: id,
                            compute_s: start.elapsed().as_secs_f64(),
                        },
                    );
                } else {
                    // Stale or unsampled iteration: applying would corrupt
                    // the model. Drop; the master's deadline recovers.
                    eprintln!(
                        "worker {id}: dropping Update t={iteration} (batch is t={:?})",
                        w.batch_iteration()
                    );
                }
            }
            ColMsg::Probe { iteration } => {
                let _ = ep.send_reliable(
                    NodeId::Master,
                    ColMsg::ProbeAck {
                        worker: id,
                        iteration,
                        loaded: w.loaded(),
                    },
                );
            }
            ColMsg::Die => {
                w.die();
                reload_received = 0;
                reload_done_total = None;
            }
            ColMsg::ReloadBlock(block) => {
                w.reload_block(&block);
                reload_received += 1;
                maybe_finish_reload(&mut w, &ep, reload_done_total, reload_received);
            }
            ColMsg::ReloadDone { blocks_total } => {
                reload_done_total = Some(blocks_total);
                maybe_finish_reload(&mut w, &ep, reload_done_total, reload_received);
            }
            ColMsg::ShardData {
                pid,
                epoch,
                worksets,
                params,
            } => {
                if w.install_shard(pid, epoch, worksets, params) {
                    let _ = ep.send_reliable(
                        NodeId::Master,
                        ColMsg::ShardInstalled {
                            pid,
                            epoch,
                            worker: id,
                        },
                    );
                }
            }
            ColMsg::ShardRequest { pid, epoch, to } => {
                match w.shard_payload(pid) {
                    // The shard travels the *data* plane so chaos can hit
                    // it and the meter prices it like any other payload.
                    Some((worksets, params)) => {
                        if let Err(e) = ep.send(
                            NodeId::Worker(to),
                            ColMsg::ShardData {
                                pid,
                                epoch,
                                worksets,
                                params,
                            },
                        ) {
                            eprintln!("worker {id}: shard {pid} undeliverable to worker {to}: {e}");
                        }
                    }
                    None => eprintln!(
                        "worker {id}: ShardRequest for partition {pid} not held; dropping"
                    ),
                }
            }
            ColMsg::DropShard { pid, epoch } => w.drop_shard(pid, epoch),
            ColMsg::FetchModel => {
                let parts = w
                    .partitions
                    .iter()
                    .map(|p| (p.pid, p.params.clone()))
                    .collect();
                // Reliable: the inspection path must work even under chaos.
                let _ = ep.send_reliable(NodeId::Master, ColMsg::ModelReply { worker: id, parts });
            }
            // Crash recovery: the master restores current parameters
            // fetched from a surviving replica.
            ColMsg::InstallParams { parts } => w.install_params(parts),
            ColMsg::Shutdown => {
                // Final drain: ship any events the last superstep's replies
                // did not cover before the connection goes away.
                flush_telemetry();
                return;
            }
            // Master-bound replies are protocol noise on a worker: log and
            // drop instead of panicking. Named variant-by-variant (a
            // wildcard is denied here) so a new ColMsg variant fails the
            // compiler's exhaustiveness check until a decision is made.
            other @ (ColMsg::LoadAck { .. }
            | ColMsg::StatsReply { .. }
            | ColMsg::StatsReplyFor { .. }
            | ColMsg::UpdateAck { .. }
            | ColMsg::ReloadAck { .. }
            | ColMsg::ModelReply { .. }
            | ColMsg::ProbeAck { .. }
            | ColMsg::WorkerPanic { .. }
            | ColMsg::ShardInstalled { .. }) => {
                eprintln!(
                    "worker {id}: dropping unexpected {} from {}",
                    other.name(),
                    env.from
                );
            }
        }

        // Finalize bulk loading when both the done-marker and all worksets
        // have arrived (they race on different links).
        if let Some(total) = load_done_total {
            if w.received_worksets == total * held && !w.loaded() {
                w.finalize_load();
                if ep
                    .send_reliable(
                        NodeId::Master,
                        ColMsg::LoadAck {
                            worker: id,
                            layout: w.layout(),
                        },
                    )
                    .is_err()
                {
                    // Master gone mid-load: nothing left to serve.
                    return;
                }
                load_done_total = None;
            }
        }
    }
}

fn maybe_finish_reload(
    w: &mut WorkerNode,
    ep: &Endpoint<ColMsg>,
    total: Option<usize>,
    received_blocks: usize,
) {
    if let Some(total) = total {
        if received_blocks == total && !w.loaded() {
            w.finalize_load();
            let _ = ep.send_reliable(NodeId::Master, ColMsg::ReloadAck { worker: w.id });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_cluster::FailurePlan;
    use columnsgd_linalg::SparseVector;
    use columnsgd_ml::ModelSpec;

    #[test]
    fn script_extracts_this_workers_events() {
        let plan = FailurePlan {
            events: vec![
                FailureEvent::TaskFailure {
                    iteration: 3,
                    worker: 1,
                },
                FailureEvent::WorkerFailure {
                    iteration: 7,
                    worker: 1,
                },
                FailureEvent::TaskFailure {
                    iteration: 5,
                    worker: 0,
                },
            ],
            ..FailurePlan::default()
        };
        let s = WorkerScript::from_plan(&plan, 1);
        assert_eq!(s.task_failures, vec![3]);
        assert_eq!(s.crashes, vec![7]);
        assert!(s.task_fails(3, 0));
        assert!(!s.task_fails(3, 1), "retry must succeed");
        assert!(s.crashes(1, 7, 0));
        assert!(!s.crashes(1, 7, 1), "respawned worker must survive");
        let s0 = WorkerScript::from_plan(&plan, 0);
        assert_eq!(s0.task_failures, vec![5]);
        assert!(s0.crashes.is_empty());
    }

    #[test]
    fn chaos_crashes_flow_through_script() {
        let spec = ChaosSpec {
            seed: 3,
            crash_p: 1.0,
            ..ChaosSpec::default()
        };
        let s = WorkerScript {
            chaos: Some(spec),
            ..WorkerScript::default()
        };
        assert!(s.crashes(0, 0, 0));
        let none = WorkerScript::default();
        assert!(!none.crashes(0, 0, 0));
    }

    /// A one-row workset touching slots 0 and `slot`.
    fn workset(block_id: u64, slot: u64) -> Workset {
        let row = SparseVector::from_pairs(vec![(0, 1.0), (slot, 2.0)]);
        Workset {
            block_id,
            data: CsrMatrix::from_rows(&[(1.0, row)]),
        }
    }

    #[test]
    fn worksets_naming_slots_past_the_partition_are_refused() {
        let mut cfg = ColumnSgdConfig::new(ModelSpec::Fm { factors: 3 });
        cfg.batch_size = 4;
        let mut w = WorkerNode::new(0, 2, &[0], 10, cfg);
        let local_dim = w.partitions[0].params.dim() as u64;

        // At the load door: the bad workset is dropped like a misrouted
        // one, the good one (last slot included) is stored.
        w.accept_workset(0, workset(0, local_dim));
        assert_eq!(w.received_worksets, 0);
        assert!(w.partitions[0].store.get(0).is_none());
        w.accept_workset(0, workset(1, local_dim - 1));
        assert_eq!(w.received_worksets, 1);

        // At the migration door: a bad workset or misshapen parameters
        // refuse the whole shard, unacknowledged, and the held copy stays.
        let params = w.partitions[0].params.clone();
        let good = || vec![workset(2, local_dim - 1)];
        assert!(!w.install_shard(0, 1, vec![workset(2, local_dim)], params.clone()));
        let wider = ParamSet::zeros(local_dim as usize + 1, &params.widths);
        assert!(!w.install_shard(0, 1, good(), wider));
        assert_eq!(w.partitions[0].epoch, 0);
        assert!(w.partitions[0].store.get(1).is_some());

        assert!(w.install_shard(0, 1, good(), params));
        assert_eq!(w.partitions[0].epoch, 1);
        let stats = w.compute_stats(0, None).expect("kernels run");
        assert_eq!(stats.len(), 4 * 4);
    }
}
