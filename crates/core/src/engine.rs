//! The ColumnSGD master/driver: data loading, the BSP training loop,
//! straggler handling, and detection-based fault tolerance.
//!
//! # Reactive fault tolerance
//!
//! The master never *interprets* the failure plan during training — faults
//! are injected at the workers (panics, thrown tasks) and at the wire
//! (seeded chaos in the router), and the master only learns about them by
//! **detection**:
//!
//! * an explicit error reply (`StatsReply { task_failed: true }`),
//! * a [`ColMsg::WorkerPanic`] report from the guarded node runtime,
//! * a send failing because the worker's mailbox is gone, or
//! * the per-iteration receive deadline expiring, after which the master
//!   probes the silent worker to classify the fault: alive-and-loaded
//!   means a lost task (re-issue), anything else means a lost worker
//!   (respawn and stream the partition reload).
//!
//! Every detected-and-recovered fault is logged as a [`RecoveryEvent`] on
//! the [`TrainOutcome`], so experiments report recovery behaviour from
//! observed events rather than from the injection script.

use std::collections::HashMap;
use std::time::Instant;

use columnsgd_cluster::telemetry::{MetricsRegistry, ProfScope, RunStamp};
use columnsgd_cluster::wire::ENVELOPE_BYTES;
use columnsgd_cluster::{
    ClusterConfig, Diagnostics, Envelope, FailurePlan, Monitor, NetError, NetworkModel, NodeId,
    Recorder, SimClock, TrafficStats,
};
use columnsgd_data::block::Block;
use columnsgd_data::Dataset;
use columnsgd_ml::metrics::Curve;
use columnsgd_ml::spec::reduce_stats;
use columnsgd_ml::ParamSet;

use crate::config::ColumnSgdConfig;
use crate::error::{DetectionMethod, FaultKind, RecoveryEvent, TrainError};
use crate::master::{LoadReport, MasterCore, Probed, Superstep, PER_OBJECT_S};
use crate::msg::ColMsg;
use crate::worker::WorkerScript;

/// Result of a training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Batch-loss convergence curve (iteration, simulated time, loss).
    pub curve: Curve,
    /// The simulated clock (per-iteration breakdown).
    pub clock: SimClock,
    /// Every fault the master detected and recovered from, in detection
    /// order.
    pub recovery: Vec<RecoveryEvent>,
    /// The run's identity stamp (config hash, seeds, pool width) — the
    /// same stamp telemetry writes on every trace line, so repro JSON
    /// derived from this outcome is self-describing.
    pub run: RunStamp,
    /// End-of-run diagnostics from the online [`Monitor`] (empty unless
    /// one was attached with [`ColumnSgdEngine::attach_monitor`]).
    pub diagnostics: Diagnostics,
}

impl TrainOutcome {
    /// Mean per-iteration simulated time over the final `n` iterations —
    /// the Tables IV/V statistic.
    pub fn mean_iteration_s(&self, n: usize) -> f64 {
        self.clock.mean_iteration_s(n)
    }
}

/// The ColumnSGD driver: one master endpoint plus K supervised workers —
/// guarded threads (in-process transport) or child processes (TCP
/// transport), chosen by [`ClusterConfig`].
///
/// What it shares with the elastic engine (the worker host, mailbox,
/// deadlines, probing, the superstep tail, metrics, the model gather)
/// lives in the master core; this file keeps what a *fixed* worker set
/// adds: bulk loading, respawn + partition reload, S-backup groups, and
/// stale statistics.
pub struct ColumnSgdEngine {
    core: MasterCore,
    load_report: LoadReport,
}

impl ColumnSgdEngine {
    /// Spawns K in-process workers with telemetry off, runs the
    /// block-based column dispatch of §IV-A, and waits for every worker to
    /// finish loading.
    ///
    /// # Errors
    /// Returns [`TrainError::InvalidPlan`] if the failure plan names
    /// out-of-range workers or carries invalid chaos probabilities, and
    /// [`TrainError::LoadFailed`] if loading does not complete.
    ///
    /// # Panics
    /// Panics if the dataset is empty or the backup factor does not divide
    /// K (configuration bugs, not runtime faults).
    pub fn new(
        dataset: &Dataset,
        k: usize,
        cfg: ColumnSgdConfig,
        net: NetworkModel,
        plan: FailurePlan,
    ) -> Result<Self, TrainError> {
        Self::new_clustered(
            dataset,
            k,
            cfg,
            net,
            plan,
            Recorder::disabled(),
            &ClusterConfig::in_proc(),
        )
    }

    /// [`ColumnSgdEngine::new`] with a telemetry [`Recorder`] attached —
    /// every router send, superstep phase, kernel launch, and fault is
    /// recorded on it for JSONL export or in-process summary — and an
    /// explicit transport backend (see
    /// [`ColumnSgdEngine::from_blocks_clustered`]).
    ///
    /// # Errors
    /// Same contract as [`ColumnSgdEngine::from_blocks_clustered`].
    ///
    /// # Panics
    /// Same contract as [`ColumnSgdEngine::new`].
    #[allow(clippy::too_many_arguments)] // one backend knob on a wide constructor
    pub fn new_clustered(
        dataset: &Dataset,
        k: usize,
        cfg: ColumnSgdConfig,
        net: NetworkModel,
        plan: FailurePlan,
        recorder: Recorder,
        cluster: &ClusterConfig,
    ) -> Result<Self, TrainError> {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        let queue = dataset.into_block_queue(cfg.block_size);
        let blocks: Vec<Block> = queue.iter().cloned().collect();
        Self::from_blocks_clustered(
            blocks,
            dataset.dimension(),
            k,
            cfg,
            net,
            plan,
            recorder,
            cluster,
        )
    }

    /// Builds an engine from pre-cut blocks — the streaming loading path:
    /// feed blocks from `columnsgd_data::libsvm::BlockReader` without ever
    /// materializing a [`Dataset`] — on an explicit transport backend:
    /// in-process channels (threads) or loopback TCP (one child process
    /// per worker, spawned from the `columnsgd-worker` binary).
    ///
    /// `dim` must cover every feature index in the blocks (use the
    /// reader's `dimension_bound` after exhaustion, or a known dimension).
    ///
    /// Both backends run the identical protocol with identical seeding, so
    /// the loss curve, final model, and `TrafficStats` byte totals are
    /// bit-identical across them; only wall-clock behaviour differs.
    ///
    /// # Errors
    /// Same contract as [`ColumnSgdEngine::new`], plus
    /// [`TrainError::LoadFailed`] for an empty or non-densely numbered
    /// block set and when the TCP backend cannot spawn or connect its
    /// worker processes.
    #[allow(clippy::too_many_arguments)] // one backend knob on a wide constructor
    pub fn from_blocks_clustered(
        blocks: Vec<Block>,
        dim: u64,
        k: usize,
        cfg: ColumnSgdConfig,
        net: NetworkModel,
        plan: FailurePlan,
        recorder: Recorder,
        cluster: &ClusterConfig,
    ) -> Result<Self, TrainError> {
        let _ = cfg.num_groups(k); // validate (S+1) | K early
        let cfg = MasterCore::open_run(cfg, k, &net, &plan, &blocks, &recorder)?;
        let scripts = (0..k).map(|w| WorkerScript::from_plan(&plan, w)).collect();
        let core = MasterCore::new(
            cfg, k, net, plan, recorder, blocks, dim, cluster, scripts, false, k,
        )?;
        let mut engine = Self {
            core,
            load_report: LoadReport {
                objects: 0,
                bytes: 0,
                sim_time_s: 0.0,
            },
        };
        engine.load_report = engine.load()?;
        // Chaos only applies from here on: losing a load message would
        // model an HDFS failure, outside the paper's fault model.
        engine.core.master.router().arm_chaos();
        Ok(engine)
    }

    /// Runs the block-based dispatch: every block goes to a splitting
    /// worker (round-robin over idle workers), which shuffles CSR worksets
    /// to their owners; then barriers on every worker's LoadAck.
    fn load(&mut self) -> Result<LoadReport, TrainError> {
        self.core.traffic.reset();
        // Keep the trace reconciled with the meter: load-phase comm
        // records describe bytes the reset just forgot.
        self.core.recorder.clear_comm();
        for (i, block) in self.core.blocks.iter().enumerate() {
            let splitter = NodeId::Worker(i % self.core.slots);
            self.core
                .master
                .send(splitter, ColMsg::LoadBlock(block.clone()))
                .map_err(|e| TrainError::LoadFailed(format!("block dispatch: {e}")))?;
        }
        for w in 0..self.core.slots {
            self.core
                .master
                .send(
                    NodeId::Worker(w),
                    ColMsg::LoadDone {
                        blocks_total: self.core.blocks.len(),
                    },
                )
                .map_err(|e| TrainError::LoadFailed(format!("load-done marker: {e}")))?;
        }
        // Absolute deadline, refreshed on every acknowledged worker:
        // progress resets the clock, stray messages do not.
        let mut deadline = Instant::now() + self.core.bulk_deadline();
        let mut acks = 0;
        let mut reference_layout: Option<Vec<(u64, usize)>> = None;
        while acks < self.core.slots {
            let env = self.core.recv_next(deadline).map_err(|e| {
                TrainError::LoadFailed(format!(
                    "only {acks}/{} workers acknowledged loading: {e}",
                    self.core.slots
                ))
            })?;
            match env.payload {
                ColMsg::LoadAck { layout, .. } => {
                    // Every partition must expose the identical (block →
                    // rows) layout or two-phase sampling would diverge.
                    match &reference_layout {
                        None => reference_layout = Some(layout),
                        Some(r) if r == &layout => {}
                        Some(_) => {
                            return Err(TrainError::LoadFailed(
                                "divergent workset layouts across workers".to_string(),
                            ))
                        }
                    }
                    acks += 1;
                    deadline = Instant::now() + self.core.bulk_deadline();
                }
                other => {
                    eprintln!("master: dropping unexpected {} during load", other.name());
                }
            }
        }
        Ok(self.core.price_load())
    }

    /// The loading cost report.
    pub fn load_report(&self) -> LoadReport {
        self.load_report
    }

    /// The shared traffic meter.
    pub fn traffic(&self) -> &TrafficStats {
        &self.core.traffic
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.core.slots
    }

    /// Sends `ComputeStats` to worker `w`. A dead mailbox is a detected
    /// worker failure: respawn, reload, log, and retry the send.
    fn issue_compute(
        &mut self,
        t: u64,
        w: usize,
        attempts: &mut [u64],
        issued: &Instant,
        recovery: &mut Vec<RecoveryEvent>,
        charge: &mut f64,
    ) -> Result<(), TrainError> {
        loop {
            let msg = ColMsg::ComputeStats {
                iteration: t,
                batch_size: self.core.cfg.batch_size,
                attempt: attempts[w],
            };
            if self.core.master.send(NodeId::Worker(w), msg).is_ok() {
                return Ok(());
            }
            let cost = self.respawn_worker(t, w)?;
            *charge += cost;
            self.core.note_recovery(
                RecoveryEvent {
                    iteration: t,
                    worker: w,
                    fault: FaultKind::WorkerFailure,
                    detection: DetectionMethod::SendFailure,
                    detection_latency_s: issued.elapsed().as_secs_f64(),
                    recovery_cost_s: cost,
                    attempt: attempts[w],
                },
                recovery,
            );
            self.core.bump_attempts(t, w, attempts)?;
        }
    }

    /// Runs the full training loop (Algorithm 3) and returns the outcome.
    ///
    /// # Errors
    /// Returns [`TrainError::RetriesExhausted`] when one worker's task
    /// keeps failing past the retry budget, [`TrainError::WorkerLost`]
    /// when a worker cannot be brought back, and [`TrainError::Network`]
    /// if the master's own mailbox fails.
    pub fn train(&mut self) -> Result<TrainOutcome, TrainError> {
        let out = self.train_inner();
        if let Err(e) = &out {
            // Terminal errors join the telemetry fault stream as
            // `fatal: true` records — one unified vocabulary for
            // recovered and unrecoverable faults.
            self.core.recorder.fault(e.to_fault_record());
        }
        out
    }

    fn train_inner(&mut self) -> Result<TrainOutcome, TrainError> {
        let mut clock = SimClock::new();
        let mut curve = Curve::new("ColumnSGD");
        let mut recovery: Vec<RecoveryEvent> = Vec::new();
        let width = self.core.cfg.model.stats_width();
        let stats_len = self.core.cfg.batch_size * width;
        let detect = self.core.deadline();

        for t in 0..self.core.cfg.iterations {
            let issued = Instant::now();
            let mut attempts = vec![0u64; self.core.slots];
            // Simulated seconds spent on detection waits and reloads this
            // iteration, charged to the clock as pure overhead.
            let mut charge = 0.0f64;

            // --- step 1: computeStatistics -----------------------------
            {
                let _prof = ProfScope::enter("issue");
                for w in 0..self.core.slots {
                    self.issue_compute(t, w, &mut attempts, &issued, &mut recovery, &mut charge)?;
                }
            }

            // --- step 2: gather + reduce -------------------------------
            let mut partials: HashMap<usize, Vec<f64>> = HashMap::new();
            let mut compute_times = vec![0.0f64; self.core.slots];
            // Telemetry-only: the sampling/assembly slice of each worker's
            // compute time. Barrier and straggler math stay on the totals.
            let mut sample_times = vec![0.0f64; self.core.slots];
            // S-backup lets the master *excuse* a crashed group member from
            // the gather barrier: a surviving replica's reply covers the
            // whole group (§IV-B), so the superstep completes without
            // waiting for the respawned worker's redundant answer — and
            // without ever reaching the deadline path.
            let backed_up = self.core.cfg.backup_s > 0;
            let mut excused = vec![false; self.core.slots];
            // Absolute detection deadline: reset on progress (a folded
            // reply, a handled panic, a completed recovery), never on
            // stray traffic. Wall-clock across the whole barrier is kept
            // as the *measured* gather time for transport cross-checks.
            let prof_gather = ProfScope::enter("gather");
            let gather_started = Instant::now();
            let mut wait_until = gather_started + detect;
            while (0..self.core.slots).any(|w| !excused[w] && !partials.contains_key(&w)) {
                match self.core.recv_next(wait_until) {
                    Ok(env) => match env.payload {
                        ColMsg::StatsReply {
                            iteration,
                            worker,
                            partial,
                            compute_s,
                            sample_s,
                            task_failed,
                        } if iteration == t => {
                            wait_until = Instant::now() + detect;
                            let failed = fold_stats_reply(
                                &mut partials,
                                &mut compute_times,
                                &mut sample_times,
                                worker,
                                partial,
                                compute_s,
                                sample_s,
                                task_failed,
                            );
                            if failed {
                                // §X task failure: "start a new task … no
                                // additional work on data loading is
                                // required."
                                self.core.note_recovery(
                                    RecoveryEvent {
                                        iteration: t,
                                        worker,
                                        fault: FaultKind::TaskFailure,
                                        detection: DetectionMethod::ErrorReply,
                                        detection_latency_s: issued.elapsed().as_secs_f64(),
                                        recovery_cost_s: 0.0,
                                        attempt: attempts[worker],
                                    },
                                    &mut recovery,
                                );
                                self.core.bump_attempts(t, worker, &mut attempts)?;
                                self.issue_compute(
                                    t,
                                    worker,
                                    &mut attempts,
                                    &issued,
                                    &mut recovery,
                                    &mut charge,
                                )?;
                            }
                        }
                        // A late reply from an earlier iteration: drop.
                        ColMsg::StatsReply { .. } => {}
                        ColMsg::WorkerPanic { worker, .. } => {
                            wait_until = Instant::now() + detect;
                            let cost = self.respawn_worker(t, worker)?;
                            charge += cost;
                            self.core.note_recovery(
                                RecoveryEvent {
                                    iteration: t,
                                    worker,
                                    fault: FaultKind::WorkerFailure,
                                    detection: DetectionMethod::PanicReport,
                                    detection_latency_s: issued.elapsed().as_secs_f64(),
                                    recovery_cost_s: cost,
                                    attempt: attempts[worker],
                                },
                                &mut recovery,
                            );
                            self.core.bump_attempts(t, worker, &mut attempts)?;
                            // Its model partition was re-initialized; any
                            // pre-crash partial no longer matches it — and
                            // neither does its charged compute time (only
                            // the attempt actually counted may be billed).
                            discard_partial(
                                &mut partials,
                                &mut compute_times,
                                &mut sample_times,
                                worker,
                            );
                            let r = self.core.cfg.backup_s + 1;
                            let g = worker / r;
                            if backed_up && (g * r..(g + 1) * r).any(|m| m != worker && !excused[m])
                            {
                                // A surviving replica answers for the group;
                                // don't hold the barrier for the respawn.
                                // The fresh task below still runs so the
                                // worker can apply this iteration's update.
                                excused[worker] = true;
                            }
                            self.issue_compute(
                                t,
                                worker,
                                &mut attempts,
                                &issued,
                                &mut recovery,
                                &mut charge,
                            )?;
                        }
                        // Stray control answers from resolved recoveries.
                        ColMsg::ProbeAck { .. } | ColMsg::UpdateAck { .. } => {}
                        other => {
                            eprintln!("master: dropping unexpected {} during gather", other.name());
                        }
                    },
                    Err(NetError::Timeout) => {
                        // Detection: deadline expired with replies missing.
                        charge += detect.as_secs_f64();
                        let missing: Vec<usize> = (0..self.core.slots)
                            .filter(|&w| !excused[w] && !partials.contains_key(&w))
                            .collect();
                        for w in missing {
                            if self.core.pending_has_evidence(t, w) {
                                continue;
                            }
                            self.recover_silent(
                                t,
                                w,
                                &mut attempts,
                                &issued,
                                &mut recovery,
                                &mut charge,
                                None,
                            )?;
                        }
                        wait_until = Instant::now() + detect;
                    }
                    Err(e) => {
                        return Err(TrainError::Network {
                            iteration: t,
                            source: e,
                        })
                    }
                }
            }

            let gather_wall = gather_started.elapsed().as_secs_f64();
            drop(prof_gather);

            // Straggler injection (§V-C methodology). StragglerLevel is
            // "the ratio between the extra time a straggler needs to
            // finish a task and the time that a non-straggler worker
            // needs" — a *task* pays both compute and the per-task
            // executor overhead, so the inflation applies to their sum
            // (the extra time then lands on the barrier).
            let straggler = self.core.plan.straggler.map(|s| {
                let victim = s.pick(t, self.core.slots);
                let task = compute_times[victim] + self.core.net.scheduling_overhead_s;
                compute_times[victim] += (s.factor() - 1.0) * task;
                victim
            });

            // Effective statistics-phase time under S-backup: the master
            // can proceed once the *fastest replica of every group* has
            // answered; slower replicas (stragglers) are killed (§IV-B).
            // Extension: without backup, stale-statistics mode lets the
            // master abandon the straggler's partial entirely.
            let stale_victim = match (self.core.cfg.staleness, straggler) {
                (Some(mode), Some(v)) if !backed_up => Some((mode, v)),
                _ => None,
            };
            let prof_reduce = ProfScope::enter("reduce");
            let groups = self.core.cfg.num_groups(self.core.slots);
            let mut stat_phase = 0.0f64;
            let mut counted: Vec<usize> = Vec::with_capacity(self.core.slots);
            for g in 0..groups {
                let members: Vec<usize> = (g * (self.core.cfg.backup_s + 1)
                    ..(g + 1) * (self.core.cfg.backup_s + 1))
                    .collect();
                if let Some((_, v)) = stale_victim {
                    if members == [v] {
                        continue; // abandoned; neither waited for nor counted
                    }
                }
                let fastest = members
                    .iter()
                    .copied()
                    .filter(|m| partials.contains_key(m))
                    .min_by(|&a, &b| compute_times[a].total_cmp(&compute_times[b]))
                    .ok_or_else(|| {
                        TrainError::Internal(format!("backup group {g} has no surviving partial"))
                    })?;
                stat_phase = stat_phase.max(compute_times[fastest]);
                // Everyone who is not a killed straggler transmits; an
                // excused crash never answered, so it transmits nothing.
                for &m in &members {
                    if !partials.contains_key(&m) {
                        continue;
                    }
                    if backed_up && straggler == Some(m) && m != fastest {
                        continue; // killed before transmitting
                    }
                    counted.push(m);
                }
            }

            // Aggregate: one replica per group (they are bit-identical).
            let mut agg = vec![0.0; stats_len];
            for g in 0..groups {
                let rep = self.group_representative(g, &compute_times, &partials);
                if let Some((_, v)) = stale_victim {
                    if rep == v {
                        continue;
                    }
                }
                let partial = partials.get(&rep).ok_or_else(|| {
                    TrainError::Internal(format!(
                        "group {g} representative {rep} has no partial at iteration {t}"
                    ))
                })?;
                reduce_stats(&mut agg, partial);
            }
            if let Some((crate::config::StaleStats::DropRescaled, _)) = stale_victim {
                // Compensate the missing partition: unbiased in expectation
                // under round-robin partitioning.
                let scale = self.core.slots as f64 / (self.core.slots - 1).max(1) as f64;
                for v in agg.iter_mut() {
                    *v *= scale;
                }
            }
            drop(prof_reduce);

            // --- step 3: broadcast + updateModel ------------------------
            // In stale mode the abandoned straggler also skips the update
            // (its partition goes stale for this iteration).
            let prof_bcast = ProfScope::enter("broadcast");
            let updaters: Vec<usize> = (0..self.core.slots)
                .filter(|&w| stale_victim.is_none_or(|(_, v)| v != w))
                .collect();
            for &w in &updaters {
                self.issue_update(
                    t,
                    w,
                    &agg,
                    &mut attempts,
                    &issued,
                    &mut recovery,
                    &mut charge,
                )?;
            }
            let mut update_times = vec![0.0f64; self.core.slots];
            let mut acked = vec![false; self.core.slots];
            let mut acks = 0;
            let bcast_started = Instant::now();
            let mut wait_until = bcast_started + detect;
            while acks < updaters.len() {
                match self.core.recv_next(wait_until) {
                    Ok(env) => match env.payload {
                        ColMsg::UpdateAck {
                            iteration,
                            worker,
                            compute_s,
                        } if iteration == t => {
                            if !acked[worker] {
                                acked[worker] = true;
                                update_times[worker] = compute_s;
                                acks += 1;
                                wait_until = Instant::now() + detect;
                            }
                        }
                        // Stale acks, rebuild replies, stray probe answers.
                        ColMsg::UpdateAck { .. }
                        | ColMsg::StatsReply { .. }
                        | ColMsg::ProbeAck { .. } => {}
                        ColMsg::WorkerPanic { worker, .. } => {
                            wait_until = Instant::now() + detect;
                            let cost = self.respawn_worker(t, worker)?;
                            charge += cost;
                            self.core.note_recovery(
                                RecoveryEvent {
                                    iteration: t,
                                    worker,
                                    fault: FaultKind::WorkerFailure,
                                    detection: DetectionMethod::PanicReport,
                                    detection_latency_s: issued.elapsed().as_secs_f64(),
                                    recovery_cost_s: cost,
                                    attempt: attempts[worker],
                                },
                                &mut recovery,
                            );
                            self.core.bump_attempts(t, worker, &mut attempts)?;
                            if !acked[worker] {
                                self.resequence_update(t, worker, &agg, attempts[worker]);
                            }
                            // If the ack was already counted, the applied
                            // update died with the worker — exactly the §X
                            // data-loss semantics; nothing to re-await.
                        }
                        other => {
                            eprintln!("master: dropping unexpected {} during update", other.name());
                        }
                    },
                    Err(NetError::Timeout) => {
                        charge += detect.as_secs_f64();
                        let silent: Vec<usize> =
                            updaters.iter().copied().filter(|&w| !acked[w]).collect();
                        for w in silent {
                            if self.core.pending_has_evidence(t, w) {
                                continue;
                            }
                            self.recover_silent(
                                t,
                                w,
                                &mut attempts,
                                &issued,
                                &mut recovery,
                                &mut charge,
                                Some(&agg),
                            )?;
                        }
                        wait_until = Instant::now() + detect;
                    }
                    Err(e) => {
                        return Err(TrainError::Network {
                            iteration: t,
                            source: e,
                        })
                    }
                }
            }
            let bcast_wall = bcast_started.elapsed().as_secs_f64();
            drop(prof_bcast);
            if let (Some(victim), Some(s)) = (straggler, self.core.plan.straggler) {
                if !backed_up {
                    update_times[victim] *= s.factor();
                }
                // With backup the straggler was killed; its model partition
                // is also held by its replicas, so nobody waits for it.
            }
            let upd_phase = if backed_up {
                // Per group, the fastest replica's update suffices.
                (0..groups)
                    .map(|g| {
                        (g * (self.core.cfg.backup_s + 1)..(g + 1) * (self.core.cfg.backup_s + 1))
                            .filter(|&m| Some(m) != straggler)
                            .map(|m| update_times[m])
                            .fold(f64::INFINITY, f64::min)
                    })
                    .fold(0.0, f64::max)
            } else {
                update_times.iter().copied().fold(0.0, f64::max)
            };

            // --- pricing -------------------------------------------------
            // Analytic wire sizes: every counted reply carries stats_len
            // scalars, so no throwaway message (or clone of `agg`) is ever
            // materialized just to measure it. The analytic helpers are
            // pinned equal to `wire_size()` by test.
            let reply_bytes = (ColMsg::stats_reply_wire_size(stats_len) + ENVELOPE_BYTES) as u64;
            let bcast_bytes = (ColMsg::update_wire_size(agg.len()) + ENVELOPE_BYTES) as u64;
            let gather_s = self
                .core
                .net
                .gather_time_uniform(reply_bytes, counted.len());
            let bcast_s = self.core.net.broadcast_time(bcast_bytes, updaters.len());
            self.core.finish_superstep(
                &Superstep {
                    t,
                    sample_times: &sample_times,
                    compute_times: &compute_times,
                    observed: &compute_times,
                    stat_phase,
                    gather: (gather_s, gather_wall),
                    bcast: (bcast_s, bcast_wall),
                    update_times: &update_times,
                    upd_phase,
                    charge,
                    counted: counted.len(),
                    agg: &agg,
                },
                &mut clock,
                &mut curve,
            )?;
        }
        self.core.finish_train()?;

        Ok(TrainOutcome {
            curve,
            clock,
            recovery,
            run: self.run_stamp(),
            diagnostics: self.core.monitor.report(),
        })
    }

    /// The identity stamp describing this engine's run (also written on
    /// every telemetry record when tracing is enabled).
    pub fn run_stamp(&self) -> RunStamp {
        self.core.run_stamp()
    }

    /// The attached telemetry recorder (disabled unless one was passed to
    /// [`ColumnSgdEngine::new_clustered`]).
    pub fn recorder(&self) -> &Recorder {
        &self.core.recorder
    }

    /// Attaches an online diagnostics [`Monitor`]: every superstep's
    /// post-barrier observations (per-worker compute, cumulative sent
    /// bytes, batch loss) are fed through its streaming detectors, and a
    /// stop request becomes [`TrainError::Diverged`].
    pub fn attach_monitor(&mut self, monitor: Monitor) {
        self.core.monitor = monitor;
    }

    /// The attached diagnostics monitor (disabled unless
    /// [`ColumnSgdEngine::attach_monitor`] was called).
    pub fn monitor(&self) -> &Monitor {
        &self.core.monitor
    }

    /// Attaches a [`MetricsRegistry`]: registers the engine's metric
    /// families and, from then on, exports one sample set per superstep
    /// from observations the engine already collects — the data plane is
    /// never metered twice.
    pub fn attach_metrics(&mut self, metrics: MetricsRegistry) {
        self.core.attach_metrics(metrics);
    }

    /// Probe-classify-recover for one silent worker. `agg` is `Some`
    /// during the update phase (recovery must re-drive the update) and
    /// `None` during the gather phase (recovery re-issues the task).
    #[allow(clippy::too_many_arguments)] // iteration-local recovery state
    fn recover_silent(
        &mut self,
        t: u64,
        w: usize,
        attempts: &mut [u64],
        issued: &Instant,
        recovery: &mut Vec<RecoveryEvent>,
        charge: &mut f64,
        agg: Option<&[f64]>,
    ) -> Result<(), TrainError> {
        let (fault, cost) = match self.core.probe_worker(t, w)? {
            Probed::Deferred => return Ok(()),
            Probed::Alive { loaded: true } => (FaultKind::TaskFailure, 0.0),
            Probed::Alive { loaded: false } => {
                let cost = self.reload_worker(t, w)? + self.restore_params(t, w)?;
                *charge += cost;
                (FaultKind::WorkerFailure, cost)
            }
            Probed::Dead => {
                let cost = self.respawn_worker(t, w)?;
                *charge += cost;
                (FaultKind::WorkerFailure, cost)
            }
        };
        self.core.note_recovery(
            RecoveryEvent {
                iteration: t,
                worker: w,
                fault,
                detection: DetectionMethod::Timeout,
                detection_latency_s: issued.elapsed().as_secs_f64(),
                recovery_cost_s: cost,
                attempt: attempts[w],
            },
            recovery,
        );
        self.core.bump_attempts(t, w, attempts)?;
        match agg {
            None => self.issue_compute(t, w, attempts, issued, recovery, charge)?,
            Some(agg) => self.resequence_update(t, w, agg, attempts[w]),
        }
        Ok(())
    }

    /// Re-drives worker `w` through iteration `t`'s update: a fresh
    /// `ComputeStats` (idempotently re-samples the batch; its reply is
    /// discarded) followed by the `Update`. A worker that already applied
    /// the update simply re-acks.
    fn resequence_update(&mut self, t: u64, w: usize, agg: &[f64], attempt: u64) {
        // Send failures here mean the worker died between the probe and
        // now; the next deadline round detects and handles it.
        let _ = self.core.master.send(
            NodeId::Worker(w),
            ColMsg::ComputeStats {
                iteration: t,
                batch_size: self.core.cfg.batch_size,
                attempt,
            },
        );
        let _ = self.core.master.send(
            NodeId::Worker(w),
            ColMsg::Update {
                iteration: t,
                stats: agg.to_vec(),
            },
        );
    }

    /// Sends `Update` to worker `w`; a dead mailbox is detected, the
    /// worker respawned and re-driven through the iteration.
    #[allow(clippy::too_many_arguments)] // iteration-local recovery state
    fn issue_update(
        &mut self,
        t: u64,
        w: usize,
        agg: &[f64],
        attempts: &mut [u64],
        issued: &Instant,
        recovery: &mut Vec<RecoveryEvent>,
        charge: &mut f64,
    ) -> Result<(), TrainError> {
        let msg = ColMsg::Update {
            iteration: t,
            stats: agg.to_vec(),
        };
        if self.core.master.send(NodeId::Worker(w), msg).is_ok() {
            return Ok(());
        }
        let cost = self.respawn_worker(t, w)?;
        *charge += cost;
        self.core.note_recovery(
            RecoveryEvent {
                iteration: t,
                worker: w,
                fault: FaultKind::WorkerFailure,
                detection: DetectionMethod::SendFailure,
                detection_latency_s: issued.elapsed().as_secs_f64(),
                recovery_cost_s: cost,
                attempt: attempts[w],
            },
            recovery,
        );
        self.core.bump_attempts(t, w, attempts)?;
        self.resequence_update(t, w, agg, attempts[w]);
        Ok(())
    }

    /// Deterministic group representative: the fastest member *that
    /// answered* (ties break to the lowest id) — an excused crash has no
    /// partial and can never represent its group. `total_cmp` keeps the
    /// ordering total even if a simulated time were NaN, so no panic path
    /// exists here; the empty set cannot occur (the gather barrier
    /// guarantees a partial per group) but falls back to the group's first
    /// slot rather than unwrapping.
    fn group_representative(
        &self,
        g: usize,
        times: &[f64],
        partials: &HashMap<usize, Vec<f64>>,
    ) -> usize {
        let r = self.core.cfg.backup_s + 1;
        (g * r..(g + 1) * r)
            .filter(|m| partials.contains_key(m))
            .min_by(|&a, &b| times[a].total_cmp(&times[b]).then(a.cmp(&b)))
            .unwrap_or(g * r)
    }

    /// Brings a dead worker back: replaces its mailbox (draining any
    /// abandoned queued messages into the drop ledger), reaps the dead
    /// thread or child process, discards its stale panic notice, spawns a
    /// fresh supervised incarnation, and streams the partition reload.
    /// Returns the priced reload time.
    fn respawn_worker(&mut self, t: u64, w: usize) -> Result<f64, TrainError> {
        let respawn_wait = self.core.bulk_deadline();
        self.core
            .host
            .respawn(self.core.master.router(), t, w, respawn_wait)
            .map_err(|detail| TrainError::WorkerLost {
                worker: w,
                iteration: t,
                detail,
            })?;
        // The dead incarnation exited before respawn returned, so any
        // panic notice it sent is already queued — drop it, it describes
        // the old incarnation. The fresh one cannot have panicked yet (it
        // has not been handed a compute task).
        let stale = |env: &Envelope<ColMsg>| matches!(&env.payload, ColMsg::WorkerPanic { worker, .. } if *worker == w);
        self.core.pending.retain(|env| !stale(env));
        let mut kept = Vec::new();
        while let Some(env) = self.core.master.try_recv() {
            if !stale(&env) {
                kept.push(env);
            }
        }
        self.core.pending.extend(kept);

        let reload = self.reload_worker(t, w)?;
        let restore = self.restore_params(t, w)?;
        Ok(reload + restore)
    }

    /// After a crash reload, the worker's data is back but its model
    /// partitions are re-initialized (§X: the reload rebuilds data, not
    /// parameters). Under S-backup a surviving replica of the group holds
    /// the *current* parameters for the same partitions — fetch them and
    /// install them on the respawned worker, so it rejoins at the group's
    /// trained state instead of drifting from init. Without backup there is
    /// no surviving copy and the paper's restart-from-reset semantics
    /// stand. Returns the priced restore time (0 when no donor exists).
    fn restore_params(&mut self, t: u64, w: usize) -> Result<f64, TrainError> {
        if self.core.cfg.backup_s == 0 {
            return Ok(0.0);
        }
        let r = self.core.cfg.backup_s + 1;
        let g = w / r;
        for donor in (g * r..(g + 1) * r).filter(|&m| m != w) {
            if self
                .core
                .master
                .send_reliable(NodeId::Worker(donor), ColMsg::FetchModel)
                .is_err()
            {
                continue;
            }
            let wait = self.core.bulk_deadline();
            let from_donor =
                |m: &ColMsg| matches!(m, ColMsg::ModelReply { worker, .. } if *worker == donor);
            let Some(ColMsg::ModelReply { parts, .. }) = self
                .core
                .await_reply(t, wait, from_donor)?
                .map(|env| env.payload)
            else {
                continue; // this donor is wedged; try the next replica
            };
            // Priced analytically from the protocol's wire sizes: the
            // fetch request, the donor's reply, and the install push.
            let parts_bytes: usize = parts.iter().map(|(_, p)| 8 + p.wire_size()).sum();
            let bytes = (1 + ENVELOPE_BYTES) // FetchModel is a bare tag
                + (1 + 8 + 8 + parts_bytes + ENVELOPE_BYTES)
                + (1 + 8 + parts_bytes + ENVELOPE_BYTES);
            self.core
                .master
                .send_reliable(NodeId::Worker(w), ColMsg::InstallParams { parts })
                .map_err(|e| TrainError::WorkerLost {
                    worker: w,
                    iteration: t,
                    detail: format!("parameter restore failed: {e}"),
                })?;
            return Ok(bytes as f64 / self.core.net.bandwidth_bytes_per_s
                + 3.0 * PER_OBJECT_S
                + 2.0 * self.core.net.latency_s);
        }
        // Every replica of the group is unreachable: keep the reset
        // parameters (the no-backup semantics) rather than failing the run.
        eprintln!(
            "master: no replica of group {g} answered FetchModel; \
             worker {w} rejoins with reset parameters"
        );
        Ok(0.0)
    }

    /// Worker-failure recovery (§X): wipe the worker, stream every block
    /// back to it for re-splitting, and return the priced reload time.
    /// Runs on the reliable control plane — recovery of a fault must not
    /// itself be chaos-injected, or injection and recovery never converge.
    fn reload_worker(&mut self, t: u64, w: usize) -> Result<f64, TrainError> {
        let node = NodeId::Worker(w);
        let lost = |e: NetError| TrainError::WorkerLost {
            worker: w,
            iteration: t,
            detail: format!("reload stream failed: {e}"),
        };
        let before = self.core.traffic.received_by(node);
        self.core
            .master
            .send_reliable(node, ColMsg::Die)
            .map_err(lost)?;
        for block in &self.core.blocks {
            self.core
                .master
                .send_reliable(node, ColMsg::ReloadBlock(block.clone()))
                .map_err(lost)?;
        }
        self.core
            .master
            .send_reliable(
                node,
                ColMsg::ReloadDone {
                    blocks_total: self.core.blocks.len(),
                },
            )
            .map_err(lost)?;
        let wait = self.core.bulk_deadline();
        let acked = |m: &ColMsg| matches!(m, ColMsg::ReloadAck { worker } if *worker == w);
        if self.core.await_reply(t, wait, acked)?.is_none() {
            return Err(TrainError::WorkerLost {
                worker: w,
                iteration: t,
                detail: "reload never acknowledged".to_string(),
            });
        }
        let after = self.core.traffic.received_by(node);
        let bytes = after.bytes - before.bytes;
        let objects = after.messages - before.messages;
        Ok(bytes as f64 / self.core.net.bandwidth_bytes_per_s
            + objects as f64 * PER_OBJECT_S
            + self.core.net.latency_s)
    }

    /// Gathers every model partition and reassembles the full model —
    /// an inspection path for tests/examples, not part of the paper's
    /// training protocol (ColumnSGD never materializes the full model).
    /// Runs on the reliable plane so chaos cannot wedge it.
    ///
    /// # Errors
    /// Returns [`TrainError::Network`] when a worker cannot answer within
    /// the bulk deadline — after a successful `train()` every worker is
    /// alive, so this only fires when the cluster is already broken.
    pub fn collect_model(&mut self) -> Result<ParamSet, TrainError> {
        let workers: Vec<usize> = (0..self.core.slots).collect();
        self.core.collect_model(&workers)
    }

    /// The model dimension m.
    pub fn dim(&self) -> u64 {
        self.core.dim
    }
}

/// Folds one `StatsReply` into the gather state. Returns whether the reply
/// reported a task failure (caller retries).
///
/// Only the attempt whose partial is actually *kept* is billed to
/// `compute_times`: failed attempts burn wall-clock the master already
/// accounts as recovery charge, and duplicate replies (chaos, redundant
/// re-issues) carry identical statistics and must not inflate the compute
/// phase. The old `+=` here double-billed every retried attempt.
#[allow(clippy::too_many_arguments)] // gather-local fold state
fn fold_stats_reply(
    partials: &mut HashMap<usize, Vec<f64>>,
    compute_times: &mut [f64],
    sample_times: &mut [f64],
    worker: usize,
    partial: Vec<f64>,
    compute_s: f64,
    sample_s: f64,
    task_failed: bool,
) -> bool {
    if task_failed {
        return true;
    }
    if let std::collections::hash_map::Entry::Vacant(slot) = partials.entry(worker) {
        slot.insert(partial);
        compute_times[worker] = compute_s;
        sample_times[worker] = sample_s;
    }
    false
}

/// Forgets a worker's partial *and* its billed compute time — used when a
/// crash invalidates the pre-crash reply (the respawned incarnation's
/// reply, and only it, may be counted).
fn discard_partial(
    partials: &mut HashMap<usize, Vec<f64>>,
    compute_times: &mut [f64],
    sample_times: &mut [f64],
    worker: usize,
) {
    partials.remove(&worker);
    compute_times[worker] = 0.0;
    sample_times[worker] = 0.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_charges_only_the_counted_attempt() {
        // Regression: a scripted TaskFailure used to leave its compute
        // time accumulated (`+=`) on top of the successful retry's, so a
        // worker that failed once was billed for both attempts.
        let mut partials: HashMap<usize, Vec<f64>> = HashMap::new();
        let mut times = vec![0.0f64; 2];
        let mut samples = vec![0.0f64; 2];

        // Attempt 0 throws after burning 5 s: retry requested, nothing
        // billed, no partial kept.
        assert!(fold_stats_reply(
            &mut partials,
            &mut times,
            &mut samples,
            1,
            Vec::new(),
            5.0,
            1.0,
            true
        ));
        assert_eq!(times[1], 0.0);
        assert_eq!(samples[1], 0.0);
        assert!(!partials.contains_key(&1));

        // Attempt 1 succeeds in 2 s: kept and billed exactly 2 s.
        assert!(!fold_stats_reply(
            &mut partials,
            &mut times,
            &mut samples,
            1,
            vec![1.0],
            2.0,
            0.5,
            false
        ));
        assert_eq!(times[1], 2.0);
        assert_eq!(samples[1], 0.5);
        assert_eq!(partials[&1], vec![1.0]);

        // A duplicate reply (chaos) must change neither the partial nor
        // the bill.
        assert!(!fold_stats_reply(
            &mut partials,
            &mut times,
            &mut samples,
            1,
            vec![9.0],
            9.0,
            9.0,
            false
        ));
        assert_eq!(times[1], 2.0);
        assert_eq!(samples[1], 0.5);
        assert_eq!(partials[&1], vec![1.0]);
    }

    #[test]
    fn crash_discards_partial_and_its_bill() {
        let mut partials: HashMap<usize, Vec<f64>> = HashMap::new();
        let mut times = vec![0.0f64; 2];
        let mut samples = vec![0.0f64; 2];
        assert!(!fold_stats_reply(
            &mut partials,
            &mut times,
            &mut samples,
            0,
            vec![3.0],
            4.0,
            0.25,
            false
        ));
        discard_partial(&mut partials, &mut times, &mut samples, 0);
        assert!(partials.is_empty());
        assert_eq!(times[0], 0.0);
        assert_eq!(samples[0], 0.0);
        // The respawned incarnation's reply is then billed normally.
        assert!(!fold_stats_reply(
            &mut partials,
            &mut times,
            &mut samples,
            0,
            vec![7.0],
            1.0,
            0.125,
            false
        ));
        assert_eq!(times[0], 1.0);
        assert_eq!(samples[0], 0.125);
        assert_eq!(partials[&0], vec![7.0]);
    }
}
