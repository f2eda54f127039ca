//! The static ColumnSGD engine: bring-up and bulk data loading, plus the
//! fixed-worker-set policy (`FixedWorkers`) over the one superstep loop
//! in `master.rs` — respawn and reload, S-backup groups, stale
//! statistics.
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

use columnsgd_cluster::telemetry::{MetricsRegistry, RunStamp};
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

use crate::config::{ColumnSgdConfig, StaleStats};
use crate::error::{FaultKind, RecoveryEvent, TrainError};
use crate::master::{
    LoadReport, Lost, MasterCore, Placement, Reduced, Step, Straggler, Task, PER_OBJECT_S,
};
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
/// What it shares with the elastic engine (the worker host, the
/// superstep loop with its barriers, deadlines and probing, metrics, the
/// model gather) lives in the master core; this file keeps what a *fixed*
/// worker set adds: bulk loading, respawn + partition reload, S-backup
/// groups, and stale statistics.
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
    /// Returns [`TrainError::InvalidPlan`] for `k == 0` or a failure plan
    /// that names out-of-range workers or carries invalid chaos
    /// probabilities, and [`TrainError::LoadFailed`] for an empty dataset
    /// or if loading does not complete.
    ///
    /// # Panics
    /// Panics if the backup factor does not divide K (a configuration bug,
    /// not a runtime fault).
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
        let mut core = MasterCore::new(
            cfg, k, net, plan, recorder, blocks, dim, cluster, scripts, false, k,
        )?;
        let load_report = load(&mut core)?;
        // Chaos only applies from here on: losing a load message would
        // model an HDFS failure, outside the paper's fault model.
        core.rt.master.router().arm_chaos();
        Ok(Self { core, load_report })
    }

    /// The loading cost report.
    pub fn load_report(&self) -> LoadReport {
        self.load_report
    }

    /// The shared traffic meter.
    pub fn traffic(&self) -> &TrafficStats {
        &self.core.rt.traffic
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.core.slots
    }

    /// Runs the full training loop (Algorithm 3) and returns the outcome.
    ///
    /// # Errors
    /// Returns [`TrainError::RetriesExhausted`] when one worker's task
    /// keeps failing past the retry budget, [`TrainError::WorkerLost`]
    /// when a worker cannot be brought back, and [`TrainError::Network`]
    /// if the master's own mailbox fails.
    pub fn train(&mut self) -> Result<TrainOutcome, TrainError> {
        self.core.train(&mut FixedWorkers)
    }

    /// The identity stamp describing this engine's run (also written on
    /// every telemetry record when tracing is enabled).
    pub fn run_stamp(&self) -> RunStamp {
        self.core.run_stamp()
    }

    /// The attached telemetry recorder (disabled unless one was passed to
    /// [`ColumnSgdEngine::new_clustered`]).
    pub fn recorder(&self) -> &Recorder {
        &self.core.rt.recorder
    }

    /// Attaches an online diagnostics [`Monitor`]: every superstep's
    /// post-barrier observations (per-worker compute, cumulative sent
    /// bytes, batch loss) are fed through its streaming detectors, and a
    /// stop request becomes [`TrainError::Diverged`].
    pub fn attach_monitor(&mut self, monitor: Monitor) {
        self.core.rt.monitor = monitor;
    }

    /// The attached diagnostics monitor (disabled unless
    /// [`ColumnSgdEngine::attach_monitor`] was called).
    pub fn monitor(&self) -> &Monitor {
        &self.core.rt.monitor
    }

    /// Attaches a [`MetricsRegistry`]: registers the engine's metric
    /// families and, from then on, exports one sample set per superstep
    /// from observations the engine already collects — the data plane is
    /// never metered twice.
    pub fn attach_metrics(&mut self, metrics: MetricsRegistry) {
        self.core.rt.attach_metrics(metrics);
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

/// Runs the block-based dispatch: every block goes to a splitting
/// worker (round-robin over idle workers), which shuffles CSR worksets
/// to their owners; then barriers on every worker's LoadAck.
fn load(core: &mut MasterCore) -> Result<LoadReport, TrainError> {
    core.rt.traffic.reset();
    // Keep the trace reconciled with the meter: load-phase comm
    // records describe bytes the reset just forgot.
    core.rt.recorder.clear_comm();
    for (i, block) in core.blocks.iter().enumerate() {
        let splitter = NodeId::Worker(i % core.slots);
        core.rt
            .master
            .send(splitter, ColMsg::LoadBlock(block.clone()))
            .map_err(|e| TrainError::LoadFailed(format!("block dispatch: {e}")))?;
    }
    for w in 0..core.slots {
        core.rt
            .master
            .send(
                NodeId::Worker(w),
                ColMsg::LoadDone {
                    blocks_total: core.blocks.len(),
                },
            )
            .map_err(|e| TrainError::LoadFailed(format!("load-done marker: {e}")))?;
    }
    let layouts = core.await_acks(
        core.slots,
        "workers acknowledged loading",
        |msg| match msg {
            ColMsg::LoadAck { worker, layout } => Some((worker, layout)),
            _ => None,
        },
    )?;
    // Every partition must expose the identical (block → rows) layout
    // or two-phase sampling would diverge.
    if layouts.windows(2).any(|pair| pair[0] != pair[1]) {
        return Err(TrainError::LoadFailed(
            "divergent workset layouts across workers".to_string(),
        ));
    }
    Ok(core.price_load())
}

/// The static engine's [`Placement`]: a fixed worker set. Every slot
/// computes everything it holds; a lost worker is respawned (or reloaded in
/// place) and rejoins the superstep; S-backup groups excuse a lost member
/// from the gather, and stale-statistics mode abandons the straggler.
struct FixedWorkers;

/// The straggler whose partial stale-statistics mode abandons (§IV-B
/// extension): only without backup — with it, a replica covers the
/// straggler and nothing goes stale.
fn stale_victim(core: &MasterCore, straggler: Straggler) -> Option<(StaleStats, usize)> {
    match (core.cfg.staleness, straggler) {
        (Some(mode), Some((v, _))) if core.cfg.backup_s == 0 => Some((mode, v)),
        _ => None,
    }
}

impl Placement for FixedWorkers {
    const LABEL: &'static str = "ColumnSGD";

    /// One whole-worker task per slot, so task `w` is worker `w`'s.
    fn place(&mut self, core: &mut MasterCore, step: &mut Step) -> Result<(), TrainError> {
        let whole = (0..core.slots).map(|w| Task::new(w, Vec::new(), None));
        step.tasks.extend(whole);
        Ok(())
    }

    fn worker_down(
        &mut self,
        core: &mut MasterCore,
        step: &mut Step,
        lost: Lost,
    ) -> Result<Vec<usize>, TrainError> {
        let (t, w) = (step.t, lost.worker);
        let cost = if lost.unloaded {
            reload_worker(core, t, w)? + restore_params(core, t, w)?
        } else {
            respawn_worker(core, t, w)?
        };
        step.charge += cost;
        core.note(step, w, FaultKind::WorkerFailure, lost.detection, cost);
        core.bump_attempts(step, w)?;
        if !lost.gathering {
            return Ok(Vec::new());
        }
        // Its model partition was re-initialized; any pre-crash partial no
        // longer matches it — and neither does its billed compute time
        // (only the attempt actually counted may be billed).
        step.tasks[w].reply = None;
        // S-backup lets the master *excuse* a lost group member from the
        // gather barrier: a surviving replica's reply covers the whole
        // group (§IV-B), so the superstep completes without waiting for
        // the respawned worker's redundant answer. The fresh task still
        // runs so the worker can apply this iteration's update.
        let r = core.cfg.backup_s + 1;
        let g = w / r;
        if (g * r..(g + 1) * r).any(|m| m != w && !step.tasks[m].excused) {
            step.tasks[w].excused = true;
        }
        Ok(vec![w])
    }

    /// Under S-backup the master proceeds once the *fastest replica of
    /// every group* has answered; slower replicas (stragglers) are killed
    /// (§IV-B). Replicas are bit-identical, so one representative per
    /// group is aggregated: the fastest member *that answered* (ties break
    /// to the lowest id) — an excused crash has no partial and can never
    /// represent its group.
    fn reduce(
        &mut self,
        core: &MasterCore,
        step: &Step,
        straggler: Straggler,
    ) -> Result<Reduced, TrainError> {
        let r = core.cfg.backup_s + 1;
        let stats_len = core.cfg.batch_size * core.cfg.model.stats_width();
        let stale = stale_victim(core, straggler);
        let answered = |m: usize| step.tasks[m].reply.as_ref();
        let mut agg = vec![0.0; stats_len];
        let mut stat_phase = 0.0f64;
        let mut counted = 0usize;
        for g in 0..core.cfg.num_groups(core.slots) {
            let members = g * r..(g + 1) * r;
            if stale.is_some_and(|(_, v)| members.contains(&v)) {
                continue; // abandoned; neither waited for nor counted
            }
            // `total_cmp` keeps the ordering total even if a simulated
            // time were NaN, so no panic path exists here.
            let (fastest, reply) = members
                .clone()
                .filter_map(|m| answered(m).map(|reply| (m, reply)))
                .min_by(|(_, a), (_, b)| a.compute_s.total_cmp(&b.compute_s))
                .ok_or_else(|| {
                    TrainError::Internal(format!(
                        "backup group {g} has no surviving partial at iteration {}",
                        step.t
                    ))
                })?;
            stat_phase = stat_phase.max(reply.compute_s);
            reduce_stats(&mut agg, &reply.partial);
            // Everyone who is not a killed straggler transmits; an excused
            // crash never answered, so it transmits nothing.
            let killed = |m: usize| r > 1 && straggler.is_some_and(|(v, _)| v == m) && m != fastest;
            counted += members
                .filter(|&m| answered(m).is_some() && !killed(m))
                .count();
        }
        if let Some((StaleStats::DropRescaled, _)) = stale {
            // Compensate the missing partition: unbiased in expectation
            // under round-robin partitioning.
            let scale = core.slots as f64 / (core.slots - 1).max(1) as f64;
            for v in agg.iter_mut() {
                *v *= scale;
            }
        }
        // Every counted reply carries `stats_len` scalars.
        let reply_bytes = (ColMsg::stats_reply_wire_size(stats_len) + ENVELOPE_BYTES) as u64;
        Ok(Reduced {
            agg,
            stat_phase,
            counted,
            gather_s: core.net.gather_time_uniform(reply_bytes, counted),
            // In stale mode the abandoned straggler also skips the update
            // (its partition goes stale for this iteration).
            updaters: (0..core.slots)
                .filter(|&w| stale.is_none_or(|(_, v)| v != w))
                .collect(),
        })
    }

    fn finish_update(
        &mut self,
        core: &mut MasterCore,
        _step: &mut Step,
        update_times: &mut [f64],
        straggler: Straggler,
    ) -> Result<f64, TrainError> {
        let r = core.cfg.backup_s + 1;
        if r == 1 {
            if let Some((victim, factor)) = straggler {
                update_times[victim] *= factor;
            }
            return Ok(update_times.iter().copied().fold(0.0, f64::max));
        }
        // With backup the straggler was killed; its model partition is
        // also held by its replicas, so nobody waits for it: per group,
        // the fastest surviving replica's update suffices.
        let victim = straggler.map(|(v, _)| v);
        let group_s = |g: usize| {
            let alive = (g * r..(g + 1) * r).filter(|&m| Some(m) != victim);
            alive.map(|m| update_times[m]).fold(f64::INFINITY, f64::min)
        };
        Ok((0..core.cfg.num_groups(core.slots))
            .map(group_s)
            .fold(0.0, f64::max))
    }
}

/// Brings a dead worker back: replaces its mailbox (draining any
/// abandoned queued messages into the drop ledger), reaps the dead
/// thread or child process, discards its stale panic notice, spawns a
/// fresh supervised incarnation, and streams the partition reload.
/// Returns the priced reload time.
fn respawn_worker(core: &mut MasterCore, t: u64, w: usize) -> Result<f64, TrainError> {
    let respawn_wait = core.bulk_deadline();
    core.rt
        .host
        .respawn(core.rt.master.router(), t, w, respawn_wait)
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
    core.rt.pending.retain(|env| !stale(env));
    let mut kept = Vec::new();
    while let Some(env) = core.rt.master.try_recv() {
        if !stale(&env) {
            kept.push(env);
        }
    }
    core.rt.pending.extend(kept);

    let reload = reload_worker(core, t, w)?;
    let restore = restore_params(core, t, w)?;
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
fn restore_params(core: &mut MasterCore, t: u64, w: usize) -> Result<f64, TrainError> {
    if core.cfg.backup_s == 0 {
        return Ok(0.0);
    }
    let r = core.cfg.backup_s + 1;
    let g = w / r;
    for donor in (g * r..(g + 1) * r).filter(|&m| m != w) {
        if core
            .rt
            .master
            .send_reliable(NodeId::Worker(donor), ColMsg::FetchModel)
            .is_err()
        {
            continue;
        }
        let wait = core.bulk_deadline();
        let from_donor =
            |m: &ColMsg| matches!(m, ColMsg::ModelReply { worker, .. } if *worker == donor);
        let Some(ColMsg::ModelReply { parts, .. }) = core
            .rt
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
        core.rt
            .master
            .send_reliable(NodeId::Worker(w), ColMsg::InstallParams { parts })
            .map_err(|e| TrainError::WorkerLost {
                worker: w,
                iteration: t,
                detail: format!("parameter restore failed: {e}"),
            })?;
        return Ok(bytes as f64 / core.net.bandwidth_bytes_per_s
            + 3.0 * PER_OBJECT_S
            + 2.0 * core.net.latency_s);
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
fn reload_worker(core: &mut MasterCore, t: u64, w: usize) -> Result<f64, TrainError> {
    let node = NodeId::Worker(w);
    let lost = |e: NetError| TrainError::WorkerLost {
        worker: w,
        iteration: t,
        detail: format!("reload stream failed: {e}"),
    };
    let before = core.rt.traffic.received_by(node);
    core.rt
        .master
        .send_reliable(node, ColMsg::Die)
        .map_err(lost)?;
    for block in &core.blocks {
        core.rt
            .master
            .send_reliable(node, ColMsg::ReloadBlock(block.clone()))
            .map_err(lost)?;
    }
    core.rt
        .master
        .send_reliable(
            node,
            ColMsg::ReloadDone {
                blocks_total: core.blocks.len(),
            },
        )
        .map_err(lost)?;
    let wait = core.bulk_deadline();
    let acked = |m: &ColMsg| matches!(m, ColMsg::ReloadAck { worker } if *worker == w);
    if core.rt.await_reply(t, wait, acked)?.is_none() {
        return Err(TrainError::WorkerLost {
            worker: w,
            iteration: t,
            detail: "reload never acknowledged".to_string(),
        });
    }
    let after = core.rt.traffic.received_by(node);
    let bytes = after.bytes - before.bytes;
    let objects = after.messages - before.messages;
    Ok(bytes as f64 / core.net.bandwidth_bytes_per_s
        + objects as f64 * PER_OBJECT_S
        + core.net.latency_s)
}
