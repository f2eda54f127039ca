//! The elastic ColumnSGD master: dynamic worker membership, live shard
//! migration, and speculative backup execution.
//!
//! The static engine ([`crate::engine::ColumnSgdEngine`]) fixes the worker
//! set at construction; this engine decouples the *logical* partitioning
//! from the *physical* cluster. The feature space is split once into
//! `max_workers` logical column partitions, and a master-side
//! [`Membership`] state machine maps partitions onto whichever workers are
//! currently active:
//!
//! * **Join**: a registered-but-inactive worker slot is spawned and
//!   admitted; the planner levels primary load by migrating whole column
//!   shards to the joiner as metered [`ColMsg::ShardData`] traffic.
//! * **Leave** (graceful): the leaver's shards migrate away first, then it
//!   shuts down.
//! * **Crash**: scripted panics (or seeded chaos) kill the worker; the
//!   master only learns by *detection* (panic report, send failure, or
//!   deadline probe), then promotes surviving replicas or rebuilds lost
//!   shards from its block store.
//!
//! Every migration travels the ordinary data plane through the router —
//! never shared memory — so [`TrafficStats`] and telemetry `CommRecord`s
//! price migration by construction, and seeded wire chaos can hit a shard
//! transfer exactly like any other message (epoch-fenced installs keep
//! retries and stale deliveries safe).
//!
//! **Speculative backup execution**: when the online [`Monitor`]'s
//! sliding-window straggler alarm names a worker, the next superstep also
//! issues that worker's task to the backup holders of its partitions.
//! First result wins the superstep's simulated clock; the loser's reply is
//! logged as a telemetry fault record and dropped. Statistics are always
//! aggregated from a canonical (primary-first) cover, so speculation
//! changes *timing*, never the trained bits — two same-seed runs stay
//! bit-identical even though wall-clock race outcomes differ.
//!
//! Panic hygiene: this module is on the migration path and is covered by
//! the workspace `panic-hygiene` lint — faults surface as typed
//! [`TrainError`]s, never panics.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use columnsgd_cluster::telemetry::{FaultRecord, MetricsRegistry, RunStamp};
use columnsgd_cluster::wire::ENVELOPE_BYTES;
use columnsgd_cluster::{
    ClusterConfig, DiagnosticKind, Diagnostics, FailurePlan, Membership, MembershipError,
    MembershipEvent, Monitor, NetError, NetworkModel, NodeId, RebalancePlan, Recorder, ShardMove,
    ShardRole, SimClock, TrafficStats, TransportKind, WorkerState,
};
use columnsgd_data::block::Block;
use columnsgd_data::workset::split_block;
use columnsgd_data::{Dataset, Workset};
use columnsgd_ml::metrics::Curve;
use columnsgd_ml::spec::reduce_stats;
use columnsgd_ml::ParamSet;

use crate::config::ColumnSgdConfig;
use crate::error::{DetectionMethod, FaultKind, RecoveryEvent, TrainError};
use crate::master::{LoadReport, MasterCore, Probed, Superstep, PER_OBJECT_S};
use crate::msg::ColMsg;
use crate::worker::WorkerScript;

/// A scheduled membership transition, applied at the start of the named
/// iteration (between supersteps, when no task is in flight).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticEvent {
    /// Iteration at whose start the transition applies.
    pub iteration: u64,
    /// The worker slot concerned.
    pub worker: usize,
    /// What happens to it.
    pub action: ElasticAction,
}

/// The membership transitions an [`ElasticEvent`] can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticAction {
    /// Spawn and admit an inactive slot; shards migrate *to* it.
    Join,
    /// Gracefully drain an active worker; shards migrate *away* first.
    Leave,
    /// Kill the worker mid-superstep (a real scripted panic at the
    /// worker). The master is *not* told — it must detect the crash and
    /// re-plan reactively, exactly like an unscripted fault.
    Crash,
}

/// Scale policy hook: deterministic rules consuming the monitor's
/// straggler/skew gauges. Disabled by default — policy actions depend on
/// measured alarms, so seeded-determinism experiments leave this off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScalePolicy {
    /// After this many straggler/skew alarms against one worker, admit the
    /// lowest inactive spare (scale-up) and drain the flagged worker
    /// (scale-down) — a rolling replacement. `None` disables the hook.
    pub replace_flagged_after: Option<u64>,
}

/// Configuration of an elastic training run.
#[derive(Debug, Clone)]
pub struct ElasticConfig {
    /// The base training configuration. `backup_s` must be 0: replica
    /// placement is the membership layer's job here, not the static
    /// group scheme of §IV-B.
    pub base: ColumnSgdConfig,
    /// Registered worker slots — also the number of logical column
    /// partitions (repartitioning moves whole shards, never re-splits).
    pub max_workers: usize,
    /// Slots active from the start (`1..=max_workers`).
    pub initial_workers: usize,
    /// Keep one passive backup replica of every shard on a second worker
    /// (enables promotion-on-crash and speculative execution).
    pub replicate: bool,
    /// Launch duplicate tasks on backup holders when the straggler alarm
    /// names a worker (requires `replicate`).
    pub speculate: bool,
    /// Scripted membership transitions.
    pub schedule: Vec<ElasticEvent>,
    /// Gauge-driven scale hook.
    pub policy: ScalePolicy,
}

impl ElasticConfig {
    /// An elastic run over `max_workers` slots with `initial_workers`
    /// active, no replication, no speculation, empty schedule.
    pub fn new(base: ColumnSgdConfig, max_workers: usize, initial_workers: usize) -> Self {
        Self {
            base,
            max_workers,
            initial_workers,
            replicate: false,
            speculate: false,
            schedule: Vec::new(),
            policy: ScalePolicy::default(),
        }
    }

    /// Builder-style replication toggle.
    pub fn with_replication(mut self) -> Self {
        self.replicate = true;
        self
    }

    /// Builder-style speculation toggle (implies replication).
    pub fn with_speculation(mut self) -> Self {
        self.replicate = true;
        self.speculate = true;
        self
    }

    /// Builder-style schedule.
    pub fn with_schedule(mut self, schedule: Vec<ElasticEvent>) -> Self {
        self.schedule = schedule;
        self
    }
}

/// Result of an elastic training run: the static outcome fields plus the
/// membership audit trail and migration/speculation accounting.
#[derive(Debug, Clone)]
pub struct ElasticOutcome {
    /// Batch-loss convergence curve (iteration, simulated time, loss).
    pub curve: Curve,
    /// The simulated clock (per-iteration breakdown).
    pub clock: SimClock,
    /// Every fault the master detected and recovered from.
    pub recovery: Vec<RecoveryEvent>,
    /// The run's identity stamp.
    pub run: RunStamp,
    /// End-of-run diagnostics from the online monitor.
    pub diagnostics: Diagnostics,
    /// The membership transition log (joins, leaves, deaths, epochs).
    pub membership_log: Vec<MembershipEvent>,
    /// Shard migrations executed (moves, not drops).
    pub migrations: u64,
    /// Bytes of migration traffic, as metered on the wire.
    pub migration_bytes: u64,
    /// Speculative races won by a backup cover (primary was slower).
    pub speculative_wins: u64,
    /// Speculative duplicate replies dropped after losing the race.
    pub speculative_losses: u64,
}

impl ElasticOutcome {
    /// Mean per-iteration simulated time over the final `n` iterations.
    pub fn mean_iteration_s(&self, n: usize) -> f64 {
        self.clock.mean_iteration_s(n)
    }
}

/// One outstanding `ComputeStatsFor` task during a superstep's gather.
struct Task {
    worker: usize,
    pids: Vec<usize>,
    /// `Some(primary_worker)` for a speculative duplicate of that
    /// worker's task on a backup holder.
    duplicate_of: Option<usize>,
    reply: Option<TaskReply>,
    excused: bool,
}

struct TaskReply {
    partial: Vec<f64>,
    compute_s: f64,
    sample_s: f64,
}

/// The elastic ColumnSGD driver. The master plumbing it shares with the
/// static engine lives in the master core; this file keeps what dynamic
/// membership adds: the slot table, shard migration, and speculation.
pub struct ElasticEngine {
    cfg: ElasticConfig,
    core: MasterCore,
    membership: Membership,
    load_report: LoadReport,
    migrations: u64,
    migration_bytes: u64,
    spec_wins: u64,
    spec_losses: u64,
    /// Workers with a straggler alarm against them (sticky). Drives
    /// speculation — which affects timing only, never trained bits.
    armed: BTreeSet<usize>,
    /// Per-worker straggler/skew alarm counts consumed by the policy hook.
    alarm_counts: BTreeMap<usize, u64>,
    /// Monitor events already consumed by the policy scan.
    seen_events: usize,
}

impl ElasticEngine {
    /// Builds the elastic cluster in-process with telemetry off, runs the
    /// initial shard placement, and waits for every shard (and replica) to
    /// install.
    ///
    /// # Errors
    /// [`TrainError::InvalidPlan`] for impossible shapes (zero workers,
    /// `initial_workers > max_workers`, `backup_s != 0`, replication with
    /// one worker, bad failure plans) and [`TrainError::LoadFailed`] when
    /// the initial placement does not complete.
    ///
    /// # Panics
    /// Panics if the dataset is empty (a configuration bug).
    pub fn new(
        dataset: &Dataset,
        cfg: ElasticConfig,
        net: NetworkModel,
        plan: FailurePlan,
    ) -> Result<Self, TrainError> {
        Self::new_clustered(
            dataset,
            cfg,
            net,
            plan,
            Recorder::disabled(),
            &ClusterConfig::in_proc(),
        )
    }

    /// [`ElasticEngine::new`] with a telemetry [`Recorder`] attached and an
    /// explicit transport backend selection.
    ///
    /// The elastic runtime is in-process only for now. The shared worker
    /// host no longer stands in the way — a slot is started at its `Join`
    /// on either backend — but a `columnsgd-worker` process cannot yet be
    /// booted without partitions, and no workload or test exercises
    /// membership changes over sockets. Rejected loudly here rather than
    /// failing deep inside a scale event.
    ///
    /// # Errors
    /// [`TrainError::InvalidPlan`] when `cluster` selects the TCP
    /// backend; otherwise the [`ElasticEngine::new`] contract.
    ///
    /// # Panics
    /// Same contract as [`ElasticEngine::new`].
    pub fn new_clustered(
        dataset: &Dataset,
        cfg: ElasticConfig,
        net: NetworkModel,
        plan: FailurePlan,
        recorder: Recorder,
        cluster: &ClusterConfig,
    ) -> Result<Self, TrainError> {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        if cluster.transport != TransportKind::InProc {
            return Err(TrainError::InvalidPlan(format!(
                "the elastic engine requires the in-process transport \
                 (got `{}`): worker processes cannot join without \
                 partitions yet",
                cluster.transport
            )));
        }
        let queue = dataset.into_block_queue(cfg.base.block_size);
        let blocks: Vec<Block> = queue.iter().cloned().collect();
        let dim = dataset.dimension();
        let mut cfg = cfg;
        if cfg.base.backup_s != 0 {
            return Err(TrainError::InvalidPlan(
                "elastic mode owns replica placement; set backup_s = 0 and use \
                 ElasticConfig::replicate"
                    .to_string(),
            ));
        }
        if cfg.speculate && !cfg.replicate {
            return Err(TrainError::InvalidPlan(
                "speculation requires replication (a backup holder to race)".to_string(),
            ));
        }
        let membership = Membership::new(
            cfg.max_workers,
            cfg.max_workers,
            cfg.initial_workers,
            cfg.replicate,
        )
        .ok_or_else(|| {
            TrainError::InvalidPlan(format!(
                "impossible elastic shape: {} initial of {} slots (replicate: {})",
                cfg.initial_workers, cfg.max_workers, cfg.replicate
            ))
        })?;
        for ev in &cfg.schedule {
            if ev.worker >= cfg.max_workers {
                return Err(TrainError::InvalidPlan(format!(
                    "schedule names worker {} outside the {} slots",
                    ev.worker, cfg.max_workers
                )));
            }
        }
        let slots = cfg.max_workers;
        cfg.base = MasterCore::open_run(cfg.base, slots, &net, &plan, &blocks, &recorder)?;
        // A scheduled `Crash` is a real panic scripted into the worker —
        // the master detects it, it is never told.
        let scripts = (0..slots)
            .map(|w| {
                let mut script = WorkerScript::from_plan(&plan, w);
                let crashes = cfg
                    .schedule
                    .iter()
                    .filter(|ev| ev.worker == w && ev.action == ElasticAction::Crash);
                script.crashes.extend(crashes.map(|ev| ev.iteration));
                script
            })
            .collect();
        // A slot is a host slot that is started when its worker joins;
        // only the initial workers run from bring-up.
        let core = MasterCore::new(
            cfg.base,
            slots,
            net,
            plan,
            recorder,
            blocks,
            dim,
            cluster,
            scripts,
            true, // slots start empty; shards arrive by migration
            cfg.initial_workers,
        )?;
        let mut engine = Self {
            cfg,
            core,
            membership,
            load_report: LoadReport {
                objects: 0,
                bytes: 0,
                sim_time_s: 0.0,
            },
            migrations: 0,
            migration_bytes: 0,
            spec_wins: 0,
            spec_losses: 0,
            armed: BTreeSet::new(),
            alarm_counts: BTreeMap::new(),
            seen_events: 0,
        };
        engine.load_report = engine.load()?;
        // Chaos applies from here on: the initial placement models the
        // HDFS read, outside the paper's fault model.
        engine.core.master.router().arm_chaos();
        Ok(engine)
    }

    /// Fresh model parameters for partition `pid` — identical to what the
    /// static engine's workers initialize (same seed, same global index
    /// mapping), so elastic and static runs start from the same model.
    fn init_params_for(&self, pid: usize) -> ParamSet {
        let part = self.core.partitioner();
        let local_dim = part.local_dim(pid, self.core.dim);
        self.core
            .cfg
            .model
            .init_params(local_dim, self.core.cfg.seed, |slot| {
                part.global_index(pid, slot)
            })
    }

    /// Rebuilds partition `pid`'s worksets from the master's block store
    /// (the "HDFS" source), in block order.
    fn shard_worksets(&self, pid: usize) -> Vec<Workset> {
        let part = self.core.partitioner();
        self.core
            .blocks
            .iter()
            .map(|b| {
                let mut sets = split_block(b, &part);
                sets.swap_remove(pid)
            })
            .collect()
    }

    /// Initial shard placement: the master splits every block and ships
    /// each logical partition's shard (worksets + init parameters) to its
    /// primary — and, under replication, its backup — then barriers on the
    /// install acknowledgements.
    fn load(&mut self) -> Result<LoadReport, TrainError> {
        self.core.traffic.reset();
        self.core.recorder.clear_comm();
        let p = self.cfg.max_workers;
        let mut expected = 0usize;
        for pid in 0..p {
            let worksets = self.shard_worksets(pid);
            let params = self.init_params_for(pid);
            let primary = self.membership.primary_of(pid).ok_or_else(|| {
                TrainError::Internal(format!("partition {pid} has no primary at load"))
            })?;
            let mut targets = vec![primary];
            targets.extend(self.membership.backup_of(pid));
            for to in targets {
                self.core
                    .master
                    .send(
                        NodeId::Worker(to),
                        ColMsg::ShardData {
                            pid,
                            epoch: 0,
                            worksets: worksets.clone(),
                            params: params.clone(),
                        },
                    )
                    .map_err(|e| {
                        TrainError::LoadFailed(format!("shard {pid} dispatch to {to}: {e}"))
                    })?;
                expected += 1;
            }
        }
        // Absolute deadline, refreshed on every acknowledged install:
        // progress resets the clock, stray messages do not.
        let mut deadline = Instant::now() + self.core.bulk_deadline();
        let mut acks = 0usize;
        while acks < expected {
            let env = self.core.recv_next(deadline).map_err(|e| {
                TrainError::LoadFailed(format!(
                    "only {acks}/{expected} shard installs acknowledged: {e}"
                ))
            })?;
            match env.payload {
                ColMsg::ShardInstalled { epoch: 0, .. } => {
                    acks += 1;
                    deadline = Instant::now() + self.core.bulk_deadline();
                }
                other => {
                    eprintln!(
                        "master: dropping unexpected {} during placement",
                        other.name()
                    );
                }
            }
        }
        Ok(self.core.price_load())
    }

    /// Executes a rebalance plan: every move becomes metered `ShardData`
    /// traffic (peer-to-peer on a live source, master rebuild otherwise),
    /// then superseded copies are dropped. Returns the priced migration
    /// time (the traffic delta over the cluster's links).
    fn execute_plan(&mut self, t: u64, plan: &RebalancePlan) -> Result<f64, TrainError> {
        if plan.is_empty() {
            return Ok(0.0);
        }
        let before = self.core.traffic.total();
        for mv in &plan.moves {
            self.transfer_shard(t, *mv, plan.epoch)?;
        }
        for d in &plan.drops {
            // Best-effort: a leaver may already be gone; stale drops are
            // epoch-fenced at the worker.
            let _ = self.core.master.send_reliable(
                NodeId::Worker(d.on),
                ColMsg::DropShard {
                    pid: d.pid,
                    epoch: plan.epoch,
                },
            );
        }
        let after = self.core.traffic.total();
        let bytes = after.bytes - before.bytes;
        let objects = after.messages - before.messages;
        self.migrations += plan.moves.len() as u64;
        self.migration_bytes += bytes;
        Ok(bytes as f64 / self.core.net.bandwidth_bytes_per_s
            + objects as f64 * PER_OBJECT_S
            + self.core.net.latency_s)
    }

    /// Moves one shard copy to `mv.to`, trying sources in order: the
    /// planned source, any other live holder, then a master rebuild from
    /// the block store. Each attempt is awaited with the bulk deadline;
    /// chaos-dropped transfers time out and fall through to the next
    /// source (installs are epoch-fenced, so a late duplicate is safe).
    fn transfer_shard(&mut self, t: u64, mv: ShardMove, epoch: u64) -> Result<(), TrainError> {
        let mut sources: Vec<Option<usize>> = Vec::new();
        let push = |s: Option<usize>, sources: &mut Vec<Option<usize>>| {
            if !sources.contains(&s) {
                sources.push(s);
            }
        };
        push(mv.from, &mut sources);
        for holder in [
            self.membership.primary_of(mv.pid),
            self.membership.backup_of(mv.pid),
        ]
        .into_iter()
        .flatten()
        {
            if holder != mv.to {
                push(Some(holder), &mut sources);
            }
        }
        push(None, &mut sources);

        for source in sources {
            let sent = match source {
                Some(src) => self
                    .core
                    .master
                    .send_reliable(
                        NodeId::Worker(src),
                        ColMsg::ShardRequest {
                            pid: mv.pid,
                            epoch,
                            to: mv.to,
                        },
                    )
                    .is_ok(),
                None => {
                    // Master rebuild: the data comes back from the block
                    // store; with no live copy the parameters are lost and
                    // reset to init (the paper's §X crash semantics).
                    let worksets = self.shard_worksets(mv.pid);
                    let params = self.init_params_for(mv.pid);
                    self.core
                        .master
                        .send(
                            NodeId::Worker(mv.to),
                            ColMsg::ShardData {
                                pid: mv.pid,
                                epoch,
                                worksets,
                                params,
                            },
                        )
                        .is_ok()
                }
            };
            if !sent {
                continue;
            }
            if self.await_install(t, mv.pid, epoch, mv.to)? {
                return Ok(());
            }
        }
        Err(TrainError::WorkerLost {
            worker: mv.to,
            iteration: t,
            detail: format!(
                "shard {} ({}) migration to worker {} failed from every source",
                mv.pid, mv.role, mv.to
            ),
        })
    }

    /// Waits for `ShardInstalled {pid, epoch}` from `to`, buffering
    /// unrelated traffic. Returns `false` on timeout (caller falls back to
    /// the next source).
    fn await_install(
        &mut self,
        t: u64,
        pid: usize,
        epoch: u64,
        to: usize,
    ) -> Result<bool, TrainError> {
        let wait = self.core.bulk_deadline();
        let installed = |m: &ColMsg| {
            matches!(m, ColMsg::ShardInstalled { pid: p, epoch: e, worker }
                if (*p, *e, *worker) == (pid, epoch, to))
        };
        Ok(self.core.await_reply(t, wait, installed)?.is_some())
    }

    /// Maps a membership-transition error onto the training vocabulary.
    fn membership_err(t: u64, w: usize, e: MembershipError) -> TrainError {
        match e {
            MembershipError::LastWorker { .. } => TrainError::WorkerLost {
                worker: w,
                iteration: t,
                detail: "no other active worker can own its shards".to_string(),
            },
            other => TrainError::InvalidPlan(format!("membership: {other}")),
        }
    }

    /// Applies the scheduled membership transitions for iteration `t`.
    fn apply_schedule(&mut self, t: u64, charge: &mut f64) -> Result<(), TrainError> {
        let events: Vec<ElasticEvent> = self
            .cfg
            .schedule
            .iter()
            .copied()
            .filter(|ev| ev.iteration == t)
            .collect();
        for ev in events {
            match ev.action {
                ElasticAction::Join => *charge += self.admit_worker(t, ev.worker)?,
                ElasticAction::Leave => *charge += self.drain_worker(t, ev.worker)?,
                // Crashes are injected at the worker (script_for) and
                // handled purely by detection.
                ElasticAction::Crash => {}
            }
        }
        Ok(())
    }

    /// Starts and admits slot `w`, executing the planner's migrations.
    fn admit_worker(&mut self, t: u64, w: usize) -> Result<f64, TrainError> {
        let connect_wait = self.core.bulk_deadline();
        let started = self.core.host.start_all(w..w + 1, connect_wait);
        started.map_err(TrainError::Internal)?;
        let plan = self
            .membership
            .admit(w)
            .map_err(|e| Self::membership_err(t, w, e))?;
        self.execute_plan(t, &plan)
    }

    /// Drains worker `w` gracefully: migrations first, then shutdown.
    fn drain_worker(&mut self, t: u64, w: usize) -> Result<f64, TrainError> {
        let plan = self
            .membership
            .drain(w)
            .map_err(|e| Self::membership_err(t, w, e))?;
        let cost = self.execute_plan(t, &plan)?;
        let _ = self
            .core
            .master
            .send_reliable(NodeId::Worker(w), ColMsg::Shutdown);
        self.core.host.reap(w);
        Ok(cost)
    }

    /// Scans new monitor events, arming speculation and feeding the scale
    /// policy's per-worker alarm counters.
    fn consume_gauges(&mut self, t: u64, charge: &mut f64) -> Result<(), TrainError> {
        if !self.core.monitor.is_enabled() {
            return Ok(());
        }
        let events = self.core.monitor.events();
        for ev in &events[self.seen_events.min(events.len())..] {
            let (Some(worker), true) = (
                ev.worker,
                matches!(
                    ev.kind,
                    DiagnosticKind::StragglerAlarm | DiagnosticKind::PartitionSkew
                ),
            ) else {
                continue;
            };
            let w = worker as usize;
            if self.membership.state(w) != Some(WorkerState::Active) {
                continue;
            }
            if ev.kind == DiagnosticKind::StragglerAlarm && self.cfg.speculate {
                self.armed.insert(w);
            }
            *self.alarm_counts.entry(w).or_insert(0) += 1;
        }
        self.seen_events = events.len();

        if let Some(limit) = self.cfg.policy.replace_flagged_after {
            let flagged: Vec<usize> = self
                .alarm_counts
                .iter()
                .filter(|&(&w, &n)| {
                    n >= limit && self.membership.state(w) == Some(WorkerState::Active)
                })
                .map(|(&w, _)| w)
                .collect();
            for w in flagged {
                let Some(spare) = (0..self.cfg.max_workers)
                    .find(|&s| self.membership.state(s) == Some(WorkerState::Inactive))
                else {
                    break; // no capacity left to rotate onto
                };
                self.core.recorder.fault(FaultRecord {
                    iteration: t,
                    worker: w as u64,
                    fault: "policy scale".to_string(),
                    detection: "straggler/skew gauge".to_string(),
                    detection_latency_s: 0.0,
                    recovery_cost_s: 0.0,
                    attempt: 0,
                    fatal: false,
                });
                *charge += self.admit_worker(t, spare)?;
                *charge += self.drain_worker(t, w)?;
                self.alarm_counts.remove(&w);
                self.armed.remove(&w);
            }
        }
        Ok(())
    }

    /// Sends one task's `ComputeStatsFor`.
    fn send_task(&self, t: u64, task: &Task, attempts: &[u64]) -> Result<(), NetError> {
        self.core.master.send(
            NodeId::Worker(task.worker),
            ColMsg::ComputeStatsFor {
                iteration: t,
                batch_size: self.core.cfg.batch_size,
                attempt: attempts[task.worker],
                pids: task.pids.clone(),
            },
        )
    }

    /// Reactive crash handling: marks `w` dead, promotes or rebuilds its
    /// primaries *now* (the superstep needs them), defers replication
    /// repairs to after the update barrier, excuses its outstanding tasks,
    /// and re-issues the orphaned partitions to their new primaries.
    #[allow(clippy::too_many_arguments)] // iteration-local recovery state
    fn handle_dead_worker(
        &mut self,
        t: u64,
        w: usize,
        detection: DetectionMethod,
        tasks: &mut Vec<Task>,
        attempts: &mut [u64],
        issued: &Instant,
        recovery: &mut Vec<RecoveryEvent>,
        charge: &mut f64,
        deferred: &mut Vec<RebalancePlan>,
        reissue: bool,
    ) -> Result<(), TrainError> {
        if self.membership.state(w) != Some(WorkerState::Active) {
            return Ok(()); // stale evidence about an already-handled death
        }
        let plan = self
            .membership
            .mark_dead(w)
            .map_err(|e| Self::membership_err(t, w, e))?;
        self.core.host.reap(w);
        // Primary re-owning cannot wait (the superstep needs the shard);
        // replication repair can.
        let mut now = RebalancePlan {
            epoch: plan.epoch,
            ..RebalancePlan::default()
        };
        let mut later = RebalancePlan {
            epoch: plan.epoch,
            ..RebalancePlan::default()
        };
        for mv in plan.moves {
            if mv.role == ShardRole::Primary {
                now.moves.push(mv);
            } else {
                later.moves.push(mv);
            }
        }
        later.drops = plan.drops;
        let cost = self.execute_plan(t, &now)?;
        *charge += cost;
        deferred.push(later);

        let mut lost: Vec<usize> = Vec::new();
        for task in tasks
            .iter_mut()
            .filter(|task| task.worker == w && task.reply.is_none() && !task.excused)
        {
            task.excused = true;
            if task.duplicate_of.is_none() {
                lost.extend(task.pids.iter().copied());
            }
        }
        self.core.note_recovery(
            RecoveryEvent {
                iteration: t,
                worker: w,
                fault: FaultKind::WorkerFailure,
                detection,
                detection_latency_s: issued.elapsed().as_secs_f64(),
                recovery_cost_s: cost,
                attempt: attempts[w],
            },
            recovery,
        );
        attempts[w] += 1;
        self.armed.remove(&w);
        if !reissue {
            return Ok(());
        }
        // Re-issue the orphaned partitions to their new primaries: one
        // task per partition (the invariant task shape), attempts bumped
        // once per new owner so re-owning several shards does not burn
        // the retry budget.
        lost.sort_unstable();
        let mut by_owner: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for pid in lost {
            let np = self.membership.primary_of(pid).ok_or_else(|| {
                TrainError::Internal(format!("partition {pid} lost its primary after crash"))
            })?;
            by_owner.entry(np).or_default().push(pid);
        }
        for (np, pids) in by_owner {
            self.core.bump_attempts(t, np, attempts)?;
            for pid in pids {
                let task = Task {
                    worker: np,
                    pids: vec![pid],
                    duplicate_of: None,
                    reply: None,
                    excused: false,
                };
                if self.send_task(t, &task, attempts).is_err() {
                    // The new primary died too; the next loop round
                    // detects it.
                    eprintln!("master: re-issued task for worker {np} undeliverable");
                }
                tasks.push(task);
            }
        }
        Ok(())
    }

    /// Runs the elastic training loop.
    ///
    /// # Errors
    /// The static engine's contract ([`TrainError`]), plus
    /// [`TrainError::WorkerLost`] when the last active worker dies or a
    /// shard migration fails from every source.
    pub fn train(&mut self) -> Result<ElasticOutcome, TrainError> {
        let out = self.train_inner();
        if let Err(e) = &out {
            self.core.recorder.fault(e.to_fault_record());
        }
        out
    }

    #[allow(clippy::too_many_lines)] // the BSP superstep is one coherent unit
    fn train_inner(&mut self) -> Result<ElasticOutcome, TrainError> {
        let mut clock = SimClock::new();
        let mut curve = Curve::new("ColumnSGD-elastic");
        let mut recovery: Vec<RecoveryEvent> = Vec::new();
        let slots = self.cfg.max_workers;
        let width = self.core.cfg.model.stats_width();
        let stats_len = self.core.cfg.batch_size * width;
        let detect = self.core.deadline();

        for t in 0..self.core.cfg.iterations {
            let issued = Instant::now();
            let mut attempts = vec![0u64; slots];
            let mut charge = 0.0f64;
            let mut deferred: Vec<RebalancePlan> = Vec::new();

            // --- membership transitions + policy hooks ------------------
            self.apply_schedule(t, &mut charge)?;
            self.consume_gauges(t, &mut charge)?;

            // --- step 1: issue computeStatistics tasks ------------------
            // One task per partition, as Spark schedules one task per RDD
            // partition. Single-pid tasks also make bit-determinism
            // structural: every reply is exactly one partition's partial,
            // so the master's fold is always the per-pid sorted sum and
            // never depends on which worker happens to own which set of
            // partitions (a post-promotion multi-pid task would pre-sum
            // its partitions worker-side, changing the float pairing).
            let active = self.membership.active();
            let mut tasks: Vec<Task> = Vec::new();
            for &w in &active {
                let pids = self.membership.primaries_of(w);
                if pids.is_empty() {
                    return Err(TrainError::Internal(format!(
                        "active worker {w} owns no partition at iteration {t}"
                    )));
                }
                for pid in pids {
                    tasks.push(Task {
                        worker: w,
                        pids: vec![pid],
                        duplicate_of: None,
                        reply: None,
                        excused: false,
                    });
                }
            }
            if self.cfg.speculate {
                // Duplicate each armed worker's partitions onto their
                // backup holders, one speculative task per partition.
                for &v in &self.armed {
                    if self.membership.state(v) != Some(WorkerState::Active) {
                        continue;
                    }
                    for pid in self.membership.primaries_of(v) {
                        if let Some(b) = self.membership.backup_of(pid) {
                            tasks.push(Task {
                                worker: b,
                                pids: vec![pid],
                                duplicate_of: Some(v),
                                reply: None,
                                excused: false,
                            });
                        }
                    }
                }
            }
            let mut i = 0;
            while i < tasks.len() {
                if self.send_task(t, &tasks[i], &attempts).is_err() {
                    let w = tasks[i].worker;
                    self.handle_dead_worker(
                        t,
                        w,
                        DetectionMethod::SendFailure,
                        &mut tasks,
                        &mut attempts,
                        &issued,
                        &mut recovery,
                        &mut charge,
                        &mut deferred,
                        true,
                    )?;
                }
                i += 1;
            }

            // --- step 2: gather -----------------------------------------
            // Absolute detection deadline: reset on progress (a matched
            // reply, a handled failure or panic, a completed recovery
            // round), never on stray traffic. Wall-clock across the whole
            // barrier is kept as the *measured* gather time.
            let gather_started = Instant::now();
            let mut wait_until = gather_started + detect;
            while tasks
                .iter()
                .any(|task| !task.excused && task.reply.is_none())
            {
                match self.core.recv_next(wait_until) {
                    Ok(env) => match env.payload {
                        ColMsg::StatsReplyFor {
                            iteration,
                            worker,
                            pids,
                            partial,
                            compute_s,
                            sample_s,
                            task_failed,
                        } if iteration == t => {
                            if task_failed {
                                // The failure reply cannot name its task;
                                // retry the worker's first outstanding one.
                                let Some(task) = tasks.iter().find(|task| {
                                    task.worker == worker && task.reply.is_none() && !task.excused
                                }) else {
                                    continue;
                                };
                                wait_until = Instant::now() + detect;
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
                                if self.send_task(t, task, &attempts).is_err() {
                                    self.handle_dead_worker(
                                        t,
                                        worker,
                                        DetectionMethod::SendFailure,
                                        &mut tasks,
                                        &mut attempts,
                                        &issued,
                                        &mut recovery,
                                        &mut charge,
                                        &mut deferred,
                                        true,
                                    )?;
                                }
                                continue;
                            }
                            let slot = tasks.iter().position(|task| {
                                task.worker == worker
                                    && task.reply.is_none()
                                    && !task.excused
                                    && task.pids == pids
                            });
                            match slot {
                                Some(idx) => {
                                    wait_until = Instant::now() + detect;
                                    tasks[idx].reply = Some(TaskReply {
                                        partial,
                                        compute_s,
                                        sample_s,
                                    });
                                }
                                None => {
                                    // A duplicate (chaos) or a partial cover
                                    // from a raced migration: drop; the
                                    // deadline path re-drives if needed.
                                    eprintln!(
                                        "master: dropping unmatched StatsReplyFor from \
                                         worker {worker} ({} pids) at t={t}",
                                        pids.len()
                                    );
                                }
                            }
                        }
                        ColMsg::StatsReplyFor { .. } => {} // stale iteration
                        ColMsg::WorkerPanic { worker, .. } => {
                            wait_until = Instant::now() + detect;
                            self.handle_dead_worker(
                                t,
                                worker,
                                DetectionMethod::PanicReport,
                                &mut tasks,
                                &mut attempts,
                                &issued,
                                &mut recovery,
                                &mut charge,
                                &mut deferred,
                                true,
                            )?;
                        }
                        ColMsg::ProbeAck { .. }
                        | ColMsg::UpdateAck { .. }
                        | ColMsg::ShardInstalled { .. } => {}
                        // Worker-bound commands echoed back (chaos, a
                        // misrouted frame) or stale loading-phase acks:
                        // noise on the master's mailbox. Named explicitly
                        // — this arm is the master side's decision record
                        // for every ColMsg variant it does not service,
                        // and protocol-conformance holds it to that.
                        other @ (ColMsg::LoadBlock(..)
                        | ColMsg::ReloadBlock(..)
                        | ColMsg::Workset { .. }
                        | ColMsg::LoadDone { .. }
                        | ColMsg::ReloadDone { .. }
                        | ColMsg::LoadAck { .. }
                        | ColMsg::ReloadAck { .. }
                        | ColMsg::ComputeStats { .. }
                        | ColMsg::ComputeStatsFor { .. }
                        | ColMsg::StatsReply { .. }
                        | ColMsg::Update { .. }
                        | ColMsg::InstallParams { .. }
                        | ColMsg::Probe { .. }
                        | ColMsg::ModelReply { .. }
                        | ColMsg::Die
                        | ColMsg::FetchModel
                        | ColMsg::Shutdown
                        | ColMsg::ShardRequest { .. }
                        | ColMsg::ShardData { .. }
                        | ColMsg::DropShard { .. }) => {
                            eprintln!("master: dropping unexpected {} during gather", other.name());
                        }
                    },
                    Err(NetError::Timeout) => {
                        charge += detect.as_secs_f64();
                        let silent: Vec<usize> = tasks
                            .iter()
                            .filter(|task| !task.excused && task.reply.is_none())
                            .map(|task| task.worker)
                            .collect();
                        for w in silent {
                            if self.core.pending_has_evidence(t, w) {
                                continue;
                            }
                            match self.core.probe_worker(t, w)? {
                                Probed::Deferred => {}
                                Probed::Alive { loaded: true } => {
                                    self.core.note_recovery(
                                        RecoveryEvent {
                                            iteration: t,
                                            worker: w,
                                            fault: FaultKind::TaskFailure,
                                            detection: DetectionMethod::Timeout,
                                            detection_latency_s: issued.elapsed().as_secs_f64(),
                                            recovery_cost_s: 0.0,
                                            attempt: attempts[w],
                                        },
                                        &mut recovery,
                                    );
                                    self.core.bump_attempts(t, w, &mut attempts)?;
                                    for task in &tasks {
                                        if task.worker == w
                                            && task.reply.is_none()
                                            && !task.excused
                                            && self.send_task(t, task, &attempts).is_err()
                                        {
                                            break; // dead after all; next round
                                        }
                                    }
                                }
                                Probed::Alive { loaded: false } | Probed::Dead => {
                                    self.handle_dead_worker(
                                        t,
                                        w,
                                        DetectionMethod::Timeout,
                                        &mut tasks,
                                        &mut attempts,
                                        &issued,
                                        &mut recovery,
                                        &mut charge,
                                        &mut deferred,
                                        true,
                                    )?;
                                }
                            }
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

            // --- straggler injection (§V-C) -----------------------------
            let straggler = self.core.plan.straggler.map(|s| {
                let v = s.pick(t, slots);
                for task in tasks.iter_mut().filter(|task| task.worker == v) {
                    if let Some(r) = &mut task.reply {
                        r.compute_s += (s.factor() - 1.0)
                            * (r.compute_s + self.core.net.scheduling_overhead_s);
                    }
                }
                (v, s.factor())
            });

            // --- speculation race + canonical aggregation ---------------
            // Statistics always come from the primary cover (bit-stable
            // across runs); the race decides only the charged time. Tasks
            // serialize on a worker's lane, so per-worker time is the sum
            // of its tasks and the phase is the slowest lane.
            let mut lanes = vec![0.0f64; slots];
            let mut primary_count = vec![0usize; slots];
            let mut covered_count = vec![0usize; slots];
            let mut order: Vec<usize> = (0..tasks.len())
                .filter(|&i| tasks[i].duplicate_of.is_none() && tasks[i].reply.is_some())
                .collect();
            order.sort_by_key(|&i| tasks[i].pids.clone());
            let mut counted = 0usize;
            let mut reply_bytes: Vec<u64> = Vec::new();
            let mut agg = vec![0.0f64; stats_len];
            for &i in &order {
                let worker = tasks[i].worker;
                primary_count[worker] += 1;
                let dup_idx: Vec<usize> = (0..tasks.len())
                    .filter(|&j| {
                        tasks[j].duplicate_of == Some(worker)
                            && tasks[j].pids == tasks[i].pids
                            && tasks[j].reply.is_some()
                    })
                    .collect();
                let full_cover = !dup_idx.is_empty();
                let primary_s = tasks[i].reply.as_ref().map(|r| r.compute_s).unwrap_or(0.0);
                let mut charged = primary_s;
                if full_cover {
                    let cover_s = dup_idx
                        .iter()
                        .filter_map(|&j| tasks[j].reply.as_ref().map(|r| r.compute_s))
                        .fold(0.0f64, f64::max);
                    covered_count[worker] += 1;
                    if cover_s < primary_s {
                        // The backups won: the primary's reply is the
                        // loser — logged, and only its time is dropped.
                        self.spec_wins += 1;
                        self.core.recorder.fault(FaultRecord {
                            iteration: t,
                            worker: worker as u64,
                            fault: "speculation win".to_string(),
                            detection: "straggler alarm".to_string(),
                            detection_latency_s: 0.0,
                            recovery_cost_s: primary_s - cover_s,
                            attempt: 0,
                            fatal: false,
                        });
                        charged = cover_s;
                    } else {
                        for &j in &dup_idx {
                            self.spec_losses += 1;
                            self.core.recorder.fault(FaultRecord {
                                iteration: t,
                                worker: tasks[j].worker as u64,
                                fault: "speculation loss".to_string(),
                                detection: "duplicate dropped".to_string(),
                                detection_latency_s: 0.0,
                                recovery_cost_s: 0.0,
                                attempt: 0,
                                fatal: false,
                            });
                        }
                    }
                }
                lanes[worker] += charged;
                if let Some(r) = &tasks[i].reply {
                    reduce_stats(&mut agg, &r.partial);
                    counted += 1;
                    reply_bytes.push(
                        (ColMsg::stats_reply_for_wire_size(tasks[i].pids.len(), stats_len)
                            + ENVELOPE_BYTES) as u64,
                    );
                }
            }
            // Speculative replies transited the wire too; price them. The
            // duplicate's *compute* overlaps the backup's own task on an
            // idle pool slot (Spark launches speculative copies only where
            // free slots exist), so it does not extend the backup's lane —
            // the race outcome above already decided the charged time for
            // the straggler's partitions.
            for task in tasks
                .iter()
                .filter(|task| task.duplicate_of.is_some() && task.reply.is_some())
            {
                reply_bytes.push(
                    (ColMsg::stats_reply_for_wire_size(task.pids.len(), stats_len) + ENVELOPE_BYTES)
                        as u64,
                );
            }
            let stat_phase = lanes.iter().copied().fold(0.0, f64::max);
            // A worker raced only if a warm replica covered *every* one
            // of its partitions this superstep.
            let raced: BTreeSet<usize> = (0..slots)
                .filter(|&w| primary_count[w] > 0 && covered_count[w] == primary_count[w])
                .collect();

            // --- step 3: broadcast + updateModel ------------------------
            let updaters = self.membership.active();
            let mut sent_update = vec![false; slots];
            for &w in &updaters {
                let msg = ColMsg::Update {
                    iteration: t,
                    stats: agg.clone(),
                };
                if self.core.master.send(NodeId::Worker(w), msg).is_ok() {
                    sent_update[w] = true;
                } else {
                    self.handle_dead_worker(
                        t,
                        w,
                        DetectionMethod::SendFailure,
                        &mut tasks,
                        &mut attempts,
                        &issued,
                        &mut recovery,
                        &mut charge,
                        &mut deferred,
                        false,
                    )?;
                }
            }
            let mut update_times = vec![0.0f64; slots];
            let mut acked = vec![false; slots];
            let outstanding = |acked: &[bool], sent: &[bool], m: &Membership| {
                (0..slots).any(|w| sent[w] && !acked[w] && m.state(w) == Some(WorkerState::Active))
            };
            let bcast_started = Instant::now();
            let mut wait_until = bcast_started + detect;
            while outstanding(&acked, &sent_update, &self.membership) {
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
                                wait_until = Instant::now() + detect;
                            }
                        }
                        ColMsg::UpdateAck { .. }
                        | ColMsg::StatsReplyFor { .. }
                        | ColMsg::ProbeAck { .. }
                        | ColMsg::ShardInstalled { .. } => {}
                        ColMsg::WorkerPanic { worker, .. } => {
                            wait_until = Instant::now() + detect;
                            self.handle_dead_worker(
                                t,
                                worker,
                                DetectionMethod::PanicReport,
                                &mut tasks,
                                &mut attempts,
                                &issued,
                                &mut recovery,
                                &mut charge,
                                &mut deferred,
                                false,
                            )?;
                        }
                        other => {
                            eprintln!("master: dropping unexpected {} during update", other.name());
                        }
                    },
                    Err(NetError::Timeout) => {
                        charge += detect.as_secs_f64();
                        let silent: Vec<usize> = (0..slots)
                            .filter(|&w| {
                                sent_update[w]
                                    && !acked[w]
                                    && self.membership.state(w) == Some(WorkerState::Active)
                            })
                            .collect();
                        for w in silent {
                            if self.core.pending_has_evidence(t, w) {
                                continue;
                            }
                            match self.core.probe_worker(t, w)? {
                                Probed::Deferred => {}
                                Probed::Alive { loaded: true } => {
                                    self.core.note_recovery(
                                        RecoveryEvent {
                                            iteration: t,
                                            worker: w,
                                            fault: FaultKind::TaskFailure,
                                            detection: DetectionMethod::Timeout,
                                            detection_latency_s: issued.elapsed().as_secs_f64(),
                                            recovery_cost_s: 0.0,
                                            attempt: attempts[w],
                                        },
                                        &mut recovery,
                                    );
                                    self.core.bump_attempts(t, w, &mut attempts)?;
                                    // The worker holds iteration t's batch;
                                    // re-sending the broadcast suffices (an
                                    // already-applied update re-acks).
                                    let _ = self.core.master.send(
                                        NodeId::Worker(w),
                                        ColMsg::Update {
                                            iteration: t,
                                            stats: agg.clone(),
                                        },
                                    );
                                }
                                Probed::Alive { loaded: false } | Probed::Dead => {
                                    self.handle_dead_worker(
                                        t,
                                        w,
                                        DetectionMethod::Timeout,
                                        &mut tasks,
                                        &mut attempts,
                                        &issued,
                                        &mut recovery,
                                        &mut charge,
                                        &mut deferred,
                                        false,
                                    )?;
                                }
                            }
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
            if let Some((v, f)) = straggler {
                if raced.contains(&v) {
                    // A warm replica holds the same partitions and applied
                    // the same update; the straggler's own apply overlaps
                    // with the next superstep (the §IV-B convention).
                    update_times[v] = 0.0;
                } else {
                    update_times[v] *= f;
                }
            }
            let upd_phase = update_times.iter().copied().fold(0.0, f64::max);

            // --- deferred replication repairs ---------------------------
            for plan in std::mem::take(&mut deferred) {
                charge += self.execute_plan(t, &plan)?;
            }

            // --- pricing ------------------------------------------------
            let bcast_bytes = (ColMsg::update_wire_size(stats_len) + ENVELOPE_BYTES) as u64;
            let gather_s = self.core.net.gather_time(&reply_bytes);
            let bcast_s = self
                .core
                .net
                .broadcast_time(bcast_bytes, self.membership.active().len());
            // --- telemetry + monitor ------------------------------------
            let mut compute_times = vec![0.0f64; slots];
            let mut sample_times = vec![0.0f64; slots];
            for task in tasks.iter() {
                if let Some(r) = &task.reply {
                    // Primary tasks serialize on the worker's lane:
                    // compute adds up, while the batch is sampled once and
                    // cached, so only the first task pays (the rest report
                    // ~0). Speculative duplicates overlap on idle pool
                    // slots and are excluded — charging them here would
                    // make the backup look like a straggler to the monitor
                    // and cascade the arming.
                    if task.duplicate_of.is_none() {
                        compute_times[task.worker] += r.compute_s;
                    }
                    sample_times[task.worker] = sample_times[task.worker].max(r.sample_s);
                }
            }
            let observed = self.monitor_view(&compute_times);
            self.core.finish_superstep(
                &Superstep {
                    t,
                    sample_times: &sample_times,
                    compute_times: &compute_times,
                    observed: &observed,
                    stat_phase,
                    gather: (gather_s, gather_wall),
                    bcast: (bcast_s, bcast_wall),
                    update_times: &update_times,
                    upd_phase,
                    charge,
                    counted,
                    agg: &agg,
                },
                &mut clock,
                &mut curve,
            )?;
        }
        self.core.finish_train()?;

        Ok(ElasticOutcome {
            curve,
            clock,
            recovery,
            run: self.run_stamp(),
            diagnostics: self.core.monitor.report(),
            membership_log: self.membership.log().to_vec(),
            migrations: self.migrations,
            migration_bytes: self.migration_bytes,
            speculative_wins: self.spec_wins,
            speculative_losses: self.spec_losses,
        })
    }

    /// The per-slot compute times as the monitor should see them: inactive
    /// slots observe the active median, so the sliding-window median is
    /// not dragged toward zero by empty slots (which would alarm on
    /// everything).
    fn monitor_view(&self, compute_times: &[f64]) -> Vec<f64> {
        let mut actives: Vec<f64> = self
            .membership
            .active()
            .iter()
            .map(|&w| compute_times[w])
            .collect();
        actives.sort_by(f64::total_cmp);
        let median = actives.get(actives.len() / 2).copied().unwrap_or(0.0);
        let mut view = compute_times.to_vec();
        for (w, slot) in view.iter_mut().enumerate() {
            if self.membership.state(w) != Some(WorkerState::Active) {
                *slot = median;
            }
        }
        view
    }

    /// The run's identity stamp (`workers` counts registered slots).
    pub fn run_stamp(&self) -> RunStamp {
        self.core.run_stamp()
    }

    /// The attached telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.core.recorder
    }

    /// Attaches an online diagnostics [`Monitor`]; its straggler alarm is
    /// also what arms speculative backup execution.
    pub fn attach_monitor(&mut self, monitor: Monitor) {
        self.core.monitor = monitor;
    }

    /// The attached diagnostics monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.core.monitor
    }

    /// Attaches a [`MetricsRegistry`], fed once per superstep (see
    /// [`crate::ColumnSgdEngine::attach_metrics`]; per-worker gauges are
    /// per slot, idle slots reading 0).
    pub fn attach_metrics(&mut self, metrics: MetricsRegistry) {
        self.core.attach_metrics(metrics);
    }

    /// The shared traffic meter.
    pub fn traffic(&self) -> &TrafficStats {
        &self.core.traffic
    }

    /// The initial-placement cost report.
    pub fn load_report(&self) -> LoadReport {
        self.load_report
    }

    /// The membership state machine (read-only).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// The model dimension m.
    pub fn dim(&self) -> u64 {
        self.core.dim
    }

    /// Fetches every live shard copy as `(worker, pid, params)` — the
    /// replica-consistency audit surface: after a clean run, all copies of
    /// a partition must be bit-identical.
    ///
    /// # Errors
    /// [`TrainError::Network`] when an active worker cannot answer within
    /// the bulk deadline.
    pub fn collect_replicas(&mut self) -> Result<Vec<(usize, usize, ParamSet)>, TrainError> {
        let mut copies: Vec<(usize, usize, ParamSet)> = self
            .core
            .fetch_models(&self.membership.active())?
            .into_iter()
            .flat_map(|(w, parts)| parts.into_iter().map(move |(pid, local)| (w, pid, local)))
            .collect();
        copies.sort_by_key(|&(w, pid, _)| (pid, w));
        Ok(copies)
    }

    /// Gathers every partition from the active workers and reassembles
    /// the full model (inspection path; reliable plane).
    ///
    /// # Errors
    /// [`TrainError::Network`] when an active worker cannot answer within
    /// the bulk deadline.
    pub fn collect_model(&mut self) -> Result<ParamSet, TrainError> {
        self.core.collect_model(&self.membership.active())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use columnsgd_data::synth;
    use columnsgd_ml::ModelSpec;

    use super::*;

    /// Regression: the gather used to hand `recv_next` a per-call budget,
    /// so every received message — however irrelevant — restarted the full
    /// detection window. A trickle of stray `ProbeAck`s arriving faster
    /// than `deadline_ms` then kept a silently dead worker undetected for
    /// as long as the trickle lasted. With the absolute deadline, stray
    /// traffic cannot postpone the probe.
    #[test]
    fn stray_traffic_cannot_postpone_crash_detection() {
        const DEADLINE_MS: u64 = 200;
        let ds = synth::small_test_dataset(200, 40, 7);
        let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
            .with_batch_size(32)
            .with_iterations(2)
            .with_seed(3)
            .with_deadline_ms(DEADLINE_MS);
        let mut engine = ElasticEngine::new(
            &ds,
            ElasticConfig::new(cfg, 3, 3).with_replication(),
            NetworkModel::INSTANT,
            FailurePlan::none(),
        )
        .expect("elastic engine");

        // Kill worker 1 *silently*: swapping its mailbox disconnects the
        // running thread (it exits without a panic report) while the held
        // replacement keeps accepting sends that nobody will ever answer.
        let router = engine.core.master.router().clone();
        let _black_hole = router.reregister(NodeId::Worker(1), 0);

        // Stray control answers, four per detection window, for 20 windows
        // or until training returns.
        let stop = Arc::new(AtomicBool::new(false));
        let trickle = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for _ in 0..80 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let _ = router.send_unmetered(
                        NodeId::Worker(0),
                        NodeId::Master,
                        ColMsg::ProbeAck {
                            worker: 0,
                            iteration: u64::MAX,
                            loaded: true,
                        },
                    );
                    std::thread::sleep(Duration::from_millis(DEADLINE_MS / 4));
                }
            })
        };
        let out = engine.train();
        stop.store(true, Ordering::Relaxed);
        trickle.join().expect("trickle thread");

        let out = out.expect("the warm replica takes over");
        let ev = out
            .recovery
            .iter()
            .find(|ev| ev.worker == 1)
            .expect("worker 1's death must be detected");
        assert_eq!(ev.detection, DetectionMethod::Timeout);
        // One gather window plus one probe window, with slack — nowhere
        // near the 20 windows the trickle would otherwise have bought.
        let bound = 5.0 * DEADLINE_MS as f64 / 1000.0;
        assert!(
            ev.detection_latency_s < bound,
            "detection took {:.3}s (bound {bound}s): stray traffic postponed it",
            ev.detection_latency_s
        );
    }
}
