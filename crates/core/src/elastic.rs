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

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use columnsgd_cluster::telemetry::{FaultRecord, MetricsRegistry, RunStamp};
use columnsgd_cluster::wire::ENVELOPE_BYTES;
use columnsgd_cluster::{
    ClusterConfig, DiagnosticKind, Diagnostics, FailurePlan, Membership, MembershipError,
    MembershipEvent, Monitor, NetworkModel, NodeId, RebalancePlan, Recorder, ShardMove, ShardRole,
    SimClock, TrafficStats, TransportKind, WorkerState,
};
use columnsgd_data::block::Block;
use columnsgd_data::workset::split_block;
use columnsgd_data::{Dataset, Workset};
use columnsgd_ml::metrics::Curve;
use columnsgd_ml::spec::reduce_stats;
use columnsgd_ml::ParamSet;

use crate::config::ColumnSgdConfig;
use crate::error::{FaultKind, RecoveryEvent, TrainError};
use crate::master::{
    LoadReport, Lost, MasterCore, Placement, Reduced, Step, Straggler, Task, TaskReply,
    PER_OBJECT_S,
};
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

/// The elastic ColumnSGD driver: the master core plus the elastic
/// placement policy it trains over.
pub struct ElasticEngine {
    core: MasterCore,
    load_report: LoadReport,
    placement: ElasticPlacement,
}

/// What dynamic membership adds to the shared superstep loop: the slot
/// table, shard migration, speculation and the scale policy.
struct ElasticPlacement {
    cfg: ElasticConfig,
    membership: Membership,
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
    /// Replication repairs of this superstep's crashes, run after the
    /// update barrier (primary re-owning cannot wait; replication can).
    deferred: Vec<RebalancePlan>,
    /// Workers whose every partition was covered by a warm replica's
    /// speculative reply this superstep.
    raced: BTreeSet<usize>,
}
impl ElasticEngine {
    /// Builds the elastic cluster in-process with telemetry off, runs the
    /// initial shard placement, and waits for every shard (and replica) to
    /// install.
    ///
    /// # Errors
    /// [`TrainError::InvalidPlan`] for impossible shapes (zero workers,
    /// `initial_workers > max_workers`, `backup_s != 0`, replication with
    /// one worker, bad failure plans) and [`TrainError::LoadFailed`] for an
    /// empty dataset or when the initial placement does not complete.
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
    pub fn new_clustered(
        dataset: &Dataset,
        cfg: ElasticConfig,
        net: NetworkModel,
        plan: FailurePlan,
        recorder: Recorder,
        cluster: &ClusterConfig,
    ) -> Result<Self, TrainError> {
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
        let mut core = MasterCore::new(
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
        let mut placement = ElasticPlacement {
            cfg,
            membership,
            migrations: 0,
            migration_bytes: 0,
            spec_wins: 0,
            spec_losses: 0,
            armed: BTreeSet::new(),
            alarm_counts: BTreeMap::new(),
            seen_events: 0,
            deferred: Vec::new(),
            raced: BTreeSet::new(),
        };
        let load_report = placement.load(&mut core)?;
        // Chaos applies from here on: the initial placement models the
        // HDFS read, outside the paper's fault model.
        core.rt.master.router().arm_chaos();
        Ok(Self {
            core,
            load_report,
            placement,
        })
    }

    /// Runs the elastic training loop.
    ///
    /// # Errors
    /// The static engine's contract ([`TrainError`]), plus
    /// [`TrainError::WorkerLost`] when the last active worker dies or a
    /// shard migration fails from every source.
    pub fn train(&mut self) -> Result<ElasticOutcome, TrainError> {
        let out = self.core.train(&mut self.placement)?;
        let p = &self.placement;
        Ok(ElasticOutcome {
            curve: out.curve,
            clock: out.clock,
            recovery: out.recovery,
            run: out.run,
            diagnostics: out.diagnostics,
            membership_log: p.membership.log().to_vec(),
            migrations: p.migrations,
            migration_bytes: p.migration_bytes,
            speculative_wins: p.spec_wins,
            speculative_losses: p.spec_losses,
        })
    }

    /// The run's identity stamp (`workers` counts registered slots).
    pub fn run_stamp(&self) -> RunStamp {
        self.core.run_stamp()
    }

    /// The attached telemetry recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.core.rt.recorder
    }

    /// Attaches an online diagnostics [`Monitor`]; its straggler alarm is
    /// also what arms speculative backup execution.
    pub fn attach_monitor(&mut self, monitor: Monitor) {
        self.core.rt.monitor = monitor;
    }

    /// The attached diagnostics monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.core.rt.monitor
    }

    /// Attaches a [`MetricsRegistry`], fed once per superstep (see
    /// [`crate::ColumnSgdEngine::attach_metrics`]; per-worker gauges are
    /// per slot, idle slots reading 0).
    pub fn attach_metrics(&mut self, metrics: MetricsRegistry) {
        self.core.rt.attach_metrics(metrics);
    }

    /// The shared traffic meter.
    pub fn traffic(&self) -> &TrafficStats {
        &self.core.rt.traffic
    }

    /// The initial-placement cost report.
    pub fn load_report(&self) -> LoadReport {
        self.load_report
    }

    /// The membership state machine (read-only).
    pub fn membership(&self) -> &Membership {
        &self.placement.membership
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
            .fetch_models(&self.placement.membership.active())?
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
        self.core.collect_model(&self.placement.membership.active())
    }
}

/// Fresh model parameters for partition `pid` — identical to what the
/// static engine's workers initialize (same seed, same global index
/// mapping), so elastic and static runs start from the same model.
fn init_params_for(core: &MasterCore, pid: usize) -> ParamSet {
    let part = core.partitioner();
    let local_dim = part.local_dim(pid, core.dim);
    core.cfg
        .model
        .init_params(local_dim, core.cfg.seed, |slot| {
            part.global_index(pid, slot)
        })
}

/// Rebuilds partition `pid`'s worksets from the master's block store
/// (the "HDFS" source), in block order.
fn shard_worksets(core: &MasterCore, pid: usize) -> Vec<Workset> {
    let part = core.partitioner();
    core.blocks
        .iter()
        .map(|b| {
            let mut sets = split_block(b, &part);
            sets.swap_remove(pid)
        })
        .collect()
}

/// Waits for `ShardInstalled {pid, epoch}` from `to`, buffering
/// unrelated traffic. Returns `false` on timeout (caller falls back to
/// the next source).
fn await_install(
    core: &mut MasterCore,
    t: u64,
    pid: usize,
    epoch: u64,
    to: usize,
) -> Result<bool, TrainError> {
    let wait = core.bulk_deadline();
    let installed = |m: &ColMsg| {
        matches!(m, ColMsg::ShardInstalled { pid: p, epoch: e, worker }
            if (*p, *e, *worker) == (pid, epoch, to))
    };
    Ok(core.rt.await_reply(t, wait, installed)?.is_some())
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

impl ElasticPlacement {
    /// Initial shard placement: the master splits every block and ships
    /// each logical partition's shard (worksets + init parameters) to its
    /// primary — and, under replication, its backup — then barriers on the
    /// install acknowledgements.
    fn load(&mut self, core: &mut MasterCore) -> Result<LoadReport, TrainError> {
        core.rt.traffic.reset();
        core.rt.recorder.clear_comm();
        let p = self.cfg.max_workers;
        // One ack slot per shard copy shipped: `(pid, worker)`.
        let mut installs = Vec::new();
        for pid in 0..p {
            let worksets = shard_worksets(core, pid);
            let params = init_params_for(core, pid);
            let primary = self.membership.primary_of(pid).ok_or_else(|| {
                TrainError::Internal(format!("partition {pid} has no primary at load"))
            })?;
            let mut targets = vec![primary];
            targets.extend(self.membership.backup_of(pid));
            for to in targets {
                core.rt
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
                installs.push((pid, to));
            }
        }
        // Only the epoch-0 placement is in flight until this barrier closes.
        let slot = |pid, worker| installs.iter().position(|&i| i == (pid, worker));
        core.await_acks(
            installs.len(),
            "shard installs acknowledged",
            |msg| match msg {
                ColMsg::ShardInstalled { pid, worker, .. } => Some((slot(pid, worker)?, ())),
                _ => None,
            },
        )?;
        Ok(core.price_load())
    }

    /// Executes a rebalance plan: every move becomes metered `ShardData`
    /// traffic (peer-to-peer on a live source, master rebuild otherwise),
    /// then superseded copies are dropped. Returns the priced migration
    /// time (the traffic delta over the cluster's links).
    fn execute_plan(
        &mut self,
        core: &mut MasterCore,
        t: u64,
        plan: &RebalancePlan,
    ) -> Result<f64, TrainError> {
        if plan.is_empty() {
            return Ok(0.0);
        }
        let before = core.rt.traffic.total();
        for mv in &plan.moves {
            self.transfer_shard(core, t, *mv, plan.epoch)?;
        }
        for d in &plan.drops {
            // Best-effort: a leaver may already be gone; stale drops are
            // epoch-fenced at the worker.
            let _ = core.rt.master.send_reliable(
                NodeId::Worker(d.on),
                ColMsg::DropShard {
                    pid: d.pid,
                    epoch: plan.epoch,
                },
            );
        }
        let after = core.rt.traffic.total();
        let bytes = after.bytes - before.bytes;
        let objects = after.messages - before.messages;
        self.migrations += plan.moves.len() as u64;
        self.migration_bytes += bytes;
        Ok(bytes as f64 / core.net.bandwidth_bytes_per_s
            + objects as f64 * PER_OBJECT_S
            + core.net.latency_s)
    }

    /// Moves one shard copy to `mv.to`, trying sources in order: the
    /// planned source, any other live holder, then a master rebuild from
    /// the block store. Each attempt is awaited with the bulk deadline;
    /// chaos-dropped transfers time out and fall through to the next
    /// source (installs are epoch-fenced, so a late duplicate is safe).
    fn transfer_shard(
        &mut self,
        core: &mut MasterCore,
        t: u64,
        mv: ShardMove,
        epoch: u64,
    ) -> Result<(), TrainError> {
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
                Some(src) => core
                    .rt
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
                    let worksets = shard_worksets(core, mv.pid);
                    let params = init_params_for(core, mv.pid);
                    core.rt
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
            if await_install(core, t, mv.pid, epoch, mv.to)? {
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

    /// Applies the scheduled membership transitions for iteration `t`.
    fn apply_schedule(&mut self, core: &mut MasterCore, step: &mut Step) -> Result<(), TrainError> {
        let t = step.t;
        let events: Vec<ElasticEvent> = self
            .cfg
            .schedule
            .iter()
            .copied()
            .filter(|ev| ev.iteration == t)
            .collect();
        for ev in events {
            match ev.action {
                ElasticAction::Join => step.charge += self.admit_worker(core, t, ev.worker)?,
                ElasticAction::Leave => step.charge += self.drain_worker(core, t, ev.worker)?,
                // Crashes are injected at the worker (its script) and
                // handled purely by detection.
                ElasticAction::Crash => {}
            }
        }
        Ok(())
    }

    /// Starts and admits slot `w`, executing the planner's migrations.
    fn admit_worker(&mut self, core: &mut MasterCore, t: u64, w: usize) -> Result<f64, TrainError> {
        let connect_wait = core.bulk_deadline();
        let started = core.rt.host.start_all(w..w + 1, connect_wait);
        started.map_err(TrainError::Internal)?;
        let plan = self
            .membership
            .admit(w)
            .map_err(|e| membership_err(t, w, e))?;
        self.execute_plan(core, t, &plan)
    }

    /// Drains worker `w` gracefully: migrations first, then shutdown.
    fn drain_worker(&mut self, core: &mut MasterCore, t: u64, w: usize) -> Result<f64, TrainError> {
        let plan = self
            .membership
            .drain(w)
            .map_err(|e| membership_err(t, w, e))?;
        let cost = self.execute_plan(core, t, &plan)?;
        let _ = core
            .rt
            .master
            .send_reliable(NodeId::Worker(w), ColMsg::Shutdown);
        core.rt.host.reap(w);
        Ok(cost)
    }

    /// Scans new monitor events, arming speculation and feeding the scale
    /// policy's per-worker alarm counters.
    fn consume_gauges(&mut self, core: &mut MasterCore, step: &mut Step) -> Result<(), TrainError> {
        let t = step.t;
        if !core.rt.monitor.is_enabled() {
            return Ok(());
        }
        let events = core.rt.monitor.events();
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
                core.rt.recorder.fault(FaultRecord {
                    iteration: t,
                    worker: w as u64,
                    fault: "policy scale".to_string(),
                    detection: "straggler/skew gauge".to_string(),
                    detection_latency_s: 0.0,
                    recovery_cost_s: 0.0,
                    attempt: 0,
                    fatal: false,
                });
                step.charge += self.admit_worker(core, t, spare)?;
                step.charge += self.drain_worker(core, t, w)?;
                self.alarm_counts.remove(&w);
                self.armed.remove(&w);
            }
        }
        Ok(())
    }
}

impl Placement for ElasticPlacement {
    const LABEL: &'static str = "ColumnSGD-elastic";

    /// Membership transitions and policy hooks, then one task per
    /// partition, as Spark schedules one task per RDD partition.
    /// Single-pid tasks also make bit-determinism structural: every reply
    /// is exactly one partition's partial, so the master's fold is always
    /// the per-pid sorted sum and never depends on which worker happens to
    /// own which set of partitions (a post-promotion multi-pid task would
    /// pre-sum its partitions worker-side, changing the float pairing).
    fn place(&mut self, core: &mut MasterCore, step: &mut Step) -> Result<(), TrainError> {
        self.apply_schedule(core, step)?;
        self.consume_gauges(core, step)?;
        for w in self.membership.active() {
            let pids = self.membership.primaries_of(w);
            if pids.is_empty() {
                return Err(TrainError::Internal(format!(
                    "active worker {w} owns no partition at iteration {}",
                    step.t
                )));
            }
            let own = pids.into_iter().map(|pid| Task::new(w, vec![pid], None));
            step.tasks.extend(own);
        }
        if self.cfg.speculate {
            // Duplicate each armed worker's partitions onto their backup
            // holders, one speculative task per partition.
            for &v in &self.armed {
                if !self.in_service(v) {
                    continue;
                }
                for pid in self.membership.primaries_of(v) {
                    if let Some(b) = self.membership.backup_of(pid) {
                        step.tasks.push(Task::new(b, vec![pid], Some(v)));
                    }
                }
            }
        }
        Ok(())
    }

    /// Reactive crash handling: marks `w` dead, promotes or rebuilds its
    /// primaries *now* (the superstep needs them), defers replication
    /// repairs to after the update barrier, and hands the orphaned tasks
    /// to the partitions' new primaries.
    fn worker_down(
        &mut self,
        core: &mut MasterCore,
        step: &mut Step,
        lost: Lost,
    ) -> Result<Vec<usize>, TrainError> {
        let (t, w) = (step.t, lost.worker);
        if !self.in_service(w) {
            return Ok(Vec::new()); // stale evidence about an already-handled death
        }
        let plan = self
            .membership
            .mark_dead(w)
            .map_err(|e| membership_err(t, w, e))?;
        core.rt.host.reap(w);
        // Primary re-owning cannot wait (the superstep needs the shard);
        // replication repair can.
        let (now, later) = plan
            .moves
            .into_iter()
            .partition(|mv| mv.role == ShardRole::Primary);
        let now = RebalancePlan {
            epoch: plan.epoch,
            moves: now,
            ..RebalancePlan::default()
        };
        let cost = self.execute_plan(core, t, &now)?;
        step.charge += cost;
        self.deferred.push(RebalancePlan {
            epoch: plan.epoch,
            moves: later,
            drops: plan.drops,
        });
        core.note(step, w, FaultKind::WorkerFailure, lost.detection, cost);
        step.attempts[w] += 1;
        self.armed.remove(&w);
        if !lost.gathering {
            return Ok(Vec::new());
        }
        // The orphaned tasks move to their partitions' new primaries — one
        // task per partition stays the invariant shape — with attempts
        // bumped once per new owner, so re-owning several shards does not
        // burn the retry budget. A speculative copy lost with its holder
        // is simply no longer waited for.
        let mut moved = Vec::new();
        let mut owners = BTreeSet::new();
        let orphans = step.tasks.iter_mut().enumerate();
        for (i, task) in orphans.filter(|(_, task)| task.worker == w && task.reply.is_none()) {
            if task.duplicate_of.is_some() {
                task.excused = true;
                continue;
            }
            let &[pid] = task.pids.as_slice() else {
                return Err(TrainError::Internal(format!(
                    "orphaned task of worker {w} names {} partitions, not one",
                    task.pids.len()
                )));
            };
            task.worker = self.membership.primary_of(pid).ok_or_else(|| {
                TrainError::Internal(format!("partition {pid} lost its primary after crash"))
            })?;
            owners.insert(task.worker);
            moved.push(i);
        }
        for np in owners {
            core.bump_attempts(step, np)?;
        }
        Ok(moved)
    }

    fn in_service(&self, w: usize) -> bool {
        self.membership.state(w) == Some(WorkerState::Active)
    }

    /// The speculation race and the canonical aggregation. Statistics
    /// always come from the primary cover, in partition order (bit-stable
    /// across runs); the race decides only the charged time. Tasks
    /// serialize on a worker's lane, so per-worker time is the sum of its
    /// tasks and the phase is the slowest lane.
    fn reduce(
        &mut self,
        core: &MasterCore,
        step: &Step,
        _straggler: Straggler,
    ) -> Result<Reduced, TrainError> {
        let (t, tasks, slots) = (step.t, &step.tasks, core.slots);
        let stats_len = core.cfg.batch_size * core.cfg.model.stats_width();
        let wire = |task: &Task| {
            (ColMsg::stats_reply_for_wire_size(task.pids.len(), stats_len) + ENVELOPE_BYTES) as u64
        };
        let spec_fault = |worker: usize, fault: &str, detection: &str, saved_s: f64| {
            core.rt.recorder.fault(FaultRecord {
                iteration: t,
                worker: worker as u64,
                fault: fault.to_string(),
                detection: detection.to_string(),
                detection_latency_s: 0.0,
                recovery_cost_s: saved_s,
                attempt: 0,
                fatal: false,
            });
        };
        let mut lanes = vec![0.0f64; slots];
        let mut primary_count = vec![0usize; slots];
        let mut covered_count = vec![0usize; slots];
        let mut primaries: Vec<(&Task, &TaskReply)> = tasks
            .iter()
            .filter(|task| task.duplicate_of.is_none())
            .filter_map(|task| Some((task, task.reply.as_ref()?)))
            .collect();
        primaries.sort_by_key(|(task, _)| &task.pids);
        let mut reply_bytes: Vec<u64> = Vec::new();
        let mut agg = vec![0.0f64; stats_len];
        for &(task, reply) in &primaries {
            let worker = task.worker;
            primary_count[worker] += 1;
            let covers: Vec<(&Task, f64)> = tasks
                .iter()
                .filter(|dup| dup.duplicate_of == Some(worker) && dup.pids == task.pids)
                .filter_map(|dup| Some((dup, dup.reply.as_ref()?.compute_s)))
                .collect();
            let mut charged = reply.compute_s;
            if !covers.is_empty() {
                let cover_s = covers.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
                covered_count[worker] += 1;
                if cover_s < charged {
                    // The backups won: the primary's reply is the loser —
                    // logged, and only its time is dropped.
                    self.spec_wins += 1;
                    let saved_s = charged - cover_s;
                    spec_fault(worker, "speculation win", "straggler alarm", saved_s);
                    charged = cover_s;
                } else {
                    for (dup, _) in covers {
                        self.spec_losses += 1;
                        spec_fault(dup.worker, "speculation loss", "duplicate dropped", 0.0);
                    }
                }
            }
            lanes[worker] += charged;
            reduce_stats(&mut agg, &reply.partial);
            reply_bytes.push(wire(task));
        }
        // Speculative replies transited the wire too; price them. The
        // duplicate's *compute* overlaps the backup's own task on an idle
        // pool slot (Spark launches speculative copies only where free
        // slots exist), so it does not extend the backup's lane — the race
        // outcome above already decided the charged time for the
        // straggler's partitions.
        let dups = tasks.iter().filter(|task| task.duplicate_of.is_some());
        reply_bytes.extend(dups.filter(|task| task.reply.is_some()).map(wire));
        // A worker raced only if a warm replica covered *every* one of
        // its partitions this superstep.
        self.raced = (0..slots)
            .filter(|&w| primary_count[w] > 0 && covered_count[w] == primary_count[w])
            .collect();
        Ok(Reduced {
            agg,
            stat_phase: lanes.iter().copied().fold(0.0, f64::max),
            counted: primaries.len(),
            gather_s: core.net.gather_time(&reply_bytes),
            updaters: self.membership.active(),
        })
    }

    fn finish_update(
        &mut self,
        core: &mut MasterCore,
        step: &mut Step,
        update_times: &mut [f64],
        straggler: Straggler,
    ) -> Result<f64, TrainError> {
        if let Some((v, f)) = straggler {
            // A warm replica that raced holds the same partitions and
            // applied the same update; the straggler's own apply overlaps
            // with the next superstep (the §IV-B convention).
            update_times[v] *= if self.raced.contains(&v) { 0.0 } else { f };
        }
        for plan in std::mem::take(&mut self.deferred) {
            step.charge += self.execute_plan(core, step.t, &plan)?;
        }
        Ok(update_times.iter().copied().fold(0.0, f64::max))
    }

    /// Inactive slots observe the active median, so the sliding-window
    /// median is not dragged toward zero by empty slots (which would alarm
    /// on everything).
    fn observed<'a>(&self, compute_times: &'a [f64]) -> Cow<'a, [f64]> {
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
            if !self.in_service(w) {
                *slot = median;
            }
        }
        Cow::Owned(view)
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
    use crate::error::DetectionMethod;

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
        let router = engine.core.rt.master.router().clone();
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
