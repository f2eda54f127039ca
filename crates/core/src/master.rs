//! The master core: Algorithm 3's superstep loop, written once, and
//! everything else the static and the elastic engine do the same way.
//!
//! Both engines drive the same BSP superstep from one master endpoint —
//! issue `computeStatistics`, gather, reduce, broadcast, `updateModel`,
//! barrier — and differ only in a [`Placement`] policy: *who* computes
//! which partitions and *what a missing worker means* (a fixed worker set
//! with respawn, reload and S-backup groups, versus a membership state
//! machine with shard migration and speculation). The loop
//! ([`MasterCore::train`]) lives here with what it needs: the [`Task`]
//! table, the recovery-aware barrier with its absolute detection
//! deadlines, the probe that classifies a silent worker, the retry budget,
//! the recovery ledger, load pricing, the master-side label lookup and the
//! model gather. What a master does without knowing [`ColMsg`] — the
//! worker host, the mailbox, the slot barrier, the superstep tail, the
//! end-of-train reconciliation, stop-on-drop — is the [`Runtime`] the core
//! runs on, shared with the RowSGD baselines.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use columnsgd_cluster::telemetry::{ProfScope, RunStamp};
use columnsgd_cluster::wire::ENVELOPE_BYTES;
use columnsgd_cluster::{
    spawn_guarded, ClusterConfig, Endpoint, Envelope, FailurePlan, Launcher, NetError,
    NetworkModel, NodeId, Recorder, SimClock,
};
use columnsgd_data::block::Block;
use columnsgd_data::{ColumnPartitioner, TwoPhaseIndex};
use columnsgd_ml::metrics::Curve;
use columnsgd_ml::ParamSet;

use crate::config::ColumnSgdConfig;
use crate::engine::TrainOutcome;
use crate::error::{DetectionMethod, FaultKind, RecoveryEvent, TrainError};
use crate::host::{BootSpec, ColBoot};
use crate::msg::ColMsg;
use crate::runtime::{Runtime, Superstep};
use crate::worker::{run_worker, WorkerScript};

/// Serialization cost charged per shipped object when pricing data loading
/// (the Figure 7 effect: many small objects are expensive even when their
/// total bytes are modest).
pub const PER_OBJECT_S: f64 = 20e-6;

/// Cost report for the row-to-column transformation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Serialized objects shipped over the network.
    pub objects: u64,
    /// Total bytes shipped.
    pub bytes: u64,
    /// Simulated loading time: the slowest node's
    /// `bytes/bandwidth + objects × PER_OBJECT_S` lane (pipelined stages
    /// overlap, so the max lane bounds the makespan).
    pub sim_time_s: f64,
}

/// Outcome of probing a silent worker after a deadline expired.
pub(crate) enum Probed {
    /// The worker answered the probe.
    Alive {
        /// Whether its partitions are loaded (true ⇒ task failure;
        /// false ⇒ its data is gone and must be reloaded).
        loaded: bool,
    },
    /// No answer (or the probe could not even be sent): the worker is gone.
    Dead,
    /// Direct evidence about the worker (a reply or panic report) arrived
    /// while probing and was buffered; the main loop will resolve it.
    Deferred,
}

/// One worker's answer to `FetchModel`: `(worker, [(pid, params)])`.
pub(crate) type WorkerParts = (usize, Vec<(usize, ParamSet)>);

/// One `computeStatistics` task of a superstep.
///
/// Empty `pids` means "everything you hold": the task travels as
/// [`ColMsg::ComputeStats`] and is answered by [`ColMsg::StatsReply`]; a
/// named partition set travels as [`ColMsg::ComputeStatsFor`] and is
/// answered by [`ColMsg::StatsReplyFor`]. The fold of the two shapes
/// happens here, in the task table, not in the message enum.
pub(crate) struct Task {
    pub worker: usize,
    pub pids: Vec<usize>,
    /// `Some(primary_worker)` for a speculative duplicate of that
    /// worker's task on a backup holder.
    pub duplicate_of: Option<usize>,
    pub reply: Option<TaskReply>,
    /// The gather barrier no longer waits for this task: its worker was
    /// lost and somebody else covers the partitions. A reply that still
    /// lands before the barrier closes folds like any other.
    pub excused: bool,
}

impl Task {
    pub fn new(worker: usize, pids: Vec<usize>, duplicate_of: Option<usize>) -> Self {
        Self {
            worker,
            pids,
            duplicate_of,
            reply: None,
            excused: false,
        }
    }

    fn outstanding(&self) -> bool {
        !self.excused && self.reply.is_none()
    }
}

/// The statistics a task came back with.
pub(crate) struct TaskReply {
    pub partial: Vec<f64>,
    pub compute_s: f64,
    pub sample_s: f64,
}

/// The state of the superstep in flight, shared by the loop and its
/// [`Placement`] policy: the task table, the retry counters, the recovery
/// charge and the run's recovery log.
pub(crate) struct Step {
    pub t: u64,
    /// When the superstep started: the origin of every detection latency.
    issued: Instant,
    /// Per-slot attempt counters of this superstep.
    pub attempts: Vec<u64>,
    /// Simulated seconds spent on detection waits, reloads and migrations
    /// this superstep, charged to the clock as pure overhead.
    pub charge: f64,
    pub tasks: Vec<Task>,
    /// Every fault detected and recovered from so far, in detection order.
    pub recovery: Vec<RecoveryEvent>,
}

impl Step {
    fn new(slots: usize) -> Self {
        Self {
            t: 0,
            issued: Instant::now(),
            attempts: vec![0; slots],
            charge: 0.0,
            tasks: Vec::new(),
            recovery: Vec::new(),
        }
    }

    fn begin(&mut self, t: u64) {
        self.t = t;
        self.issued = Instant::now();
        self.attempts.fill(0);
        self.charge = 0.0;
        self.tasks.clear();
    }

    /// The task a reply from `worker` covering `pids` answers, success or
    /// failure alike. Duplicates (chaos, redundant re-issues) find their
    /// task already answered and match nothing.
    fn awaiting(&self, worker: usize, pids: &[usize]) -> Option<usize> {
        self.tasks
            .iter()
            .position(|task| task.worker == worker && task.reply.is_none() && task.pids == pids)
    }

    /// Per-slot `(compute, sample)` seconds as billed to telemetry and the
    /// monitor. Only replies that were *kept* are billed — a failed
    /// attempt burns wall-clock the master already accounts as recovery
    /// charge, and a discarded reply takes its bill with it. A worker's
    /// primary tasks serialize on its lane, so compute adds up, while the
    /// batch is sampled once and cached, so only the first task pays (the
    /// rest report ~0). Speculative duplicates overlap on idle pool slots
    /// and are excluded — charging them would make the backup look like a
    /// straggler to the monitor and cascade the arming.
    fn lane_times(&self, slots: usize) -> (Vec<f64>, Vec<f64>) {
        let mut compute = vec![0.0f64; slots];
        let mut sample = vec![0.0f64; slots];
        for task in &self.tasks {
            if let Some(r) = &task.reply {
                if task.duplicate_of.is_none() {
                    compute[task.worker] += r.compute_s;
                }
                sample[task.worker] = sample[task.worker].max(r.sample_s);
            }
        }
        (compute, sample)
    }
}

/// How the master found out that a worker can no longer serve.
pub(crate) struct Lost {
    pub worker: usize,
    pub detection: DetectionMethod,
    /// The process answered the probe but holds no data (as opposed to
    /// being gone altogether).
    pub unloaded: bool,
    /// Detected while statistics were being gathered (orphaned tasks can
    /// be re-issued) rather than during the update barrier.
    pub gathering: bool,
}

/// What a [`Placement`] makes of a closed gather barrier.
pub(crate) struct Reduced {
    /// The aggregated statistics to broadcast.
    pub agg: Vec<f64>,
    /// Effective statistics-phase seconds (the slowest lane that counts).
    pub stat_phase: f64,
    /// Replies folded into `agg`.
    pub counted: usize,
    /// Modeled gather seconds for the replies that crossed the wire.
    pub gather_s: f64,
    /// The workers that apply this superstep's update.
    pub updaters: Vec<usize>,
}

/// The straggler injected into a superstep: `(victim slot, factor)`.
pub(crate) type Straggler = Option<(usize, f64)>;

/// What differs between the engines that run [`MasterCore::train`]: who
/// computes which partitions, and what a missing worker means.
pub(crate) trait Placement {
    /// Name of the convergence curve.
    const LABEL: &'static str;

    /// Applies whatever changes the worker set between supersteps and
    /// fills `step.tasks` with this superstep's statistics tasks.
    fn place(&mut self, core: &mut MasterCore, step: &mut Step) -> Result<(), TrainError>;

    /// Recovers from a lost worker — respawn it, or move its partitions —
    /// logging the fault with [`MasterCore::note`], and returns the tasks
    /// the loop must (re-)issue. Nothing is re-issued after the gather:
    /// there the loop re-drives a worker that is still in service through
    /// the update on its own.
    fn worker_down(
        &mut self,
        core: &mut MasterCore,
        step: &mut Step,
        lost: Lost,
    ) -> Result<Vec<usize>, TrainError>;

    /// Whether slot `w` is expected to answer at all.
    fn in_service(&self, _w: usize) -> bool {
        true
    }

    /// Reduces the gathered (straggler-inflated) replies.
    fn reduce(
        &mut self,
        core: &MasterCore,
        step: &Step,
        straggler: Straggler,
    ) -> Result<Reduced, TrainError>;

    /// Closes the update barrier: applies the straggler to the measured
    /// `update_times`, runs whatever recovery was deferred to after the
    /// barrier (charging `step.charge`), and returns the effective
    /// update-phase seconds.
    fn finish_update(
        &mut self,
        core: &mut MasterCore,
        step: &mut Step,
        update_times: &mut [f64],
        straggler: Straggler,
    ) -> Result<f64, TrainError>;

    /// The per-slot compute times as the monitor's straggler detector
    /// should see them.
    fn observed<'a>(&self, compute_times: &'a [f64]) -> Cow<'a, [f64]> {
        Cow::Borrowed(compute_times)
    }
}

/// The update barrier's state: who must acknowledge what.
struct Acks<'a> {
    agg: &'a [f64],
    updaters: &'a [usize],
    acked: Vec<bool>,
    update_times: Vec<f64>,
}

/// How a ColumnSGD worker is launched on the shared [`Host`].
struct ColLauncher {
    /// Worker slots, which is also the number of logical partitions.
    slots: usize,
    dim: u64,
    cfg: ColumnSgdConfig,
    /// Each slot's failure script.
    scripts: Vec<WorkerScript>,
    /// Elastic slots start without partitions and are filled by shard
    /// migration; static ones hold their group's partitions from the start.
    start_empty: bool,
    /// Thread workers share the master's recorder, so their kernel and
    /// guard records land directly in the merged trace with no shipping.
    recorder: Recorder,
}

impl Launcher<ColMsg> for ColLauncher {
    fn worker_bin(&self) -> &'static str {
        "columnsgd-worker"
    }

    /// A guarded thread: a panic unwinds into a [`ColMsg::WorkerPanic`]
    /// to the master.
    fn thread(&self, w: usize, ep: Endpoint<ColMsg>) -> std::io::Result<JoinHandle<()>> {
        let (slots, dim, cfg) = (self.slots, self.dim, self.cfg);
        let script = self.scripts[w].clone();
        let recorder = self.recorder.clone();
        let held = if self.start_empty {
            Vec::new()
        } else {
            cfg.partitions_of(w)
        };
        Ok(spawn_guarded(
            format!("colsgd-worker{w}"),
            ep,
            move |ep| run_worker(ep, w, slots, &held, dim, cfg, script, recorder, None),
            move |info| ColMsg::WorkerPanic { worker: w, info },
        ))
    }

    /// A `columnsgd-worker` process always holds its group's partitions
    /// from the start: the boot line cannot say "start empty" yet, which
    /// is what an elastic slot in a process would need.
    fn boot_line(&self, w: usize, hub: SocketAddr) -> String {
        let boot = BootSpec {
            addr: hub.to_string(),
            worker: w,
            k: self.slots,
            dim: self.dim,
            job: ColBoot {
                cfg: self.cfg,
                script: self.scripts[w].clone(),
                traced: self.recorder.is_enabled(),
            },
        };
        boot.to_hex_line()
    }
}

/// The state and plumbing of a ColumnSGD master that both engines share.
pub(crate) struct MasterCore {
    pub cfg: ColumnSgdConfig,
    /// Worker slots, which is also the number of logical column
    /// partitions (K for the static engine, `max_workers` for the elastic).
    pub slots: usize,
    pub net: NetworkModel,
    pub plan: FailurePlan,
    /// Endpoint, worker host, meter and observation sinks. Its pending
    /// buffer holds what probes, reloads and installs set aside.
    pub rt: Runtime<ColMsg>,
    /// The master's copy of the blocks (the "HDFS" source): used for the
    /// initial dispatch, recovery rebuilds, and label lookup.
    pub blocks: Vec<Block>,
    /// Master-side replica of the two-phase index (for label lookup when
    /// reporting batch loss; the master knows the layout because it built
    /// the block queue).
    index: TwoPhaseIndex,
    /// Model dimension m.
    pub dim: u64,
}

impl MasterCore {
    /// Opens a run on `recorder` before any node exists: checks the block
    /// set, resolves the auto pool width, validates the failure plan
    /// against the slot count, and stamps the trace. Returns the
    /// normalized config.
    ///
    /// # Errors
    /// [`TrainError::LoadFailed`] for an empty block set or block ids that
    /// are not dense and sequential — the label lookup indexes blocks by
    /// id, and both producers (`Dataset::into_block_queue` and
    /// `libsvm::BlockReader`) emit `0, 1, …`; arbitrary ids would silently
    /// misattribute batch labels — and [`TrainError::InvalidPlan`] for
    /// zero slots or a failure plan that names workers outside the slots.
    pub fn open_run(
        mut cfg: ColumnSgdConfig,
        slots: usize,
        net: &NetworkModel,
        plan: &FailurePlan,
        blocks: &[Block],
        recorder: &Recorder,
    ) -> Result<ColumnSgdConfig, TrainError> {
        if slots == 0 {
            return Err(TrainError::InvalidPlan(
                "need at least one worker".to_string(),
            ));
        }
        if blocks.is_empty() {
            return Err(TrainError::LoadFailed("empty block set".to_string()));
        }
        if blocks
            .iter()
            .enumerate()
            .any(|(pos, b)| b.id() != pos as u64)
        {
            return Err(TrainError::LoadFailed(
                "blocks must carry dense sequential ids (0, 1, …)".to_string(),
            ));
        }
        if cfg.threads_per_worker == 0 {
            // Auto: one kernel thread per simulated core of the cluster
            // preset (2 on the paper's Cluster 1, 8 on Cluster 2).
            cfg.threads_per_worker = net.cores.max(1);
        }
        plan.validate(slots).map_err(TrainError::InvalidPlan)?;
        recorder.set_pricing(net.link_pricing());
        recorder.begin(stamp(&cfg, plan, slots));
        Ok(cfg)
    }

    /// Brings the cluster up on the backend `cluster` selects — a master
    /// endpoint plus `slots` worker slots, the first `initial` of them
    /// started with `scripts[w]` and connected — and assembles the core
    /// around it (`cfg` and `blocks` as checked by
    /// [`MasterCore::open_run`]).
    ///
    /// # Errors
    /// [`TrainError::LoadFailed`] when the TCP backend cannot find, spawn
    /// or connect its worker processes; what was spawned is killed and the
    /// hub closed.
    #[allow(clippy::too_many_arguments)] // internal assembly step
    pub fn new(
        cfg: ColumnSgdConfig,
        slots: usize,
        net: NetworkModel,
        plan: FailurePlan,
        recorder: Recorder,
        blocks: Vec<Block>,
        dim: u64,
        cluster: &ClusterConfig,
        scripts: Vec<WorkerScript>,
        start_empty: bool,
        initial: usize,
    ) -> Result<Self, TrainError> {
        let launcher = ColLauncher {
            slots,
            dim,
            cfg,
            scripts,
            start_empty,
            recorder: recorder.clone(),
        };
        let connect_wait = Duration::from_millis(cfg.deadline_ms.saturating_mul(10));
        let rt = Runtime::bring_up(
            slots,
            initial,
            cluster,
            plan.chaos,
            recorder,
            launcher,
            connect_wait,
            ColMsg::Shutdown,
        )?;
        let index = TwoPhaseIndex::new(blocks.iter().map(|b| (b.id(), b.nrows())), cfg.seed);
        Ok(Self {
            cfg,
            slots,
            net,
            plan,
            rt,
            blocks,
            index,
            dim,
        })
    }

    /// The identity stamp describing this run (also written on every
    /// telemetry record when tracing is enabled).
    pub fn run_stamp(&self) -> RunStamp {
        stamp(&self.cfg, &self.plan, self.slots)
    }

    /// The column partitioner over this run's logical partitions.
    pub fn partitioner(&self) -> ColumnPartitioner {
        self.cfg.partitioner(self.slots, self.dim)
    }

    /// The detection deadline for a single reply.
    pub fn deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.deadline_ms)
    }

    /// The (longer) deadline for bulk transfers: loading, reloading and
    /// shard migration move whole datasets, not single replies.
    pub fn bulk_deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.deadline_ms.saturating_mul(10))
    }

    /// Whether the pending buffer already carries direct evidence about
    /// worker `w` at iteration `t` (so probing it would be redundant).
    pub fn pending_has_evidence(&self, t: u64, w: usize) -> bool {
        let mut pending = self.rt.pending.iter();
        pending.any(|env| is_evidence(&env.payload, t, w))
    }

    /// Probes a silent worker over the reliable control plane to classify
    /// the missing reply: task failure (alive and loaded) or worker
    /// failure (unloaded, unreachable, or silent).
    pub fn probe_worker(&mut self, t: u64, w: usize) -> Result<Probed, TrainError> {
        if self
            .rt
            .master
            .send_reliable(NodeId::Worker(w), ColMsg::Probe { iteration: t })
            .is_err()
        {
            return Ok(Probed::Dead);
        }
        // Stale probe answers from earlier rounds are buffered like any
        // other stray traffic; the main loops drop them.
        let answer = |m: &ColMsg| {
            matches!(m, ColMsg::ProbeAck { worker, iteration, .. } if (*worker, *iteration) == (w, t))
                || is_evidence(m, t, w)
        };
        Ok(match self.rt.await_reply(t, self.deadline(), answer)? {
            None => Probed::Dead,
            Some(Envelope {
                payload: ColMsg::ProbeAck { loaded, .. },
                ..
            }) => Probed::Alive { loaded },
            // The answer was merely slow, or the worker's panic report
            // arrived: let the main loop consume it.
            Some(evidence) => {
                self.rt.pending.push_back(evidence);
                Probed::Deferred
            }
        })
    }

    /// Increments a worker's attempt counter, failing when the retry
    /// budget (`max_task_retries`) is exhausted.
    pub fn bump_attempts(&self, step: &mut Step, w: usize) -> Result<(), TrainError> {
        step.attempts[w] += 1;
        if step.attempts[w] > self.cfg.max_task_retries {
            return Err(TrainError::RetriesExhausted {
                iteration: step.t,
                worker: w,
                attempts: step.attempts[w],
            });
        }
        Ok(())
    }

    /// Logs a recovered fault on both ledgers: the outcome's recovery log
    /// and the telemetry fault stream.
    pub fn note(
        &self,
        step: &mut Step,
        worker: usize,
        fault: FaultKind,
        detection: DetectionMethod,
        recovery_cost_s: f64,
    ) {
        let ev = RecoveryEvent {
            iteration: step.t,
            worker,
            fault,
            detection,
            detection_latency_s: step.issued.elapsed().as_secs_f64(),
            recovery_cost_s,
            attempt: step.attempts[worker],
        };
        self.rt.recorder.fault(ev.to_fault_record());
        step.recovery.push(ev);
    }

    /// The load barrier: the slot barrier over `n` acknowledgements with
    /// the bulk deadline; `ack` maps a message to `(slot, value)` (`what`
    /// names the acks in the error).
    ///
    /// # Errors
    /// [`TrainError::LoadFailed`] when the deadline passes first.
    pub fn await_acks<T>(
        &mut self,
        n: usize,
        what: &str,
        ack: impl FnMut(ColMsg) -> Option<(usize, T)>,
    ) -> Result<Vec<T>, TrainError> {
        let wait = self.bulk_deadline();
        let acks = self.rt.await_slots(n, wait, "load", ack);
        acks.map_err(|e| TrainError::LoadFailed(format!("only {}/{n} {what}: {}", e.got, e.source)))
    }

    /// Prices the metered loading traffic into a simulated makespan.
    ///
    /// The master's outgoing stream models the HDFS read; HDFS is a
    /// *distributed* store whose datanodes serve the workers in parallel,
    /// so the source is not a serial lane — only worker lanes (their HDFS
    /// share plus the workset shuffle) bound the makespan.
    pub fn price_load(&self) -> LoadReport {
        let traffic = &self.rt.traffic;
        let total = traffic.total();
        let mut worst = 0.0f64;
        for node in (0..self.slots).map(NodeId::Worker) {
            let (sent, recv) = (traffic.sent_by(node), traffic.received_by(node));
            let lane = (sent.bytes + recv.bytes) as f64 / self.net.bandwidth_bytes_per_s
                + (sent.messages + recv.messages) as f64 * PER_OBJECT_S;
            worst = worst.max(lane);
        }
        LoadReport {
            objects: total.messages,
            bytes: total.bytes,
            sim_time_s: worst + self.net.latency_s,
        }
    }

    /// Labels of the iteration-`t` batch, computed master-side from its
    /// replica of the two-phase index (free: the master built the blocks).
    fn batch_labels(&self, iteration: u64) -> Vec<f64> {
        self.index
            .sample_batch(iteration, self.cfg.batch_size)
            .into_iter()
            .map(|addr| self.blocks[addr.block as usize].csr().label(addr.offset))
            .collect()
    }

    /// Asks `workers` for their model partitions over the reliable plane
    /// (so chaos cannot wedge it) and returns one `(worker, parts)` per
    /// worker, in `workers` order.
    ///
    /// # Errors
    /// [`TrainError::Network`] when a worker cannot answer within the bulk
    /// deadline.
    pub fn fetch_models(&mut self, workers: &[usize]) -> Result<Vec<WorkerParts>, TrainError> {
        let iteration = self.cfg.iterations;
        let net_err = |source| TrainError::Network { iteration, source };
        for &w in workers {
            let to = NodeId::Worker(w);
            let sent = self.rt.master.send_reliable(to, ColMsg::FetchModel);
            sent.map_err(net_err)?;
        }
        let wait = self.bulk_deadline();
        let reply = |msg| match msg {
            ColMsg::ModelReply { worker, parts } => {
                Some((workers.iter().position(|&w| w == worker)?, (worker, parts)))
            }
            _ => None,
        };
        let n = workers.len();
        let replies = self.rt.await_slots(n, wait, "model fetch", reply);
        replies.map_err(|e| net_err(e.source))
    }

    /// Gathers every model partition from `workers` and reassembles the
    /// full model — an inspection path for tests/examples, not part of the
    /// paper's training protocol (ColumnSGD never materializes the full
    /// model). The copy from the first worker in `workers` that holds a
    /// partition wins; replicas carry identical copies after a clean run.
    ///
    /// # Errors
    /// Same contract as [`MasterCore::fetch_models`].
    pub fn collect_model(&mut self, workers: &[usize]) -> Result<ParamSet, TrainError> {
        let replies = self.fetch_models(workers)?;
        let part = self.partitioner();
        let mut full = self
            .cfg
            .model
            .init_params(self.dim as usize, self.cfg.seed, |s| s as u64);
        full.reset();
        let widths = self.cfg.model.widths();
        let mut seen = BTreeSet::new();
        for (pid, local) in replies.into_iter().flat_map(|(_, parts)| parts) {
            if !seen.insert(pid) {
                continue;
            }
            for slot in 0..part.local_dim(pid, self.dim) {
                let j = part.global_index(pid, slot) as usize;
                for (b, &w) in widths.iter().enumerate() {
                    for f in 0..w {
                        full.blocks[b][j * w + f] = local.blocks[b][slot * w + f];
                    }
                }
            }
        }
        Ok(full)
    }
}

/// Algorithm 3, once: the superstep loop both engines run, over a
/// [`Placement`] policy.
impl MasterCore {
    /// Runs the full training loop and returns the outcome.
    ///
    /// # Errors
    /// [`TrainError::RetriesExhausted`] when one worker's task keeps
    /// failing past the retry budget, [`TrainError::WorkerLost`] when the
    /// policy cannot bring a worker back or re-own its partitions,
    /// [`TrainError::Network`] if the master's own mailbox fails, and
    /// [`TrainError::Diverged`] when the monitor's loss guard trips.
    pub fn train<P: Placement>(&mut self, p: &mut P) -> Result<TrainOutcome, TrainError> {
        let out = self.train_inner(p);
        self.rt.record_fatal(out)
    }

    fn train_inner<P: Placement>(&mut self, p: &mut P) -> Result<TrainOutcome, TrainError> {
        let mut clock = SimClock::new();
        let mut curve = Curve::new(P::LABEL);
        let mut step = Step::new(self.slots);

        for t in 0..self.cfg.iterations {
            step.begin(t);
            p.place(self, &mut step)?;

            // --- step 1: computeStatistics -----------------------------
            {
                let _prof = ProfScope::enter("issue");
                for i in 0..step.tasks.len() {
                    self.issue(p, &mut step, i)?;
                }
            }

            // --- step 2: gather + reduce -------------------------------
            let prof_gather = ProfScope::enter("gather");
            let gather_wall = self.barrier(p, &mut step, None)?;
            drop(prof_gather);

            // Straggler injection (§V-C methodology). StragglerLevel is
            // "the ratio between the extra time a straggler needs to
            // finish a task and the time that a non-straggler worker
            // needs" — a *task* pays both compute and the per-task
            // executor overhead, so the inflation applies to their sum
            // (the extra time then lands on the barrier).
            let straggler = self
                .plan
                .straggler
                .map(|s| (s.pick(t, self.slots), s.factor()));
            if let Some((victim, factor)) = straggler {
                let overhead = self.net.scheduling_overhead_s;
                let replies = step.tasks.iter_mut().filter(|task| task.worker == victim);
                for r in replies.filter_map(|task| task.reply.as_mut()) {
                    r.compute_s += (factor - 1.0) * (r.compute_s + overhead);
                }
            }

            let prof_reduce = ProfScope::enter("reduce");
            let mut red = p.reduce(self, &step, straggler)?;
            drop(prof_reduce);

            // --- step 3: broadcast + updateModel ------------------------
            // The aggregate moves into one `Update` that is broadcast by
            // reference and moves back out: no per-worker copy.
            let prof_bcast = ProfScope::enter("broadcast");
            let tos: Vec<NodeId> = red.updaters.iter().map(|&w| NodeId::Worker(w)).collect();
            let msg = ColMsg::Update {
                iteration: t,
                stats: std::mem::take(&mut red.agg),
            };
            let sent = self.rt.master.broadcast(&tos, &msg);
            if let ColMsg::Update { stats, .. } = msg {
                red.agg = stats;
            }
            let mut acks = Acks {
                agg: &red.agg,
                updaters: &red.updaters,
                acked: vec![false; self.slots],
                update_times: vec![0.0f64; self.slots],
            };
            for (&w, result) in red.updaters.iter().zip(sent) {
                if result.is_err() {
                    let how = DetectionMethod::SendFailure;
                    self.worker_lost(p, &mut step, w, how, false, Some(&mut acks))?;
                }
            }
            let bcast_wall = self.barrier(p, &mut step, Some(&mut acks))?;
            drop(prof_bcast);
            let mut update_times = acks.update_times;
            let upd_phase = p.finish_update(self, &mut step, &mut update_times, straggler)?;

            // --- pricing -------------------------------------------------
            // Analytic wire sizes, so no throwaway message (or clone of
            // the aggregate) is ever materialized just to measure it. The
            // analytic helpers are pinned equal to `wire_size()` by test.
            let bcast_bytes = (ColMsg::update_wire_size(red.agg.len()) + ENVELOPE_BYTES) as u64;
            let bcast_s = self.net.broadcast_time(bcast_bytes, red.updaters.len());
            let (compute_times, sample_times) = step.lane_times(self.slots);
            let loss = self
                .cfg
                .model
                .loss_from_stats(&self.batch_labels(t), &red.agg);
            let s = Superstep {
                t,
                sample_times: &sample_times,
                compute_times: &compute_times,
                observed: &p.observed(&compute_times),
                stat_phase: red.stat_phase,
                gather: (red.gather_s, gather_wall),
                bcast: (bcast_s, bcast_wall),
                update_times: &update_times,
                upd_phase,
                overhead_s: self.net.scheduling_overhead_s,
                charge: step.charge,
                loss,
                model: self.cfg.model,
                batch_size: self.cfg.batch_size,
                pool_width: self.cfg.threads_per_worker,
                counted: red.counted,
            };
            if let Some(reason) = self.rt.finish_superstep(&s, &mut clock, &mut curve) {
                // The loss guard tripped: surface it through the typed
                // error machinery so callers and telemetry see one unified
                // fatal-fault vocabulary.
                return Err(TrainError::Diverged {
                    iteration: t,
                    reason,
                });
            }
        }
        self.rt.finish_train()?;

        Ok(TrainOutcome {
            curve,
            clock,
            recovery: step.recovery,
            run: self.run_stamp(),
            diagnostics: self.rt.monitor.report(),
        })
    }

    /// Puts task `i` on the wire: `ComputeStats` for "everything you
    /// hold", `ComputeStatsFor` for a named partition set.
    fn send_task(&self, step: &Step, i: usize) -> Result<(), NetError> {
        let task = &step.tasks[i];
        let (iteration, batch_size) = (step.t, self.cfg.batch_size);
        let attempt = step.attempts[task.worker];
        let msg = if task.pids.is_empty() {
            ColMsg::ComputeStats {
                iteration,
                batch_size,
                attempt,
            }
        } else {
            ColMsg::ComputeStatsFor {
                iteration,
                batch_size,
                attempt,
                pids: task.pids.clone(),
            }
        };
        self.rt.master.send(NodeId::Worker(task.worker), msg)
    }

    /// Issues task `i`. A dead mailbox is a detected worker failure: the
    /// policy recovers and the task (or whatever replaced it) goes out
    /// again.
    fn issue<P: Placement>(
        &mut self,
        p: &mut P,
        step: &mut Step,
        i: usize,
    ) -> Result<(), TrainError> {
        if self.send_task(step, i).is_ok() {
            return Ok(());
        }
        let w = step.tasks[i].worker;
        self.worker_lost(p, step, w, DetectionMethod::SendFailure, false, None)
    }

    /// Hands a lost worker to the policy and re-drives what is left of the
    /// superstep for it: the tasks the policy names while gathering
    /// (`acks` is `None`), the whole update sequence afterwards — unless
    /// the worker's ack was already counted, in which case the applied
    /// update died with it (exactly the §X data-loss semantics) and there
    /// is nothing to re-await.
    fn worker_lost<P: Placement>(
        &mut self,
        p: &mut P,
        step: &mut Step,
        w: usize,
        detection: DetectionMethod,
        unloaded: bool,
        acks: Option<&mut Acks<'_>>,
    ) -> Result<(), TrainError> {
        let lost = Lost {
            worker: w,
            detection,
            unloaded,
            gathering: acks.is_none(),
        };
        let again = p.worker_down(self, step, lost)?;
        match acks {
            None => {
                for i in again {
                    self.issue(p, step, i)?;
                }
            }
            Some(acks) => {
                if !acks.acked[w] && p.in_service(w) {
                    self.resequence(step, w, acks.agg);
                }
            }
        }
        Ok(())
    }

    /// Re-drives worker `w` through this superstep's update: its tasks
    /// once more (idempotently re-sampling the batch; the replies are
    /// discarded) followed by the `Update`. A worker that already applied
    /// the update simply re-acks.
    fn resequence(&self, step: &Step, w: usize, agg: &[f64]) {
        // Send failures here mean the worker died between the probe and
        // now; the next deadline round detects and handles it.
        for i in (0..step.tasks.len()).filter(|&i| step.tasks[i].worker == w) {
            let _ = self.send_task(step, i);
        }
        let _ = self.rt.master.send(
            NodeId::Worker(w),
            ColMsg::Update {
                iteration: step.t,
                stats: agg.to_vec(),
            },
        );
    }

    /// Folds one statistics reply, matched to its task by `(worker,
    /// pids)`. A failed task (§X: "start a new task … no additional work on
    /// data loading is required") is logged and that task re-sent. Returns
    /// whether the reply answered anything.
    fn fold_reply<P: Placement>(
        &mut self,
        p: &mut P,
        step: &mut Step,
        worker: usize,
        pids: &[usize],
        reply: TaskReply,
        task_failed: bool,
    ) -> Result<bool, TrainError> {
        let Some(i) = step.awaiting(worker, pids) else {
            // A duplicate (chaos), or a partial cover from a raced
            // migration: drop; the deadline path re-drives if needed.
            eprintln!(
                "master: dropping unmatched statistics from worker {worker} \
                 ({} pids) at t={}",
                pids.len(),
                step.t
            );
            return Ok(false);
        };
        if task_failed {
            let (fault, how) = (FaultKind::TaskFailure, DetectionMethod::ErrorReply);
            self.note(step, worker, fault, how, 0.0);
            self.bump_attempts(step, worker)?;
            self.issue(p, step, i)?;
        } else {
            step.tasks[i].reply = Some(reply);
        }
        Ok(true)
    }

    /// The BSP barrier, for both halves of the superstep: while gathering
    /// (`acks` is `None`) it waits for every task that is not excused,
    /// afterwards for the update acknowledgement of every updater still
    /// in service. Returns the wall-clock seconds spent, the *measured*
    /// barrier time for transport cross-checks.
    ///
    /// The detection deadline is absolute: reset on progress (a matched
    /// reply or ack, a handled panic, a completed recovery round), never
    /// on stray traffic. When it expires, every silent worker without
    /// buffered evidence is probed: alive and loaded means a lost task or
    /// message (re-sent), anything else a lost worker.
    fn barrier<P: Placement>(
        &mut self,
        p: &mut P,
        step: &mut Step,
        mut acks: Option<&mut Acks<'_>>,
    ) -> Result<f64, TrainError> {
        let detect = self.deadline();
        let gathering = acks.is_none();
        let started = Instant::now();
        let mut wait_until = started + detect;
        loop {
            let open = match &acks {
                None => step.tasks.iter().any(Task::outstanding),
                Some(a) => a.updaters.iter().any(|&w| !a.acked[w] && p.in_service(w)),
            };
            if !open {
                return Ok(started.elapsed().as_secs_f64());
            }
            let env = match self.rt.recv_next(wait_until) {
                Ok(env) => env,
                Err(NetError::Timeout) => {
                    // Detection: deadline expired with answers missing.
                    step.charge += detect.as_secs_f64();
                    let mut silent: Vec<usize> = match &acks {
                        None => {
                            let late = step.tasks.iter().filter(|task| task.outstanding());
                            late.map(|task| task.worker).collect()
                        }
                        Some(a) => {
                            let late = a.updaters.iter().filter(|&&w| !a.acked[w]);
                            late.copied().collect()
                        }
                    };
                    silent.sort_unstable();
                    silent.dedup();
                    for w in silent {
                        if !p.in_service(w) || self.pending_has_evidence(step.t, w) {
                            continue;
                        }
                        let unloaded = match self.probe_worker(step.t, w)? {
                            Probed::Deferred => continue,
                            Probed::Alive { loaded: true } => {
                                let how = DetectionMethod::Timeout;
                                self.note(step, w, FaultKind::TaskFailure, how, 0.0);
                                self.bump_attempts(step, w)?;
                                match acks.as_deref() {
                                    None => {
                                        for i in 0..step.tasks.len() {
                                            let task = &step.tasks[i];
                                            if task.worker == w && task.outstanding() {
                                                self.issue(p, step, i)?;
                                            }
                                        }
                                    }
                                    Some(a) => self.resequence(step, w, a.agg),
                                }
                                continue;
                            }
                            Probed::Alive { loaded: false } => true,
                            Probed::Dead => false,
                        };
                        let how = DetectionMethod::Timeout;
                        self.worker_lost(p, step, w, how, unloaded, acks.as_deref_mut())?;
                    }
                    wait_until = Instant::now() + detect;
                    continue;
                }
                Err(source) => {
                    return Err(TrainError::Network {
                        iteration: step.t,
                        source,
                    })
                }
            };
            let progress = match env.payload {
                ColMsg::StatsReply {
                    iteration,
                    worker,
                    partial,
                    compute_s,
                    sample_s,
                    task_failed,
                } if iteration == step.t && gathering => {
                    let reply = TaskReply {
                        partial,
                        compute_s,
                        sample_s,
                    };
                    self.fold_reply(p, step, worker, &[], reply, task_failed)?
                }
                ColMsg::StatsReplyFor {
                    iteration,
                    worker,
                    pids,
                    partial,
                    compute_s,
                    sample_s,
                    task_failed,
                } if iteration == step.t && gathering => {
                    let reply = TaskReply {
                        partial,
                        compute_s,
                        sample_s,
                    };
                    self.fold_reply(p, step, worker, &pids, reply, task_failed)?
                }
                ColMsg::UpdateAck {
                    iteration,
                    worker,
                    compute_s,
                } if iteration == step.t => match acks.as_deref_mut() {
                    Some(a) if !a.acked[worker] => {
                        a.acked[worker] = true;
                        a.update_times[worker] = compute_s;
                        true
                    }
                    _ => false,
                },
                ColMsg::WorkerPanic { worker, .. } => {
                    let how = DetectionMethod::PanicReport;
                    self.worker_lost(p, step, worker, how, false, acks.as_deref_mut())?;
                    true
                }
                // Late answers from an earlier iteration or the other half
                // of this one, and stray control answers from resolved
                // recoveries.
                ColMsg::StatsReply { .. }
                | ColMsg::StatsReplyFor { .. }
                | ColMsg::UpdateAck { .. }
                | ColMsg::ProbeAck { .. }
                | ColMsg::ShardInstalled { .. } => false,
                // Worker-bound commands echoed back (chaos, a misrouted
                // frame) or stale loading-phase acks: noise on the
                // master's mailbox. Named explicitly — this arm is the
                // master side's decision record for every ColMsg variant
                // it does not service, and protocol-conformance holds it
                // to that.
                other @ (ColMsg::LoadBlock(..)
                | ColMsg::ReloadBlock(..)
                | ColMsg::Workset { .. }
                | ColMsg::LoadDone { .. }
                | ColMsg::ReloadDone { .. }
                | ColMsg::LoadAck { .. }
                | ColMsg::ReloadAck { .. }
                | ColMsg::ComputeStats { .. }
                | ColMsg::ComputeStatsFor { .. }
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
                    let phase = if gathering { "gather" } else { "update" };
                    eprintln!(
                        "master: dropping unexpected {} during {phase}",
                        other.name()
                    );
                    false
                }
            };
            if progress {
                wait_until = Instant::now() + detect;
            }
        }
    }
}

fn stamp(cfg: &ColumnSgdConfig, plan: &FailurePlan, slots: usize) -> RunStamp {
    RunStamp {
        config_hash: cfg.fingerprint(),
        seed: cfg.seed,
        chaos_seed: plan.chaos.map(|c| c.seed),
        pool_width: cfg.threads_per_worker as u64,
        workers: slots as u64,
    }
}

/// Whether `msg` is direct evidence about worker `w` at iteration `t`: its
/// reply or ack for that iteration, or its panic report.
fn is_evidence(msg: &ColMsg, t: u64, w: usize) -> bool {
    match msg {
        ColMsg::StatsReply {
            iteration, worker, ..
        }
        | ColMsg::StatsReplyFor {
            iteration, worker, ..
        }
        | ColMsg::UpdateAck {
            iteration, worker, ..
        } => *iteration == t && *worker == w,
        ColMsg::WorkerPanic { worker, .. } => *worker == w,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use columnsgd_data::synth;
    use columnsgd_ml::ModelSpec;

    use super::*;

    /// A core over `slots` registered but unstarted worker slots: sends
    /// succeed, nobody answers.
    fn idle_core(slots: usize) -> MasterCore {
        let ds = synth::small_test_dataset(40, 8, 1);
        let cfg = ColumnSgdConfig::new(ModelSpec::Lr);
        let blocks: Vec<Block> = ds
            .into_block_queue(cfg.block_size)
            .iter()
            .cloned()
            .collect();
        MasterCore::new(
            cfg,
            slots,
            NetworkModel::INSTANT,
            FailurePlan::none(),
            Recorder::new(),
            blocks,
            ds.dimension(),
            &ClusterConfig::in_proc(),
            vec![WorkerScript::default(); slots],
            false,
            0,
        )
        .expect("bring-up")
    }

    /// A placement the fold tests never consult.
    struct NoPlacement;

    impl Placement for NoPlacement {
        const LABEL: &'static str = "test";
        fn place(&mut self, _: &mut MasterCore, _: &mut Step) -> Result<(), TrainError> {
            unreachable!()
        }
        fn worker_down(
            &mut self,
            _: &mut MasterCore,
            _: &mut Step,
            _: Lost,
        ) -> Result<Vec<usize>, TrainError> {
            unreachable!()
        }
        fn reduce(
            &mut self,
            _: &MasterCore,
            _: &Step,
            _: Straggler,
        ) -> Result<Reduced, TrainError> {
            unreachable!()
        }
        fn finish_update(
            &mut self,
            _: &mut MasterCore,
            _: &mut Step,
            _: &mut [f64],
            _: Straggler,
        ) -> Result<f64, TrainError> {
            unreachable!()
        }
    }

    /// A step over one whole-worker task per slot, as the static engine
    /// places them.
    fn whole_worker_step(slots: usize) -> Step {
        let mut step = Step::new(slots);
        step.tasks
            .extend((0..slots).map(|w| Task::new(w, Vec::new(), None)));
        step
    }

    fn reply(partial: Vec<f64>, compute_s: f64, sample_s: f64) -> TaskReply {
        TaskReply {
            partial,
            compute_s,
            sample_s,
        }
    }

    #[test]
    fn compute_time_charges_only_the_counted_attempt() {
        // Regression: a scripted TaskFailure used to leave its compute
        // time accumulated (`+=`) on top of the successful retry's, so a
        // worker that failed once was billed for both attempts.
        let mut core = idle_core(2);
        let mut step = whole_worker_step(2);
        let p = &mut NoPlacement;

        // Attempt 0 throws after burning 5 s: logged, retried, nothing
        // billed, no partial kept.
        let failed = core.fold_reply(p, &mut step, 1, &[], reply(Vec::new(), 5.0, 1.0), true);
        assert!(failed.expect("within the retry budget"));
        assert_eq!(step.lane_times(2), (vec![0.0, 0.0], vec![0.0, 0.0]));
        assert!(step.tasks[1].reply.is_none());
        assert_eq!((step.recovery.len(), step.attempts[1]), (1, 1));
        assert_eq!(step.recovery[0].detection, DetectionMethod::ErrorReply);

        // Attempt 1 succeeds in 2 s: kept and billed exactly 2 s.
        let kept = core.fold_reply(p, &mut step, 1, &[], reply(vec![1.0], 2.0, 0.5), false);
        assert!(kept.expect("fold"));
        assert_eq!(step.lane_times(2), (vec![0.0, 2.0], vec![0.0, 0.5]));

        // A duplicate reply (chaos) answers nothing and must change
        // neither the partial nor the bill.
        let dup = core.fold_reply(p, &mut step, 1, &[], reply(vec![9.0], 9.0, 9.0), false);
        assert!(!dup.expect("fold"));
        assert_eq!(step.lane_times(2), (vec![0.0, 2.0], vec![0.0, 0.5]));
        let kept = step.tasks[1].reply.as_ref().expect("kept reply");
        assert_eq!(kept.partial, vec![1.0]);
    }

    #[test]
    fn crash_discards_partial_and_its_bill() {
        let mut core = idle_core(2);
        let mut step = whole_worker_step(2);
        let p = &mut NoPlacement;
        let first = core.fold_reply(p, &mut step, 0, &[], reply(vec![3.0], 4.0, 0.25), false);
        assert!(first.expect("fold"));
        // What a crash does to the pre-crash reply (the respawned
        // incarnation's reply, and only it, may be counted).
        step.tasks[0].reply = None;
        assert_eq!(step.lane_times(2), (vec![0.0, 0.0], vec![0.0, 0.0]));
        // The respawned incarnation's reply is then billed normally.
        let second = core.fold_reply(p, &mut step, 0, &[], reply(vec![7.0], 1.0, 0.125), false);
        assert!(second.expect("fold"));
        assert_eq!(step.lane_times(2), (vec![1.0, 0.0], vec![0.125, 0.0]));
        let kept = step.tasks[0].reply.as_ref().expect("kept reply");
        assert_eq!(kept.partial, vec![7.0]);
    }

    /// A trace that disagrees with the meter ends the run with a typed
    /// error — for both engines, since both close through here — never a
    /// panic.
    #[test]
    fn trace_meter_divergence_is_a_typed_error() {
        let core = idle_core(1);
        assert!(core.rt.finish_train().is_ok(), "empty trace, empty meter");
        // Bytes the meter saw but the trace did not.
        core.rt
            .traffic
            .record(NodeId::Worker(0), NodeId::Master, 64);
        match core.rt.finish_train() {
            Err(TrainError::Internal(why)) => assert!(why.contains("diverge"), "{why}"),
            other => panic!("expected TrainError::Internal, got {other:?}"),
        }
    }
}
