//! The master core: everything the static and the elastic engine do the
//! same way.
//!
//! Both engines drive Algorithm 3 from one master endpoint and differ only
//! in *who* they drive (a fixed worker set with bulk loading, respawn and
//! S-backup groups, versus a membership state machine with shard
//! migration and speculation). What does not depend on that lives here,
//! once: the buffered mailbox with its absolute detection deadlines, the
//! probe that classifies a silent worker, the retry budget, the recovery
//! ledger, load pricing, the master-side label lookup, the per-superstep
//! tail (trace spans → loss → clock → curve → metrics → live tail →
//! monitor), the model gather, the end-of-train trace↔meter
//! reconciliation, and the workers themselves: the core owns the one
//! [`Host`] the worker slots run on, supplies its [`Launcher`], and stops
//! the workers when it is dropped.

use std::collections::{BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use columnsgd_cluster::clock::IterationTime;
use columnsgd_cluster::telemetry::{KernelRecord, MetricsRegistry, Phase, RunStamp, SuperstepSpan};
use columnsgd_cluster::{
    spawn_guarded, ClusterConfig, Endpoint, Envelope, FailurePlan, Host, Launcher, Monitor,
    NetError, NetworkModel, NodeId, Recorder, SimClock, SuperstepObs, TrafficStats,
};
use columnsgd_data::block::Block;
use columnsgd_data::{ColumnPartitioner, TwoPhaseIndex};
use columnsgd_ml::metrics::Curve;
use columnsgd_ml::ParamSet;

use crate::config::ColumnSgdConfig;
use crate::error::{RecoveryEvent, TrainError};
use crate::host::{BootSpec, ColBoot};
use crate::msg::ColMsg;
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

/// One finished superstep's measurements, handed to
/// [`MasterCore::finish_superstep`]. Per-slot slices are indexed by worker
/// slot.
pub(crate) struct Superstep<'a> {
    pub t: u64,
    /// Telemetry-only: the sampling/assembly slice of each compute time.
    pub sample_times: &'a [f64],
    pub compute_times: &'a [f64],
    /// What the monitor's straggler detector sees per slot (the barrier's
    /// view; the elastic engine fills idle slots with the active median).
    pub observed: &'a [f64],
    pub stat_phase: f64,
    /// `(modeled seconds from metered bytes, measured barrier wall)`.
    pub gather: (f64, f64),
    /// `(modeled seconds, measured barrier wall)`.
    pub bcast: (f64, f64),
    pub update_times: &'a [f64],
    pub upd_phase: f64,
    /// Simulated seconds of detection waits and recovery this iteration.
    pub charge: f64,
    /// Replies folded into `agg` (the kernel record's flops proxy).
    pub counted: usize,
    /// The aggregated statistics that were broadcast.
    pub agg: &'a [f64],
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
    pub master: Endpoint<ColMsg>,
    /// Where the worker slots run (threads or processes).
    pub host: Host<ColMsg>,
    /// Messages received while waiting for something more specific
    /// (probe acks, reload acks, install acks); drained before the mailbox.
    pub pending: VecDeque<Envelope<ColMsg>>,
    pub traffic: TrafficStats,
    pub recorder: Recorder,
    pub monitor: Monitor,
    /// Prometheus-style exposition registry (off unless attached). Fed once
    /// per superstep from already-collected observations, so the data plane
    /// pays nothing for it.
    metrics: Option<MetricsRegistry>,
    /// Cumulative (bytes, messages) already exported to the metrics
    /// counters; `TrafficStats::total` is cumulative and counters only
    /// accept deltas.
    metrics_last_traffic: (u64, u64),
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
    /// misattribute batch labels — and [`TrainError::InvalidPlan`] for a
    /// failure plan that names workers outside the slots.
    pub fn open_run(
        mut cfg: ColumnSgdConfig,
        slots: usize,
        net: &NetworkModel,
        plan: &FailurePlan,
        blocks: &[Block],
        recorder: &Recorder,
    ) -> Result<ColumnSgdConfig, TrainError> {
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
        let traffic = TrafficStats::new();
        let launcher = ColLauncher {
            slots,
            dim,
            cfg,
            scripts,
            start_empty,
            recorder: recorder.clone(),
        };
        let (master, mut host) = Host::bring_up(
            slots,
            cluster,
            traffic.clone(),
            plan.chaos,
            recorder.clone(),
            launcher,
        )
        .map_err(TrainError::LoadFailed)?;
        let connect_wait = Duration::from_millis(cfg.deadline_ms.saturating_mul(10));
        host.start_all(0..initial, connect_wait)
            .map_err(TrainError::LoadFailed)?;
        let index = TwoPhaseIndex::new(blocks.iter().map(|b| (b.id(), b.nrows())), cfg.seed);
        Ok(Self {
            cfg,
            slots,
            net,
            plan,
            master,
            host,
            pending: VecDeque::new(),
            traffic,
            recorder,
            monitor: Monitor::disabled(),
            metrics: None,
            metrics_last_traffic: (0, 0),
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

    /// Pops a buffered message, or waits on the mailbox until the
    /// *absolute* deadline.
    ///
    /// The deadline is an [`Instant`], not a per-call budget: callers set
    /// it once when they start (or make progress on) a barrier and pass
    /// the same value back on every retry. A per-call `Duration` would
    /// restart the full detection window on every received message, so a
    /// trickle of stray traffic (chaos duplicates, late replies from
    /// earlier iterations) could postpone fault detection indefinitely.
    pub fn recv_next(&mut self, deadline: Instant) -> Result<Envelope<ColMsg>, NetError> {
        if let Some(env) = self.pending.pop_front() {
            return Ok(env);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(NetError::Timeout);
        }
        self.master.recv_timeout(left)
    }

    /// Waits up to `wait` for the first message `wanted` accepts and
    /// returns it, buffering everything else (in-flight training traffic)
    /// for the caller's main loop. `Ok(None)` on timeout.
    pub fn await_reply(
        &mut self,
        t: u64,
        wait: Duration,
        wanted: impl Fn(&ColMsg) -> bool,
    ) -> Result<Option<Envelope<ColMsg>>, TrainError> {
        let deadline = Instant::now() + wait;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            match self.master.recv_timeout(left) {
                Ok(env) if wanted(&env.payload) => return Ok(Some(env)),
                Ok(env) => self.pending.push_back(env),
                Err(NetError::Timeout) => return Ok(None),
                Err(source) => {
                    return Err(TrainError::Network {
                        iteration: t,
                        source,
                    })
                }
            }
        }
    }

    /// Whether the pending buffer already carries direct evidence about
    /// worker `w` at iteration `t` (so probing it would be redundant).
    pub fn pending_has_evidence(&self, t: u64, w: usize) -> bool {
        self.pending
            .iter()
            .any(|env| is_evidence(&env.payload, t, w))
    }

    /// Probes a silent worker over the reliable control plane to classify
    /// the missing reply: task failure (alive and loaded) or worker
    /// failure (unloaded, unreachable, or silent).
    pub fn probe_worker(&mut self, t: u64, w: usize) -> Result<Probed, TrainError> {
        if self
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
        Ok(match self.await_reply(t, self.deadline(), answer)? {
            None => Probed::Dead,
            Some(Envelope {
                payload: ColMsg::ProbeAck { loaded, .. },
                ..
            }) => Probed::Alive { loaded },
            // The answer was merely slow, or the worker's panic report
            // arrived: let the main loop consume it.
            Some(evidence) => {
                self.pending.push_back(evidence);
                Probed::Deferred
            }
        })
    }

    /// Increments a worker's attempt counter, failing when the retry
    /// budget (`max_task_retries`) is exhausted.
    pub fn bump_attempts(&self, t: u64, w: usize, attempts: &mut [u64]) -> Result<(), TrainError> {
        attempts[w] += 1;
        if attempts[w] > self.cfg.max_task_retries {
            return Err(TrainError::RetriesExhausted {
                iteration: t,
                worker: w,
                attempts: attempts[w],
            });
        }
        Ok(())
    }

    /// Logs a recovered fault on both ledgers: the outcome's recovery log
    /// and the telemetry fault stream.
    pub fn note_recovery(&self, ev: RecoveryEvent, recovery: &mut Vec<RecoveryEvent>) {
        self.recorder.fault(ev.to_fault_record());
        recovery.push(ev);
    }

    /// Prices the metered loading traffic into a simulated makespan.
    ///
    /// The master's outgoing stream models the HDFS read; HDFS is a
    /// *distributed* store whose datanodes serve the workers in parallel,
    /// so the source is not a serial lane — only worker lanes (their HDFS
    /// share plus the workset shuffle) bound the makespan.
    pub fn price_load(&self) -> LoadReport {
        let total = self.traffic.total();
        let mut worst = 0.0f64;
        for node in (0..self.slots).map(NodeId::Worker) {
            let sent = self.traffic.sent_by(node);
            let recv = self.traffic.received_by(node);
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

    /// The tail every superstep ends with: trace spans, batch loss, the
    /// simulated clock, the convergence curve, the metrics export, the
    /// live trace tail, and the online monitor.
    ///
    /// # Errors
    /// [`TrainError::Diverged`] when the monitor's loss guard trips.
    pub fn finish_superstep(
        &mut self,
        s: &Superstep<'_>,
        clock: &mut SimClock,
        curve: &mut Curve,
    ) -> Result<(), TrainError> {
        if self.recorder.is_enabled() {
            self.emit_superstep(s);
        }
        let loss = self
            .cfg
            .model
            .loss_from_stats(&self.batch_labels(s.t), s.agg);
        if s.charge > 0.0 {
            clock.charge(s.charge);
        }
        clock.record(IterationTime {
            compute_s: s.stat_phase + s.upd_phase,
            comm_s: s.gather.0 + s.bcast.0,
            overhead_s: self.net.scheduling_overhead_s,
        });
        curve.push(s.t, clock.elapsed_s(), loss);
        self.export_metrics(loss, clock.elapsed_s(), s.compute_times, s.stat_phase);
        // Live tail: append this superstep's merged events to the attached
        // trace file (no-op unless a sink is attached). A full disk must
        // not kill training.
        let _ = self.recorder.flush_live();

        if self.monitor.is_enabled() {
            // The straggler detector sees the post-injection compute times
            // (what the barrier actually paid); the comm gauge sees
            // cumulative sent bytes and differences them itself.
            let sent: Vec<u64> = self
                .traffic
                .per_worker_sent(self.slots)
                .iter()
                .map(|s| s.bytes)
                .collect();
            self.monitor.observe_superstep(SuperstepObs {
                iteration: s.t,
                compute: s.observed,
                sent_bytes: &sent,
                loss,
                sim_elapsed_s: clock.elapsed_s(),
            });
            if let Some(reason) = self.monitor.should_stop() {
                // The loss guard tripped: surface it through the typed
                // error machinery so callers and telemetry see one unified
                // fatal-fault vocabulary.
                return Err(TrainError::Diverged {
                    iteration: s.t,
                    reason,
                });
            }
        }
        Ok(())
    }

    /// Emits the six per-iteration [`SuperstepSpan`]s plus the
    /// [`KernelRecord`] for the statistics kernel. Sample is an
    /// informational *subset* of compute (same timer); gather/broadcast
    /// carry both the modeled time (from metered bytes) and the measured
    /// wall-clock the master actually spent on the barrier — the
    /// `transport_xval` experiment compares the two across backends;
    /// overhead folds in the scheduling constant plus this iteration's
    /// recovery charge, so the six spans sum to exactly the clock's delta
    /// for the iteration.
    fn emit_superstep(&self, s: &Superstep<'_>) {
        let max = |xs: &[f64]| xs.iter().copied().fold(0.0f64, f64::max);
        let spans = [
            (Phase::Sample, max(s.sample_times), 0.0, s.sample_times),
            (Phase::Compute, s.stat_phase, 0.0, s.compute_times),
            (Phase::Gather, s.gather.0, s.gather.1, &[] as &[f64]),
            (Phase::Broadcast, s.bcast.0, s.bcast.1, &[]),
            (Phase::Update, s.upd_phase, 0.0, s.update_times),
            (
                Phase::Overhead,
                self.net.scheduling_overhead_s + s.charge,
                0.0,
                &[],
            ),
        ];
        for (phase, sim_s, wall_s, per_worker) in spans {
            self.recorder.superstep(SuperstepSpan {
                iteration: s.t,
                phase,
                sim_s,
                measured_s: if phase.is_timer_derived() {
                    sim_s
                } else {
                    wall_s
                },
                per_worker: per_worker.to_vec(),
            });
        }
        self.recorder.kernel(KernelRecord {
            iteration: s.t,
            model: self.cfg.model.label().to_string(),
            batch_size: self.cfg.batch_size as u64,
            pool_width: self.cfg.threads_per_worker as u64,
            flops_proxy: self.cfg.model.flops_proxy(self.cfg.batch_size, s.counted),
            worker: None,
        });
    }

    /// Attaches a [`MetricsRegistry`]: registers the engine's metric
    /// families and, from then on, exports one sample set per superstep
    /// from observations the engine already collects — the data plane is
    /// never metered twice.
    pub fn attach_metrics(&mut self, metrics: MetricsRegistry) {
        metrics.register_counter("columnsgd_supersteps_total", "Completed supersteps.");
        metrics.register_gauge("columnsgd_loss", "Batch loss at the latest superstep.");
        metrics.register_gauge(
            "columnsgd_sim_elapsed_seconds",
            "Simulated seconds elapsed on the cost-model clock.",
        );
        metrics.register_gauge(
            "columnsgd_worker_compute_seconds",
            "Latest statistics-phase compute seconds, per worker.",
        );
        metrics.register_gauge(
            "columnsgd_monitor_alarms_total",
            "Diagnostics alarms raised so far (0 unless a monitor is attached).",
        );
        metrics.register_counter(
            "columnsgd_comm_bytes_total",
            "Bytes metered by the router across all deliveries.",
        );
        metrics.register_counter(
            "columnsgd_comm_messages_total",
            "Messages metered by the router across all deliveries.",
        );
        metrics.register_histogram(
            "columnsgd_superstep_compute_seconds",
            "Effective statistics-phase (barrier) seconds per superstep.",
            &[1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0],
        );
        self.metrics = Some(metrics);
    }

    /// Per-superstep metrics export (no-op unless a registry is attached).
    /// Counters take deltas against the cumulative router meter;
    /// everything else is a point sample of state the superstep already
    /// computed.
    fn export_metrics(
        &mut self,
        loss: f64,
        sim_elapsed_s: f64,
        compute_times: &[f64],
        stat_phase: f64,
    ) {
        let Some(m) = &self.metrics else { return };
        m.counter_add("columnsgd_supersteps_total", &[], 1.0);
        m.gauge_set("columnsgd_loss", &[], loss);
        m.gauge_set("columnsgd_sim_elapsed_seconds", &[], sim_elapsed_s);
        for (w, &c) in compute_times.iter().enumerate() {
            let label = w.to_string();
            m.gauge_set("columnsgd_worker_compute_seconds", &[("worker", &label)], c);
        }
        m.histogram_observe("columnsgd_superstep_compute_seconds", &[], stat_phase);
        let total = self.traffic.total();
        let (last_bytes, last_msgs) = self.metrics_last_traffic;
        m.counter_add(
            "columnsgd_comm_bytes_total",
            &[],
            total.bytes.saturating_sub(last_bytes) as f64,
        );
        m.counter_add(
            "columnsgd_comm_messages_total",
            &[],
            total.messages.saturating_sub(last_msgs) as f64,
        );
        self.metrics_last_traffic = (total.bytes, total.messages);
        if self.monitor.is_enabled() {
            m.gauge_set(
                "columnsgd_monitor_alarms_total",
                &[],
                self.monitor.report().total() as f64,
            );
        }
    }

    /// Closes a completed training loop: folds the master-side profiler
    /// accumulation (engine phases, codec, kernel scopes on hub threads)
    /// into the trace as `prof` events — worker-side samples already
    /// arrived, causally ordered before each superstep's barrier replies —
    /// and checks the trace against the meter.
    ///
    /// # Errors
    /// [`TrainError::Internal`] when the trace's comm records do not
    /// reconcile *exactly* with the router's byte meter (one `CommRecord`
    /// per metered delivery, by construction).
    pub fn finish_train(&self) -> Result<(), TrainError> {
        self.recorder.prof_drain(None);
        if self.recorder.is_enabled() {
            let s = self.recorder.summary();
            let total = self.traffic.total();
            if (s.comm_bytes, s.comm_messages) != (total.bytes, total.messages) {
                return Err(TrainError::Internal(format!(
                    "telemetry comm records diverge from router metering: \
                     trace {}B/{} vs meter {}B/{}",
                    s.comm_bytes, s.comm_messages, total.bytes, total.messages
                )));
            }
        }
        Ok(())
    }

    /// Asks `workers` for their model partitions over the reliable plane
    /// (so chaos cannot wedge it) and returns one `(worker, parts)` per
    /// worker, in arrival order.
    ///
    /// # Errors
    /// [`TrainError::Network`] when a worker cannot answer within the bulk
    /// deadline.
    pub fn fetch_models(&mut self, workers: &[usize]) -> Result<Vec<WorkerParts>, TrainError> {
        let iteration = self.cfg.iterations;
        let net_err = |source| TrainError::Network { iteration, source };
        for &w in workers {
            self.master
                .send_reliable(NodeId::Worker(w), ColMsg::FetchModel)
                .map_err(net_err)?;
        }
        let mut deadline = Instant::now() + self.bulk_deadline();
        let mut replied = BTreeSet::new();
        let mut replies = Vec::with_capacity(workers.len());
        while replies.len() < workers.len() {
            let env = self.recv_next(deadline).map_err(net_err)?;
            let ColMsg::ModelReply { worker, parts } = env.payload else {
                // Leftover training traffic (stale acks, late replies).
                continue;
            };
            if replied.insert(worker) {
                // Progress: a fresh worker answered; restart the clock.
                deadline = Instant::now() + self.bulk_deadline();
                replies.push((worker, parts));
            }
        }
        Ok(replies)
    }

    /// Gathers every model partition from `workers` and reassembles the
    /// full model — an inspection path for tests/examples, not part of the
    /// paper's training protocol (ColumnSGD never materializes the full
    /// model). The first copy of a partition to arrive wins; replicas
    /// carry identical copies after a clean run.
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

impl Drop for MasterCore {
    fn drop(&mut self) {
        for w in self.host.running() {
            // Reliable plane: a chaos-dropped Shutdown would hang the join.
            // Workers may already be gone; ignore errors.
            let _ = self
                .master
                .send_reliable(NodeId::Worker(w), ColMsg::Shutdown);
        }
        self.host.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use columnsgd_data::synth;
    use columnsgd_ml::ModelSpec;

    use super::*;

    /// A trace that disagrees with the meter ends the run with a typed
    /// error — for both engines, since both close through here — never a
    /// panic.
    #[test]
    fn trace_meter_divergence_is_a_typed_error() {
        let ds = synth::small_test_dataset(40, 8, 1);
        let cfg = ColumnSgdConfig::new(ModelSpec::Lr);
        let blocks: Vec<Block> = ds
            .into_block_queue(cfg.block_size)
            .iter()
            .cloned()
            .collect();
        let core = MasterCore::new(
            cfg,
            1,
            NetworkModel::INSTANT,
            FailurePlan::none(),
            Recorder::new(),
            blocks,
            ds.dimension(),
            &ClusterConfig::in_proc(),
            vec![WorkerScript::default()],
            false,
            0,
        )
        .expect("bring-up");
        assert!(core.finish_train().is_ok(), "empty trace, empty meter");
        // Bytes the meter saw but the trace did not.
        core.traffic.record(NodeId::Worker(0), NodeId::Master, 64);
        match core.finish_train() {
            Err(TrainError::Internal(why)) => assert!(why.contains("diverge"), "{why}"),
            other => panic!("expected TrainError::Internal, got {other:?}"),
        }
    }
}
