//! The RowSGD driver: loads row partitions, runs the per-variant training
//! loop, and prices every iteration with the same network model used for
//! ColumnSGD.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use columnsgd_cluster::clock::IterationTime;
use columnsgd_cluster::telemetry::{KernelRecord, Phase, ProfScope, RunStamp, SuperstepSpan};
use columnsgd_cluster::wire::ENVELOPE_BYTES;
use columnsgd_cluster::{
    ClusterConfig, Diagnostics, Endpoint, Host, Launcher, Monitor, NetError, NetworkModel, NodeId,
    Recorder, SimClock, SuperstepObs, TrafficStats, Wire,
};
use columnsgd_core::TrainError;
use columnsgd_data::Dataset;
use columnsgd_linalg::CsrMatrix;
use columnsgd_ml::metrics::Curve;
use columnsgd_ml::{OptimizerState, ParamSet, SparseGrad};

use crate::config::{RowSgdConfig, RowSgdVariant};
use crate::host::RowBootSpec;
use crate::msg::RowMsg;
use crate::worker::run_row_worker;

/// Serialization cost per object during loading (same constant as the
/// ColumnSGD engine, so Figure 7 comparisons are apples to apples).
pub const PER_OBJECT_S: f64 = 20e-6;

// The master receive deadline comes from `RowSgdConfig::deadline_ms`:
// RowSGD is the baseline, not the subject of the fault-tolerance study, so
// it does not recover — but a dead worker must surface as a typed
// `TrainError` within that bound, never as a panic or a silent hang.

/// Result of a RowSGD training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Batch-loss convergence curve.
    pub curve: Curve,
    /// The simulated clock.
    pub clock: SimClock,
    /// The run's identity stamp (same vocabulary as the ColumnSGD
    /// engine's outcome, so baseline traces are comparable).
    pub run: RunStamp,
    /// End-of-run diagnostics from the online [`Monitor`] (empty unless
    /// one was attached with [`RowSgdEngine::attach_monitor`]).
    pub diagnostics: Diagnostics,
}

impl TrainOutcome {
    /// Mean per-iteration simulated time over the final `n` iterations.
    pub fn mean_iteration_s(&self, n: usize) -> f64 {
        self.clock.mean_iteration_s(n)
    }
}

/// Cost report for row-oriented data loading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Serialized objects (row-by-row pipeline: one per data point, plus
    /// one per shuffled point under repartitioning).
    pub objects: u64,
    /// Total bytes shipped.
    pub bytes: u64,
    /// Simulated loading time.
    pub sim_time_s: f64,
}

/// How a RowSGD worker is launched on the shared [`Host`]. The baseline
/// detects faults but never recovers, so its threads are plain (a panic
/// is not reported, the master's deadline finds out) and nothing is
/// respawned.
struct RowLauncher {
    k: usize,
    dim: u64,
    cfg: RowSgdConfig,
    recorder: Recorder,
}

impl Launcher<RowMsg> for RowLauncher {
    fn worker_bin(&self) -> &'static str {
        "rowsgd-worker"
    }

    fn thread(&self, w: usize, ep: Endpoint<RowMsg>) -> std::io::Result<JoinHandle<()>> {
        let (k, dim, cfg) = (self.k, self.dim, self.cfg);
        let rec = self.recorder.clone();
        std::thread::Builder::new()
            .name(format!("rowsgd-worker{w}"))
            .spawn(move || run_row_worker(ep, w, k, dim, cfg, rec))
    }

    fn boot_line(&self, w: usize, hub: SocketAddr) -> String {
        let boot = RowBootSpec {
            addr: hub.to_string(),
            worker: w,
            k: self.k,
            dim: self.dim,
            job: self.cfg,
        };
        boot.to_hex_line()
    }
}

/// The RowSGD driver (master + virtual servers + K workers).
pub struct RowSgdEngine {
    cfg: RowSgdConfig,
    k: usize,
    p: usize,
    net: NetworkModel,
    master: Endpoint<RowMsg>,
    host: Host<RowMsg>,
    traffic: TrafficStats,
    recorder: Recorder,
    monitor: Monitor,
    /// Per-worker compute times of the iteration in flight, stashed by the
    /// variant loops for the monitor (empty when no monitor is attached).
    last_compute: Vec<f64>,
    /// The master/server-side model (absent for MLlib*, whose model lives
    /// in worker replicas). Keys are hash-sharded over the P servers
    /// ([`RowSgdEngine::server_of`]), as real parameter servers do — range
    /// sharding would hot-spot one server under Zipf-distributed features.
    params: Option<(ParamSet, OptimizerState)>,
    dim: u64,
    rows_total: usize,
    load_report: LoadReport,
}

impl RowSgdEngine {
    /// Spawns K workers, ships them their row partitions, and initializes
    /// the master/server-side model.
    ///
    /// # Errors
    /// [`TrainError::InvalidPlan`] on an empty dataset or `k == 0`;
    /// [`TrainError::WorkerLost`]/[`TrainError::Network`] when loading
    /// cannot complete.
    pub fn new(
        dataset: &Dataset,
        k: usize,
        cfg: RowSgdConfig,
        net: NetworkModel,
    ) -> Result<Self, TrainError> {
        Self::with_repartition(dataset, k, cfg, net, false)
    }

    /// Like [`RowSgdEngine::new`], optionally simulating a global row
    /// repartitioning after the initial load (the "MLlib-Repartition"
    /// configuration of Figure 7).
    pub fn with_repartition(
        dataset: &Dataset,
        k: usize,
        cfg: RowSgdConfig,
        net: NetworkModel,
        repartition: bool,
    ) -> Result<Self, TrainError> {
        Self::clustered(
            dataset,
            k,
            cfg,
            net,
            repartition,
            Recorder::disabled(),
            &ClusterConfig::in_proc(),
        )
    }

    /// [`RowSgdEngine::new`] with a telemetry [`Recorder`] attached — the
    /// baseline emits the same event vocabulary as the ColumnSGD engine
    /// (comm records, superstep spans, kernel records), so traces from
    /// both sides of a Figure 7 comparison line up — and an explicit
    /// transport: the same [`ClusterConfig`] backends as the ColumnSGD
    /// engine (in-process channels, or one `rowsgd-worker` OS process per
    /// worker over loopback TCP).
    pub fn new_clustered(
        dataset: &Dataset,
        k: usize,
        cfg: RowSgdConfig,
        net: NetworkModel,
        recorder: Recorder,
        cluster: &ClusterConfig,
    ) -> Result<Self, TrainError> {
        Self::clustered(dataset, k, cfg, net, false, recorder, cluster)
    }

    #[allow(clippy::too_many_arguments)]
    fn clustered(
        dataset: &Dataset,
        k: usize,
        cfg: RowSgdConfig,
        net: NetworkModel,
        repartition: bool,
        recorder: Recorder,
        cluster: &ClusterConfig,
    ) -> Result<Self, TrainError> {
        if dataset.is_empty() {
            return Err(TrainError::InvalidPlan(
                "cannot train on an empty dataset".to_string(),
            ));
        }
        if k == 0 {
            return Err(TrainError::InvalidPlan(
                "need at least one worker".to_string(),
            ));
        }
        recorder.set_pricing(net.link_pricing());
        recorder.begin(RunStamp {
            config_hash: cfg.fingerprint(),
            seed: cfg.seed,
            chaos_seed: None,
            pool_width: 1,
            workers: k as u64,
        });
        let traffic = TrafficStats::new();
        let p = cfg.num_servers(k);
        let dim = dataset.dimension();
        let launcher = RowLauncher {
            k,
            dim,
            cfg,
            recorder: recorder.clone(),
        };
        let (master, mut host) = Host::bring_up(
            k,
            cluster,
            traffic.clone(),
            None,
            recorder.clone(),
            launcher,
        )
        .map_err(TrainError::LoadFailed)?;
        let connect_wait = Duration::from_millis(cfg.deadline_ms.saturating_mul(10));
        host.start_all(0..k, connect_wait)
            .map_err(TrainError::LoadFailed)?;

        let params = if cfg.variant == RowSgdVariant::MLlibStar {
            None
        } else {
            let params = cfg.model.init_params(dim as usize, cfg.seed, |s| s as u64);
            let opt = OptimizerState::for_params(cfg.optimizer, &params);
            Some((params, opt))
        };

        let mut engine = Self {
            cfg,
            k,
            p,
            net,
            master,
            host,
            traffic,
            recorder,
            monitor: Monitor::disabled(),
            last_compute: Vec::new(),
            params,
            dim,
            rows_total: dataset.len(),
            load_report: LoadReport {
                objects: 0,
                bytes: 0,
                sim_time_s: 0.0,
            },
        };
        engine.load(dataset, repartition)?;
        Ok(engine)
    }

    /// The configured master receive deadline.
    fn deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.deadline_ms)
    }

    /// Waits for the next message against an **absolute** deadline,
    /// converting a silent cluster into a typed error attributed to
    /// `iteration`.
    ///
    /// The deadline is an [`Instant`] rather than a per-call [`Duration`]
    /// on purpose: callers loop around this receive while unexpected
    /// messages dribble in, and a per-call duration would restart the full
    /// detection window on every stray — a confused worker spamming
    /// protocol noise could postpone fault detection indefinitely. Callers
    /// extend the deadline only on *progress* (an accepted reply).
    fn recv_next(&mut self, deadline: Instant, iteration: u64) -> Result<RowMsg, TrainError> {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(TrainError::Network {
                iteration,
                source: NetError::Timeout,
            });
        }
        self.master
            .recv_timeout(left)
            .map(|env| env.payload)
            .map_err(|source| TrainError::Network { iteration, source })
    }

    /// Test hook: makes worker `w` exit its mailbox loop, so the next
    /// gather waits out the deadline and surfaces a typed error — the
    /// poisoned-mailbox regression path.
    #[doc(hidden)]
    pub fn kill_worker(&mut self, w: usize) {
        let _ = self.master.send(NodeId::Worker(w), RowMsg::Shutdown);
    }

    /// Ships each worker its horizontal partition and prices the load:
    /// rows move row-by-row through Spark's pipeline (one object per data
    /// point), optionally followed by a global shuffle.
    #[allow(clippy::needless_range_loop)]
    fn load(&mut self, dataset: &Dataset, repartition: bool) -> Result<(), TrainError> {
        self.traffic.reset();
        // Keep the trace reconciled with the meter across the reset.
        self.recorder.clear_comm();
        let parts = dataset.row_partitions(self.k);
        let mut part_rows = Vec::with_capacity(self.k);
        for (w, part) in parts.iter().enumerate() {
            let rows: Vec<_> = part.iter().cloned().collect();
            part_rows.push(rows.len());
            let csr = CsrMatrix::from_rows(&rows);
            self.master
                .send(NodeId::Worker(w), RowMsg::LoadRows(csr))
                .map_err(|e| TrainError::WorkerLost {
                    worker: w,
                    iteration: 0,
                    detail: format!("row partition undeliverable: {e}"),
                })?;
        }
        let mut acks = 0;
        let mut wait_until = Instant::now() + self.deadline();
        while acks < self.k {
            match self
                .recv_next(wait_until, 0)
                .map_err(|e| TrainError::LoadFailed(e.to_string()))?
            {
                RowMsg::LoadAck { .. } => {
                    acks += 1;
                    wait_until = Instant::now() + self.deadline();
                }
                other => log_unexpected("load", &other),
            }
        }
        if repartition {
            // Global shuffle: every row crosses the network once more,
            // worker → worker. Price it as a second pass of the data.
            for (w, &rows) in part_rows.iter().enumerate() {
                let bytes = self.traffic.link(NodeId::Master, NodeId::Worker(w)).bytes;
                self.master.router().meter_as(
                    NodeId::Worker(w),
                    NodeId::Worker((w + 1) % self.k),
                    bytes as usize,
                    "Shuffle",
                );
                let _ = rows;
            }
        }
        // Pricing: a row-by-row pipeline pays one serialized object per
        // data point at the parsing node, twice under repartitioning.
        let passes = if repartition { 2 } else { 1 };
        let total = self.traffic.total();
        let mut worst = 0.0f64;
        for w in 0..self.k {
            let node = NodeId::Worker(w);
            let bytes = self.traffic.received_by(node).bytes + self.traffic.sent_by(node).bytes;
            let objects = part_rows[w] * passes;
            worst = worst
                .max(bytes as f64 / self.net.bandwidth_bytes_per_s + objects as f64 * PER_OBJECT_S);
        }
        self.load_report = LoadReport {
            objects: (self.rows_total * passes) as u64,
            bytes: total.bytes,
            sim_time_s: worst + self.net.latency_s,
        };
        Ok(())
    }

    /// The loading cost report.
    pub fn load_report(&self) -> LoadReport {
        self.load_report
    }

    /// The shared traffic meter.
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// The variant label (paper naming).
    pub fn label(&self) -> &'static str {
        self.cfg.variant.label()
    }

    /// The server owning key `j` (splitmix64 hash sharding).
    fn server_of(&self, j: u64) -> usize {
        let mut z = j.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        (z % self.p as u64) as usize
    }

    /// Dense-pull bytes of server `p`'s shard (balanced by hashing).
    fn shard_unit_dims(&self) -> u64 {
        self.dim.div_ceil(self.p as u64)
    }

    /// Runs the training loop and returns the outcome.
    ///
    /// # Errors
    /// RowSGD is the baseline: it detects faults (typed, within the
    /// configured deadline) but does not recover from them. A dead or
    /// silent worker surfaces as [`TrainError::Network`] or
    /// [`TrainError::WorkerLost`]; protocol invariant violations surface
    /// as [`TrainError::Internal`].
    pub fn train(&mut self) -> Result<TrainOutcome, TrainError> {
        let mut clock = SimClock::new();
        let mut curve = Curve::new(self.cfg.variant.label());
        for t in 0..self.cfg.iterations {
            let it = {
                let _prof = ProfScope::enter("rowsgd_superstep");
                match self.cfg.variant {
                    RowSgdVariant::MLlib => self.iteration_mllib(t)?,
                    RowSgdVariant::MLlibStar => self.iteration_mllib_star(t)?,
                    RowSgdVariant::PsDense => self.iteration_ps(t, false)?,
                    RowSgdVariant::PsSparse => self.iteration_ps(t, true)?,
                }
            };
            if self.recorder.is_enabled() {
                self.recorder.superstep(SuperstepSpan {
                    iteration: t,
                    phase: Phase::Overhead,
                    sim_s: it.0.overhead_s,
                    measured_s: 0.0,
                    per_worker: Vec::new(),
                });
                self.recorder.kernel(KernelRecord {
                    iteration: t,
                    model: self.cfg.model.label().to_string(),
                    batch_size: self.cfg.batch_size as u64,
                    pool_width: 1,
                    flops_proxy: self.cfg.model.flops_proxy(self.cfg.batch_size, self.k),
                    worker: None,
                });
            }
            clock.record(it.0);
            curve.push(t, clock.elapsed_s(), it.1);

            if self.monitor.is_enabled() {
                let sent: Vec<u64> = self
                    .traffic
                    .per_worker_sent(self.k)
                    .iter()
                    .map(|s| s.bytes)
                    .collect();
                let compute = std::mem::take(&mut self.last_compute);
                self.monitor.observe_superstep(SuperstepObs {
                    iteration: t,
                    compute: &compute,
                    sent_bytes: &sent,
                    loss: it.1,
                    sim_elapsed_s: clock.elapsed_s(),
                });
                if self.monitor.should_stop().is_some() {
                    // The baseline does not recover; a loss guard trip
                    // simply ends the run early with the diagnostics
                    // explaining why (not an error: the partial curve is
                    // the experiment's result).
                    break;
                }
            }
        }
        // Fold any profiler accumulation into the trace (no-op unless both
        // tracing and profiling are enabled). The baseline is in-process,
        // so worker-thread samples merge here with `worker: null`.
        self.recorder.prof_drain(None);
        if self.recorder.is_enabled() {
            // Same invariant as the ColumnSGD engine: the trace's comm
            // records must reconcile exactly with the router's meter.
            let s = self.recorder.summary();
            let total = self.traffic.total();
            assert_eq!(
                (s.comm_bytes, s.comm_messages),
                (total.bytes, total.messages),
                "telemetry comm records diverge from router metering"
            );
        }
        Ok(TrainOutcome {
            curve,
            clock,
            run: self.run_stamp(),
            diagnostics: self.monitor.report(),
        })
    }

    /// The identity stamp describing this engine's run.
    pub fn run_stamp(&self) -> RunStamp {
        RunStamp {
            config_hash: self.cfg.fingerprint(),
            seed: self.cfg.seed,
            chaos_seed: None,
            pool_width: 1,
            workers: self.k as u64,
        }
    }

    /// The attached telemetry recorder (disabled unless built via
    /// [`RowSgdEngine::new_clustered`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Attaches an online diagnostics [`Monitor`] (same detectors as the
    /// ColumnSGD engine). A monitor stop request ends the baseline run
    /// early rather than erroring — the partial curve is the result — and
    /// the outcome's diagnostics carry the reason.
    pub fn attach_monitor(&mut self, monitor: Monitor) {
        self.monitor = monitor;
    }

    /// The attached diagnostics monitor (disabled unless
    /// [`RowSgdEngine::attach_monitor`] was called).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Emits the compute/gather/broadcast/update spans of one iteration
    /// (RowSGD has no separate sampling phase; Overhead is emitted by the
    /// main loop from the variant's scheduling constant).
    fn emit_spans(
        &self,
        t: u64,
        per_worker: &[f64],
        compute_s: f64,
        gather_s: f64,
        bcast_s: f64,
        update_s: f64,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let spans = [
            (Phase::Compute, compute_s, per_worker),
            (Phase::Gather, gather_s, &[] as &[f64]),
            (Phase::Broadcast, bcast_s, &[]),
            (Phase::Update, update_s, &[]),
        ];
        for (phase, sim_s, pw) in spans {
            self.recorder.superstep(SuperstepSpan {
                iteration: t,
                phase,
                sim_s,
                measured_s: if phase.is_timer_derived() { sim_s } else { 0.0 },
                per_worker: pw.to_vec(),
            });
        }
    }

    /// One MLlib iteration: broadcast the dense model, gather dense
    /// gradients, update at the master (Algorithm 2).
    fn iteration_mllib(&mut self, t: u64) -> Result<(IterationTime, f64), TrainError> {
        // The model moves into one message that is broadcast by reference
        // and moves back out: no per-worker copy.
        let (params, _) = self
            .params
            .as_mut()
            .ok_or_else(|| TrainError::Internal("MLlib master has no model".to_string()))?;
        let msg = RowMsg::FullModelGrad {
            iteration: t,
            params: std::mem::take(params),
        };
        let workers: Vec<NodeId> = (0..self.k).map(NodeId::Worker).collect();
        let sent = self.master.broadcast(&workers, &msg);
        let model_msg_bytes = (msg.wire_size() + ENVELOPE_BYTES) as u64;
        if let RowMsg::FullModelGrad { params: model, .. } = msg {
            *params = model;
        }
        for (w, result) in sent.into_iter().enumerate() {
            result.map_err(|e| TrainError::WorkerLost {
                worker: w,
                iteration: t,
                detail: format!("model broadcast undeliverable: {e}"),
            })?;
        }
        // Buffer replies per worker and fold them in worker-id order below:
        // floating-point sums depend on fold order, so aggregating in
        // arrival order would make the loss trajectory depend on thread
        // (or socket) scheduling — nondeterministic run to run, and
        // divergent across transport backends.
        let mut replies: Vec<Option<(ParamSet, f64)>> = (0..self.k).map(|_| None).collect();
        let mut grad_bytes = 0u64;
        let mut compute = vec![0.0; self.k];
        let mut got = 0;
        let mut wait_until = Instant::now() + self.deadline();
        while got < self.k {
            let msg = self.recv_next(wait_until, t)?;
            // Priced exactly as the router metered it.
            let reply_bytes = (msg.wire_size() + ENVELOPE_BYTES) as u64;
            match msg {
                RowMsg::GradReplyDense {
                    worker,
                    grad,
                    loss,
                    compute_s,
                    ..
                } => {
                    wait_until = Instant::now() + self.deadline();
                    grad_bytes = reply_bytes;
                    compute[worker] = compute_s;
                    if replies[worker].replace((grad, loss)).is_none() {
                        got += 1;
                    }
                }
                other => log_unexpected("MLlib gather", &other),
            }
        }
        let mut agg: Option<ParamSet> = None;
        let mut losses = Vec::with_capacity(self.k);
        for (w, reply) in replies.into_iter().enumerate() {
            let (grad, loss) = reply.ok_or_else(|| {
                TrainError::Internal(format!(
                    "worker {w} counted as replied at iteration {t} but left no gradient"
                ))
            })?;
            match &mut agg {
                None => agg = Some(grad),
                Some(a) => {
                    for (ab, gb) in a.blocks.iter_mut().zip(&grad.blocks) {
                        ab.axpy(1.0, gb);
                    }
                }
            }
            losses.push(loss);
        }
        let agg = agg.ok_or_else(|| {
            TrainError::Internal(format!("iteration {t} gathered zero gradients"))
        })?;
        let start = Instant::now();
        self.apply_dense(&agg)?;
        let master_compute = start.elapsed().as_secs_f64();

        let bcast_s = self.net.broadcast_time(model_msg_bytes, self.k);
        let gather_s = self.net.gather_time(&vec![grad_bytes; self.k]);
        let compute_s = compute.iter().copied().fold(0.0, f64::max);
        self.emit_spans(t, &compute, compute_s, gather_s, bcast_s, master_compute);
        if self.monitor.is_enabled() {
            self.last_compute = compute;
        }
        Ok((
            IterationTime {
                compute_s: compute_s + master_compute,
                comm_s: gather_s + bcast_s,
                overhead_s: self.net.scheduling_overhead_s,
            },
            mean(&losses),
        ))
    }

    /// One MLlib* iteration: local steps + ring AllReduce model averaging.
    fn iteration_mllib_star(&mut self, t: u64) -> Result<(IterationTime, f64), TrainError> {
        for w in 0..self.k {
            self.master
                .send(NodeId::Worker(w), RowMsg::LocalStep { iteration: t })
                .map_err(|e| TrainError::WorkerLost {
                    worker: w,
                    iteration: t,
                    detail: format!("local-step dispatch undeliverable: {e}"),
                })?;
        }
        // Per-worker slots, not arrival order: the mean below must fold
        // losses in a scheduling-independent order (see iteration_mllib).
        let mut losses: Vec<Option<f64>> = vec![None; self.k];
        let mut compute = vec![0.0; self.k];
        let mut got = 0;
        let mut wait_until = Instant::now() + self.deadline();
        while got < self.k {
            match self.recv_next(wait_until, t)? {
                RowMsg::StepDone {
                    worker,
                    loss,
                    compute_s,
                    ..
                } => {
                    compute[worker] = compute_s;
                    if losses[worker].replace(loss).is_none() {
                        got += 1;
                    }
                    wait_until = Instant::now() + self.deadline();
                }
                other => log_unexpected("MLlib* gather", &other),
            }
        }
        let losses: Vec<f64> = losses.into_iter().flatten().collect();
        let model_bytes = 8 * self.cfg.model.num_params(self.dim);
        let compute_s = compute.iter().copied().fold(0.0, f64::max);
        // The ring AllReduce is both reduce and distribute; file it under
        // Gather so the breakdown's comm column carries it once.
        let allreduce_s = self.net.allreduce_time(model_bytes, self.k);
        self.emit_spans(t, &compute, compute_s, allreduce_s, 0.0, 0.0);
        if self.monitor.is_enabled() {
            self.last_compute = compute;
        }
        Ok((
            IterationTime {
                compute_s,
                comm_s: allreduce_s,
                overhead_s: self.net.scheduling_overhead_s,
            },
            mean(&losses),
        ))
    }

    /// One parameter-server iteration (dense or sparse pull).
    // Indexed loops: `p`/`w` are node ids of the simulated server plane.
    #[allow(clippy::needless_range_loop)]
    fn iteration_ps(
        &mut self,
        t: u64,
        sparse_pull: bool,
    ) -> Result<(IterationTime, f64), TrainError> {
        let router = self.master.router().clone();
        let unit = 8 * self.cfg.model.widths().iter().sum::<usize>() as u64;
        let mut pull_keys_per_server = vec![0u64; self.p];
        let mut pull_down_per_server: Vec<Vec<u64>> = vec![Vec::new(); self.p];
        let mut pull_up_per_server: Vec<Vec<u64>> = vec![Vec::new(); self.p];
        let mut compute = vec![0.0; self.k];

        if sparse_pull {
            // Round 1: workers report the indices their batch needs. The
            // request is driver-loop plumbing (real MXNet workers are
            // self-driving), so it is not metered.
            for w in 0..self.k {
                router
                    .send_unmetered(
                        NodeId::Master,
                        NodeId::Worker(w),
                        RowMsg::RequestIndices { iteration: t },
                    )
                    .map_err(|e| TrainError::WorkerLost {
                        worker: w,
                        iteration: t,
                        detail: format!("index request undeliverable: {e}"),
                    })?;
            }
            let mut requests: Vec<Option<Vec<u64>>> = vec![None; self.k];
            let mut got = 0;
            let mut wait_until = Instant::now() + self.deadline();
            while got < self.k {
                match self.recv_next(wait_until, t)? {
                    RowMsg::IndicesReply {
                        worker,
                        indices,
                        compute_s,
                        ..
                    } => {
                        compute[worker] += compute_s;
                        requests[worker] = Some(indices);
                        got += 1;
                        wait_until = Instant::now() + self.deadline();
                    }
                    other => log_unexpected("sparse-pull index round", &other),
                }
            }
            // Round 2: virtual servers answer each worker's pull.
            let (params, _) = self.params.as_ref().ok_or_else(|| {
                TrainError::Internal("parameter-server plane has no model".to_string())
            })?;
            for (w, indices) in requests.into_iter().enumerate() {
                let indices = indices.ok_or_else(|| {
                    TrainError::Internal(format!(
                        "worker {w} counted as replied at iteration {t} but left no indices"
                    ))
                })?;
                // Meter the request + reply on each logical server link.
                for p in 0..self.p {
                    let cnt = indices.iter().filter(|&&j| self.server_of(j) == p).count() as u64;
                    if cnt > 0 {
                        router.meter_as(
                            NodeId::Worker(w),
                            NodeId::Server(p),
                            (8 * cnt) as usize + ENVELOPE_BYTES,
                            "SparsePullReq",
                        );
                        router.meter_as(
                            NodeId::Server(p),
                            NodeId::Worker(w),
                            ((8 + unit) * cnt) as usize + ENVELOPE_BYTES,
                            "SparsePull",
                        );
                        pull_keys_per_server[p] += cnt;
                        pull_up_per_server[p].push(8 * cnt + ENVELOPE_BYTES as u64);
                        pull_down_per_server[p].push((8 + unit) * cnt + ENVELOPE_BYTES as u64);
                    }
                }
                let values = gather_values(&self.cfg.model.widths(), params, &indices);
                router
                    .send_unmetered(
                        NodeId::Master,
                        NodeId::Worker(w),
                        RowMsg::SparseModelGrad {
                            iteration: t,
                            values,
                        },
                    )
                    .map_err(|e| TrainError::WorkerLost {
                        worker: w,
                        iteration: t,
                        detail: format!("sparse pull reply undeliverable: {e}"),
                    })?;
            }
        } else {
            // Dense pull: every worker receives the full model; each
            // server's shard crosses its own logical link.
            let (params, _) = self.params.as_ref().ok_or_else(|| {
                TrainError::Internal("parameter-server plane has no model".to_string())
            })?;
            for w in 0..self.k {
                for p in 0..self.p {
                    let share =
                        self.shard_unit_dims() * unit + ENVELOPE_BYTES as u64 / self.p as u64;
                    router.meter_as(
                        NodeId::Server(p),
                        NodeId::Worker(w),
                        share as usize,
                        "DensePull",
                    );
                    pull_down_per_server[p].push(share);
                }
                router
                    .send_unmetered(
                        NodeId::Master,
                        NodeId::Worker(w),
                        RowMsg::FullModelGrad {
                            iteration: t,
                            params: params.clone(),
                        },
                    )
                    .map_err(|e| TrainError::WorkerLost {
                        worker: w,
                        iteration: t,
                        detail: format!("dense pull undeliverable: {e}"),
                    })?;
            }
        }

        // Gather sparse gradients (push).
        let mut push_keys_per_server = vec![0u64; self.p];
        let mut push_per_server: Vec<Vec<u64>> = vec![Vec::new(); self.p];
        // Buffer pushes per worker and merge in worker-id order below:
        // sparse merges sum overlapping keys, and floating-point sums must
        // not depend on reply arrival order (see iteration_mllib).
        let mut pushes: Vec<Option<(SparseGrad, f64)>> = (0..self.k).map(|_| None).collect();
        let mut got = 0;
        let mut wait_until = Instant::now() + self.deadline();
        while got < self.k {
            match self.recv_next(wait_until, t)? {
                RowMsg::GradReplySparse {
                    worker,
                    grad,
                    loss,
                    compute_s,
                    ..
                } => {
                    wait_until = Instant::now() + self.deadline();
                    compute[worker] += compute_s;
                    if pushes[worker].replace((grad, loss)).is_none() {
                        got += 1;
                    }
                }
                other => log_unexpected("gradient push", &other),
            }
        }
        let mut merged = SparseGrad::default();
        let mut losses = Vec::with_capacity(self.k);
        for (w, push) in pushes.into_iter().enumerate() {
            let (grad, loss) = push.ok_or_else(|| {
                TrainError::Internal(format!(
                    "worker {w} counted as replied at iteration {t} but left no gradient"
                ))
            })?;
            for p in 0..self.p {
                let cnt = grad
                    .indices
                    .iter()
                    .filter(|&&j| self.server_of(j) == p)
                    .count() as u64;
                if cnt > 0 {
                    let bytes = (8 + unit) * cnt + ENVELOPE_BYTES as u64;
                    router.meter_as(
                        NodeId::Worker(w),
                        NodeId::Server(p),
                        bytes as usize,
                        "GradPush",
                    );
                    push_keys_per_server[p] += cnt;
                    push_per_server[p].push(bytes);
                }
            }
            merged = merged.merge(&grad);
            losses.push(loss);
        }
        let start = Instant::now();
        {
            let cfg = self.cfg;
            let (params, opt) = self.params.as_mut().ok_or_else(|| {
                TrainError::Internal("parameter-server plane has no model".to_string())
            })?;
            cfg.model
                .apply_gradient(params, opt, &merged, &cfg.update, cfg.batch_size);
        }
        let server_compute = start.elapsed().as_secs_f64();

        // Pricing: per-server links run in parallel; within one server,
        // transfers serialize.
        let pull_down = per_server_max(&pull_down_per_server, &self.net);
        let pull_up = per_server_max(&pull_up_per_server, &self.net);
        let push = per_server_max(&push_per_server, &self.net);
        // Per-key server processing cost: only the sparse KVStore pays it
        // (MXNet's row-sparse engine); Petuum's dense shards apply pushes
        // with plain array arithmetic.
        let per_key: f64 = if sparse_pull {
            (0..self.p)
                .map(|p| {
                    (pull_keys_per_server[p] + push_keys_per_server[p]) as f64
                        * (unit as f64 / 8.0)
                        * self.cfg.ps_per_key_s
                })
                .fold(0.0, f64::max)
        } else {
            0.0
        };

        let compute_s = compute.iter().copied().fold(0.0, f64::max);
        // Breakdown convention: model distribution (pull) is Broadcast,
        // gradient collection (push + per-key server work) is Gather.
        self.emit_spans(
            t,
            &compute,
            compute_s,
            push + per_key,
            pull_up + pull_down,
            server_compute,
        );
        if self.monitor.is_enabled() {
            self.last_compute = compute;
        }
        Ok((
            IterationTime {
                compute_s: compute_s + server_compute,
                comm_s: pull_up + pull_down + push + per_key,
                overhead_s: self.cfg.ps_scheduling_s,
            },
            mean(&losses),
        ))
    }

    /// Applies a dense aggregated gradient at the master (MLlib path).
    fn apply_dense(&mut self, agg: &ParamSet) -> Result<(), TrainError> {
        let cfg = self.cfg;
        let (params, opt) = self
            .params
            .as_mut()
            .ok_or_else(|| TrainError::Internal("MLlib master has no model".to_string()))?;
        opt.begin_step();
        let inv_b = 1.0 / cfg.batch_size.max(1) as f64;
        for (b, (model, gb)) in params.blocks.iter_mut().zip(&agg.blocks).enumerate() {
            let run = std::iter::once((0, gb.as_slice()));
            opt.apply_runs(b, model, run, inv_b, &cfg.update);
        }
        Ok(())
    }

    /// The current full model (master copy, or worker 0's replica for
    /// MLlib*).
    ///
    /// # Errors
    /// For MLlib* the model lives in worker replicas; fetching it fails
    /// with a typed error when worker 0 is gone or silent.
    pub fn collect_model(&mut self) -> Result<ParamSet, TrainError> {
        let iteration = self.cfg.iterations;
        match &self.params {
            Some((p, _)) => Ok(p.clone()),
            None => {
                self.master
                    .send(NodeId::Worker(0), RowMsg::FetchModel)
                    .map_err(|e| TrainError::WorkerLost {
                        worker: 0,
                        iteration,
                        detail: format!("model fetch undeliverable: {e}"),
                    })?;
                // One absolute window for the single expected reply: stray
                // traffic must not postpone the timeout.
                let wait_until = Instant::now() + self.deadline();
                loop {
                    match self.recv_next(wait_until, iteration)? {
                        RowMsg::ModelReply { params, .. } => return Ok(params),
                        other => log_unexpected("model collection", &other),
                    }
                }
            }
        }
    }
}

impl Drop for RowSgdEngine {
    fn drop(&mut self) {
        for w in self.host.running() {
            let _ = self.master.send(NodeId::Worker(w), RowMsg::Shutdown);
        }
        self.host.shutdown();
    }
}

/// Extracts model values at `indices` as a [`SparseGrad`]-shaped record.
fn gather_values(widths: &[usize], params: &ParamSet, indices: &[u64]) -> SparseGrad {
    let blocks = widths
        .iter()
        .enumerate()
        .map(|(b, &w)| {
            let mut vals = Vec::with_capacity(indices.len() * w);
            for &j in indices {
                let j = j as usize;
                for f in 0..w {
                    vals.push(params.blocks[b][j * w + f]);
                }
            }
            vals
        })
        .collect();
    SparseGrad {
        indices: indices.to_vec(),
        blocks,
        widths: widths.to_vec(),
    }
}

/// Max over servers of the serialized transfer time of that server's lane.
fn per_server_max(per_server: &[Vec<u64>], net: &NetworkModel) -> f64 {
    per_server
        .iter()
        .map(|lanes| net.gather_time(lanes))
        .fold(0.0, f64::max)
}

/// A message the current protocol phase does not expect is logged and
/// dropped rather than panicking the master: the receive deadline bounds
/// the wait, so a confused worker surfaces as a typed timeout instead.
fn log_unexpected(phase: &str, msg: &RowMsg) {
    eprintln!("rowsgd master: dropping unexpected message during {phase}: {msg:?}");
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_cluster::telemetry::Event;
    use columnsgd_data::synth;
    use columnsgd_ml::ModelSpec;

    /// MLlib prices each gathered dense gradient at exactly the bytes the
    /// router metered for its `GradReplyDense` (payload + envelope).
    #[test]
    fn mllib_gather_is_priced_at_metered_reply_bytes() {
        let (k, iterations) = (3, 2);
        let ds = synth::small_test_dataset(200, 40, 3);
        let cfg = RowSgdConfig::new(ModelSpec::Lr, RowSgdVariant::MLlib)
            .with_batch_size(30)
            .with_iterations(iterations);
        let net = NetworkModel::CLUSTER1;
        let recorder = Recorder::new();
        let mut engine = RowSgdEngine::new_clustered(
            &ds,
            k,
            cfg,
            net,
            recorder.clone(),
            &ClusterConfig::in_proc(),
        )
        .expect("engine");
        engine.train().expect("train");

        let events = recorder.events();
        let replies: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::Comm(c) if c.kind == "GradReplyDense" => Some(c.wire_bytes),
                _ => None,
            })
            .collect();
        let gathers: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                Event::Superstep(s) if s.phase == Phase::Gather => Some(s.sim_s),
                _ => None,
            })
            .collect();
        assert_eq!(replies.len(), k * iterations as usize);
        assert_eq!(gathers.len(), iterations as usize);
        for (metered, priced) in replies.chunks(k).zip(gathers) {
            assert_eq!(priced.to_bits(), net.gather_time(metered).to_bits());
        }
    }
}
