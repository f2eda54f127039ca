//! The RowSGD driver: loads row partitions and runs the per-variant step
//! bodies on the shared master [`Runtime`], pricing every iteration with
//! the same network model used for ColumnSGD.
//!
//! What the baseline supplies is its launcher and four step bodies (MLlib,
//! MLlib*, dense-pull and sparse-pull PS). Each returns its per-worker
//! compute times, its phase seconds and its loss to the one training loop,
//! which ends every iteration with the runtime's superstep tail — the same
//! spans, kernel record, clock, curve and monitor feed as ColumnSGD.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use columnsgd_cluster::telemetry::{MetricsRegistry, ProfScope, RunStamp};
use columnsgd_cluster::{
    ClusterConfig, Endpoint, Launcher, LinkStats, Monitor, NetError, NetworkModel, NodeId,
    Recorder, SimClock, TrafficStats, ENVELOPE_BYTES,
};
use columnsgd_core::runtime::{Runtime, Superstep};
use columnsgd_core::{LoadReport, TrainError, TrainOutcome};
use columnsgd_data::Dataset;
use columnsgd_linalg::CsrMatrix;
use columnsgd_ml::metrics::Curve;
use columnsgd_ml::{OptimizerState, ParamSet, SparseGrad};

use crate::config::{RowSgdConfig, RowSgdVariant};
use crate::host::RowBootSpec;
use crate::msg::RowMsg;
use crate::worker::run_row_worker;

/// Each worker's `LoadRows` matrix, built on demand: worker `w`'s
/// contiguous row partition ([`Dataset::row_slices`]) copied once, from
/// the borrowed rows, into CSR.
fn partition_csrs(dataset: &Dataset, k: usize) -> impl Iterator<Item = CsrMatrix> + '_ {
    dataset.row_slices(k).into_iter().map(CsrMatrix::from_rows)
}

/// How a RowSGD worker is launched on the shared host. The baseline
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

/// Per-round dispatch overhead of the PS engines, in seconds (they
/// schedule far more cheaply than Spark tasks).
const PS_SCHEDULING_S: f64 = 0.005;

/// Server-side processing cost per pulled/pushed key *per value
/// component*, in seconds — models the KVStore per-key overhead that
/// dominates MXNet's sparse pull on high-dimensional models.
const PS_PER_KEY_S: f64 = 50e-6;

/// What one step body measured and priced, for the superstep tail.
struct Stepped {
    /// Per-worker compute seconds (the Compute span and the monitor).
    compute: Vec<f64>,
    /// Master- or server-side update seconds.
    update_s: f64,
    /// Modeled gradient collection (push, per-key server work, AllReduce).
    gather_s: f64,
    /// Modeled model distribution (broadcast or pull).
    bcast_s: f64,
    /// The system's per-iteration scheduling constant.
    overhead_s: f64,
    /// Mean local batch loss.
    loss: f64,
}

/// The RowSGD driver (master + virtual servers + K workers).
pub struct RowSgdEngine {
    cfg: RowSgdConfig,
    k: usize,
    p: usize,
    net: NetworkModel,
    /// Endpoint, worker host, meter and observation sinks.
    rt: Runtime<RowMsg>,
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
        recorder.begin(stamp(&cfg, k));
        let dim = dataset.dimension();
        let launcher = RowLauncher {
            k,
            dim,
            cfg,
            recorder: recorder.clone(),
        };
        let connect_wait = Duration::from_millis(cfg.deadline_ms.saturating_mul(10));
        let stop = RowMsg::Shutdown;
        let rt = Runtime::bring_up(k, k, cluster, None, recorder, launcher, connect_wait, stop)?;

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
            p: k, // the paper sets P = K (§V-A)
            net,
            rt,
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

    /// The master receive deadline (`RowSgdConfig::deadline_ms`). RowSGD
    /// is the baseline, not the subject of the fault-tolerance study, so it
    /// does not recover — but a dead worker must surface as a typed
    /// `TrainError` within that bound, never as a panic or a silent hang.
    fn deadline(&self) -> Duration {
        Duration::from_millis(self.cfg.deadline_ms)
    }

    /// One answer from each of workers `0..n`, in worker order: the
    /// runtime's slot barrier with the receive deadline. A silent worker
    /// surfaces as a typed [`TrainError::Network`] attributed to
    /// iteration `t`.
    fn gather<T>(
        &mut self,
        n: usize,
        t: u64,
        phase: &str,
        answer: impl FnMut(RowMsg) -> Option<(usize, T)>,
    ) -> Result<Vec<T>, TrainError> {
        let wait = self.deadline();
        let answers = self.rt.await_slots(n, wait, phase, answer);
        answers.map_err(|e| TrainError::Network {
            iteration: t,
            source: e.source,
        })
    }

    /// Test hook: makes worker `w` exit its mailbox loop, so the next
    /// gather waits out the deadline and surfaces a typed error — the
    /// poisoned-mailbox regression path.
    #[doc(hidden)]
    pub fn kill_worker(&mut self, w: usize) {
        let _ = self.rt.master.send(NodeId::Worker(w), RowMsg::Shutdown);
    }

    /// Ships each worker its horizontal partition and prices the load:
    /// rows move row-by-row through Spark's pipeline (one object per data
    /// point), optionally followed by a global shuffle.
    fn load(&mut self, dataset: &Dataset, repartition: bool) -> Result<(), TrainError> {
        self.rt.traffic.reset();
        // Keep the trace reconciled with the meter across the reset.
        self.rt.recorder.clear_comm();
        let mut part_rows = Vec::with_capacity(self.k);
        for (w, csr) in partition_csrs(dataset, self.k).enumerate() {
            part_rows.push(csr.nrows());
            let load = RowMsg::LoadRows(csr);
            let sent = self.rt.master.send(NodeId::Worker(w), load);
            sent.map_err(|e| undeliverable(w, 0, "row partition", e))?;
        }
        self.gather(self.k, 0, "load", |msg| match msg {
            RowMsg::LoadAck { worker } => Some((worker, ())),
            _ => None,
        })
        .map_err(|e| TrainError::LoadFailed(e.to_string()))?;
        let traffic = &self.rt.traffic;
        if repartition {
            // Global shuffle: every row crosses the network once more,
            // worker → worker. Price it as a second pass of the data.
            for w in 0..self.k {
                let bytes = traffic.link(NodeId::Master, NodeId::Worker(w)).bytes;
                self.rt.master.router().meter_as(
                    NodeId::Worker(w),
                    NodeId::Worker((w + 1) % self.k),
                    bytes as usize,
                    "Shuffle",
                );
            }
        }
        // Pricing: a row-by-row pipeline pays one serialized object per
        // data point at the parsing node, twice under repartitioning.
        let passes = if repartition { 2 } else { 1 };
        let mut worst = 0.0f64;
        for (w, rows) in part_rows.into_iter().enumerate() {
            let bytes = traffic.touching(NodeId::Worker(w)).bytes;
            let objects = (rows * passes) as u64;
            worst = worst.max(self.net.lane_time(bytes, objects, 1));
        }
        self.load_report = LoadReport {
            objects: (self.rows_total * passes) as u64,
            bytes: traffic.total().bytes,
            sim_time_s: worst,
        };
        Ok(())
    }

    /// The loading cost report.
    pub fn load_report(&self) -> LoadReport {
        self.load_report
    }

    /// The shared traffic meter.
    pub fn traffic(&self) -> &TrafficStats {
        &self.rt.traffic
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

    /// Runs the training loop and returns the outcome (its recovery log is
    /// always empty: the baseline does not recover).
    ///
    /// # Errors
    /// RowSGD is the baseline: it detects faults (typed, within the
    /// configured deadline) but does not recover from them. A dead or
    /// silent worker surfaces as [`TrainError::Network`] or
    /// [`TrainError::WorkerLost`]; protocol invariant violations, and a
    /// trace that does not reconcile with the meter, surface as
    /// [`TrainError::Internal`].
    pub fn train(&mut self) -> Result<TrainOutcome, TrainError> {
        let out = self.train_inner();
        self.rt.record_fatal(out)
    }

    fn train_inner(&mut self) -> Result<TrainOutcome, TrainError> {
        let mut clock = SimClock::new();
        let mut curve = Curve::new(self.cfg.variant.label());
        for t in 0..self.cfg.iterations {
            let step = {
                let _prof = ProfScope::enter("rowsgd_superstep");
                match self.cfg.variant {
                    RowSgdVariant::MLlib => self.step_mllib(t)?,
                    RowSgdVariant::MLlibStar => self.step_mllib_star(t)?,
                    RowSgdVariant::PsDense => self.step_ps(t, false)?,
                    RowSgdVariant::PsSparse => self.step_ps(t, true)?,
                }
            };
            let s = Superstep {
                t,
                sample_times: &[],
                compute_times: &step.compute,
                observed: &step.compute,
                stat_phase: step.compute.iter().copied().fold(0.0, f64::max),
                gather: (step.gather_s, 0.0),
                bcast: (step.bcast_s, 0.0),
                update_times: &[],
                upd_phase: step.update_s,
                overhead_s: step.overhead_s,
                charge: 0.0,
                loss: step.loss,
                model: self.cfg.model,
                batch_size: self.cfg.batch_size,
                pool_width: 1,
                counted: self.k,
            };
            let stop = self.rt.finish_superstep(&s, &mut clock, &mut curve);
            if stop.is_some() {
                // The baseline does not recover; a loss guard trip simply
                // ends the run early with the diagnostics explaining why
                // (not an error: the partial curve is the experiment's
                // result).
                break;
            }
        }
        self.rt.finish_train()?;
        Ok(TrainOutcome {
            curve,
            clock,
            recovery: Vec::new(),
            run: self.run_stamp(),
            diagnostics: self.rt.monitor.report(),
            elastic: None,
        })
    }

    /// The identity stamp describing this engine's run.
    pub fn run_stamp(&self) -> RunStamp {
        stamp(&self.cfg, self.k)
    }

    /// The attached telemetry recorder (disabled unless built via
    /// [`RowSgdEngine::new_clustered`]).
    pub fn recorder(&self) -> &Recorder {
        &self.rt.recorder
    }

    /// Attaches an online diagnostics [`Monitor`] (same detectors as the
    /// ColumnSGD engine). A monitor stop request ends the baseline run
    /// early rather than erroring — the partial curve is the result — and
    /// the outcome's diagnostics carry the reason.
    pub fn attach_monitor(&mut self, monitor: Monitor) {
        self.rt.monitor = monitor;
    }

    /// The attached diagnostics monitor (disabled unless
    /// [`RowSgdEngine::attach_monitor`] was called).
    pub fn monitor(&self) -> &Monitor {
        &self.rt.monitor
    }

    /// Attaches a [`MetricsRegistry`], fed once per superstep from the
    /// same observations and under the same metric names as the ColumnSGD
    /// engine's.
    pub fn attach_metrics(&mut self, metrics: MetricsRegistry) {
        self.rt.attach_metrics(metrics);
    }

    /// One MLlib iteration: broadcast the dense model, gather dense
    /// gradients, update at the master (Algorithm 2).
    fn step_mllib(&mut self, t: u64) -> Result<Stepped, TrainError> {
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
        // The baseline runs without chaos, so everything the master's link
        // carries from here to the closed gather is the step's traffic.
        let master = [NodeId::Master];
        let (received0, sent0) = meter(&self.rt.traffic, &master);
        let sent = self.rt.master.broadcast(&workers, &msg);
        if let RowMsg::FullModelGrad { params: model, .. } = msg {
            *params = model;
        }
        for (w, result) in sent.into_iter().enumerate() {
            result.map_err(|e| undeliverable(w, t, "model broadcast", e))?;
        }
        // Replies come back per worker and fold in worker-id order:
        // floating-point sums depend on fold order, so aggregating in
        // arrival order would make the loss trajectory depend on thread
        // (or socket) scheduling — nondeterministic run to run, and
        // divergent across transport backends.
        let replies = self.gather(self.k, t, "MLlib gather", |msg| match msg {
            RowMsg::GradReplyDense {
                worker,
                grad,
                loss,
                compute_s,
                ..
            } => Some((worker, (grad, loss, compute_s))),
            _ => None,
        })?;
        let (received1, sent1) = meter(&self.rt.traffic, &master);
        let mut agg: Option<ParamSet> = None;
        let (mut losses, mut compute) = (Vec::new(), Vec::new());
        for (grad, loss, compute_s) in replies {
            match &mut agg {
                None => agg = Some(grad),
                Some(a) => {
                    for (ab, gb) in a.blocks.iter_mut().zip(&grad.blocks) {
                        ab.axpy(1.0, gb);
                    }
                }
            }
            losses.push(loss);
            compute.push(compute_s);
        }
        let agg = agg.ok_or_else(|| {
            TrainError::Internal(format!("iteration {t} gathered zero gradients"))
        })?;
        #[expect(clippy::disallowed_methods, reason = "compute timer, measurement only")]
        let start = Instant::now();
        self.apply_dense(&agg)?;
        Ok(Stepped {
            compute,
            update_s: start.elapsed().as_secs_f64(),
            gather_s: slowest(&self.net, &received0, &received1),
            bcast_s: slowest(&self.net, &sent0, &sent1),
            overhead_s: self.net.scheduling_overhead_s,
            loss: mean(&losses),
        })
    }

    /// One MLlib* iteration: local steps + ring AllReduce model averaging.
    fn step_mllib_star(&mut self, t: u64) -> Result<Stepped, TrainError> {
        for w in 0..self.k {
            let step = RowMsg::LocalStep { iteration: t };
            let sent = self.rt.master.send(NodeId::Worker(w), step);
            sent.map_err(|e| undeliverable(w, t, "local-step dispatch", e))?;
        }
        let done = self.gather(self.k, t, "MLlib* gather", |msg| match msg {
            RowMsg::StepDone {
                worker,
                loss,
                compute_s,
                ..
            } => Some((worker, (loss, compute_s))),
            _ => None,
        })?;
        let (losses, compute): (Vec<f64>, Vec<f64>) = done.into_iter().unzip();
        let model_bytes = 8 * self.cfg.model.num_params(self.dim);
        Ok(Stepped {
            compute,
            update_s: 0.0,
            // The ring AllReduce is both reduce and distribute; file it
            // under Gather so the breakdown's comm column carries it once.
            gather_s: self.net.allreduce_time(model_bytes, self.k),
            bcast_s: 0.0,
            overhead_s: self.net.scheduling_overhead_s,
            loss: mean(&losses),
        })
    }

    /// One parameter-server iteration (dense or sparse pull).
    // Indexed loops: `p`/`w` are node ids of the simulated server plane.
    #[allow(clippy::needless_range_loop)]
    fn step_ps(&mut self, t: u64, sparse_pull: bool) -> Result<Stepped, TrainError> {
        let router = self.rt.master.router().clone();
        // The server links are metered by the step itself and the baseline
        // runs without chaos: each phase's window is exactly its traffic.
        let servers: Vec<NodeId> = (0..self.p).map(NodeId::Server).collect();
        let (received0, sent0) = meter(&self.rt.traffic, &servers);
        let unit = 8 * self.cfg.model.widths().iter().sum::<usize>() as u64;
        let mut pull_keys_per_server = vec![0u64; self.p];
        let mut compute = vec![0.0; self.k];

        if sparse_pull {
            // Round 1: workers report the indices their batch needs. The
            // request is driver-loop plumbing (real MXNet workers are
            // self-driving), so it is not metered.
            for w in 0..self.k {
                let ask = RowMsg::RequestIndices { iteration: t };
                let sent = router.send_unmetered(NodeId::Master, NodeId::Worker(w), ask);
                sent.map_err(|e| undeliverable(w, t, "index request", e))?;
            }
            let requests = self.gather(self.k, t, "sparse-pull index round", |msg| match msg {
                RowMsg::IndicesReply {
                    worker,
                    indices,
                    compute_s,
                    ..
                } => Some((worker, (indices, compute_s))),
                _ => None,
            })?;
            // Round 2: virtual servers answer each worker's pull.
            let (params, _) = self.params.as_ref().ok_or_else(|| {
                TrainError::Internal("parameter-server plane has no model".to_string())
            })?;
            for (w, (indices, compute_s)) in requests.into_iter().enumerate() {
                compute[w] += compute_s;
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
                    }
                }
                let values = gather_values(&self.cfg.model.widths(), params, &indices);
                let reply = RowMsg::SparseModelGrad {
                    iteration: t,
                    values,
                };
                let sent = router.send_unmetered(NodeId::Master, NodeId::Worker(w), reply);
                sent.map_err(|e| undeliverable(w, t, "sparse pull reply", e))?;
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
                }
                let pull = RowMsg::FullModelGrad {
                    iteration: t,
                    params: params.clone(),
                };
                let sent = router.send_unmetered(NodeId::Master, NodeId::Worker(w), pull);
                sent.map_err(|e| undeliverable(w, t, "dense pull", e))?;
            }
        }
        let (received1, sent1) = meter(&self.rt.traffic, &servers);

        // Gather sparse gradients (push), merged in worker-id order:
        // sparse merges sum overlapping keys, and floating-point sums must
        // not depend on reply arrival order (see step_mllib).
        let pushes = self.gather(self.k, t, "gradient push", |msg| match msg {
            RowMsg::GradReplySparse {
                worker,
                grad,
                loss,
                compute_s,
                ..
            } => Some((worker, (grad, loss, compute_s))),
            _ => None,
        })?;
        let mut push_keys_per_server = vec![0u64; self.p];
        let mut merged = SparseGrad::default();
        let mut losses = Vec::with_capacity(self.k);
        for (w, (grad, loss, compute_s)) in pushes.into_iter().enumerate() {
            compute[w] += compute_s;
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
                }
            }
            merged = merged.merge(&grad);
            losses.push(loss);
        }
        let (received2, _) = meter(&self.rt.traffic, &servers);
        #[expect(clippy::disallowed_methods, reason = "compute timer, measurement only")]
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

        let pull_up = slowest(&self.net, &received0, &received1);
        let pull_down = slowest(&self.net, &sent0, &sent1);
        let push = slowest(&self.net, &received1, &received2);
        // Per-key server processing cost: only the sparse KVStore pays it
        // (MXNet's row-sparse engine); Petuum's dense shards apply pushes
        // with plain array arithmetic.
        let per_key: f64 = if sparse_pull {
            (0..self.p)
                .map(|p| {
                    (pull_keys_per_server[p] + push_keys_per_server[p]) as f64
                        * (unit as f64 / 8.0)
                        * PS_PER_KEY_S
                })
                .fold(0.0, f64::max)
        } else {
            0.0
        };
        // Breakdown convention: model distribution (pull) is Broadcast,
        // gradient collection (push + per-key server work) is Gather.
        Ok(Stepped {
            compute,
            update_s: server_compute,
            gather_s: push + per_key,
            bcast_s: pull_up + pull_down,
            overhead_s: PS_SCHEDULING_S,
            loss: mean(&losses),
        })
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
        if let Some((p, _)) = &self.params {
            return Ok(p.clone());
        }
        let sent = self.rt.master.send(NodeId::Worker(0), RowMsg::FetchModel);
        sent.map_err(|e| undeliverable(0, iteration, "model fetch", e))?;
        // One slot: worker 0's replica.
        let mut replica = self.gather(1, iteration, "model collection", |msg| match msg {
            RowMsg::ModelReply { worker, params } => Some((worker, params)),
            _ => None,
        })?;
        let none = || TrainError::Internal("model fetch returned no replica".to_string());
        replica.pop().ok_or_else(none)
    }
}

/// The identity stamp of a RowSGD run (same vocabulary as the ColumnSGD
/// engine's, so baseline traces are comparable).
fn stamp(cfg: &RowSgdConfig, k: usize) -> RunStamp {
    RunStamp {
        config_hash: cfg.fingerprint(),
        seed: cfg.seed,
        chaos_seed: None,
        pool_width: 1,
        workers: k as u64,
    }
}

/// A send that could not reach worker `w`: the baseline does not recover,
/// so the worker counts as lost.
fn undeliverable(worker: usize, iteration: u64, what: &str, e: NetError) -> TrainError {
    TrainError::WorkerLost {
        worker,
        iteration,
        detail: format!("{what} undeliverable: {e}"),
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

/// What each of `nodes` has received and sent so far, as metered.
fn meter(traffic: &TrafficStats, nodes: &[NodeId]) -> (Vec<LinkStats>, Vec<LinkStats>) {
    let io = |&node: &NodeId| (traffic.received_by(node), traffic.sent_by(node));
    nodes.iter().map(io).unzip()
}

/// The slowest endpoint link over a phase, from each endpoint's meter
/// before and after it: links to different endpoints run in parallel, one
/// endpoint's transfers serialize.
fn slowest(net: &NetworkModel, before: &[LinkStats], after: &[LinkStats]) -> f64 {
    let windows = after.iter().zip(before).map(|(a, &b)| a.since(b));
    windows.map(|w| net.serial_time([w])).fold(0.0, f64::max)
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
    use columnsgd_linalg::SparseVector;

    /// Each worker's `LoadRows` matrix equals the CSR of an owned copy of
    /// its rows cut at the same boundaries: `len / k` rows each, one more
    /// for the first `len % k` workers.
    #[test]
    fn load_rows_match_owned_row_partitions() {
        let rows: Vec<_> = (0..23u64)
            .map(|i| {
                let y = if i % 3 == 0 { 1.0 } else { -1.0 };
                let x = SparseVector::from_pairs(vec![(i % 7, 0.5), (i + 9, i as f64)]);
                (y, x)
            })
            .collect();
        let dataset = Dataset::from_rows(rows.clone());
        for k in 1..=6 {
            let (base, extra) = (rows.len() / k, rows.len() % k);
            let mut start = 0;
            let reference: Vec<CsrMatrix> = (0..k)
                .map(|w| {
                    let len = base + usize::from(w < extra);
                    let part = rows[start..start + len].to_vec();
                    start += len;
                    CsrMatrix::from_rows(&part)
                })
                .collect();
            let built: Vec<CsrMatrix> = partition_csrs(&dataset, k).collect();
            assert_eq!(built, reference, "k = {k}");
        }
    }
}
