//! The only file of the benchmark that calls into the repository.
//!
//! Everything `sgdbench` measures is reached through the functions below;
//! `README.md` lists the public items they use. A refactor that renames or
//! removes one of those items has to be preceded by a benchmark PR that
//! edits this file — nothing else in `benchmark/` knows the repo's types.
//!
//! Nothing here reads a clock: timing and spans live in the callers, so a
//! function below is exactly the layer call it names.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use columnsgd::cluster::codec::{decode_body_checked, encode_envelope, read_frame, write_frame};
use columnsgd::cluster::telemetry::{profile, Event, Plane};
use columnsgd::cluster::{
    ClusterConfig, Endpoint, FailurePlan, NetworkModel, NodeId, Recorder, Router, TcpClient,
    TcpHub, TrafficStats,
};
use columnsgd::core::msg::ColMsg;
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::data::block::Block;
use columnsgd::data::index::RowAddr;
use columnsgd::data::workset::split_block;
use columnsgd::data::{ColumnPartitioner, Dataset, SynthConfig, TwoPhaseIndex, WorksetStore};
use columnsgd::linalg::{ops, CsrMatrix};
use columnsgd::ml::spec::reduce_stats;
use columnsgd::ml::{
    ModelSpec, OptimizerKind, OptimizerState, ParamSet, UpdateParams, UpdateScratch,
};
use columnsgd::rowsgd::msg::RowMsg;
use columnsgd::rowsgd::{RowSgdConfig, RowSgdEngine, RowSgdVariant};

/// Rows of the generated dataset (see README: why 20k).
pub const ROWS: usize = 20_000;
/// Feature dimension m.
pub const DIM: u64 = 1_000_000;
/// Workers (= `nproc` of the reference machine).
pub const K: usize = 2;
/// Mini-batch size B.
pub const BATCH: usize = 1000;

/// The model a job trains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Model {
    Lr,
    Fm10,
}

impl Model {
    fn spec(self) -> ModelSpec {
        match self {
            Model::Lr => ModelSpec::Lr,
            Model::Fm10 => ModelSpec::Fm { factors: 10 },
        }
    }

    /// Scalars per batch row in a statistics message.
    pub fn stats_width(self) -> usize {
        self.spec().stats_width()
    }
}

/// One training job: everything that distinguishes the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub model: Model,
    pub eta: f64,
    pub iters: u64,
    pub tcp: bool,
    /// `true` = the RowSGD MLlib baseline, `false` = ColumnSGD.
    pub row: bool,
    pub k: usize,
    pub seed: u64,
}

impl Job {
    fn col_cfg(&self) -> ColumnSgdConfig {
        ColumnSgdConfig::new(self.model.spec())
            .with_batch_size(BATCH)
            .with_iterations(self.iters)
            .with_learning_rate(self.eta)
            .with_seed(self.seed)
            .with_threads_per_worker(1)
    }
}

/// Directory holding the `columnsgd-worker` / `rowsgd-worker` binaries of
/// the commit under test.
#[derive(Debug, Clone)]
pub struct Bins(pub PathBuf);

/// The generated input; the program under test only ever sees this.
pub struct Data(Dataset);

impl Data {
    /// The criteo-like common input, a pure function of `seed`.
    pub fn generate(seed: u64) -> Data {
        Self::generate_dim(seed, DIM)
    }

    /// Same shape at another model size (for the byte-count probes).
    pub fn generate_dim(seed: u64, dim: u64) -> Data {
        Data(
            SynthConfig {
                rows: ROWS,
                dim,
                avg_nnz: 39.0,
                skew: 1.1,
                binary_features: false,
                seed,
                ..SynthConfig::default()
            }
            .generate(),
        )
    }
}

/// What one `train()` produced.
pub struct Trained {
    pub losses: Vec<f64>,
    pub bytes: u64,
    pub msgs: u64,
    pub recoveries: usize,
}

/// Either engine behind the calls the benchmark makes.
pub enum Engine {
    Col(Box<ColumnSgdEngine>),
    Row(Box<RowSgdEngine>),
}

impl Engine {
    /// The engine constructor under test: spawn workers, dispatch the
    /// data, wait for load acks. `traced` attaches a live `Recorder`.
    pub fn build(job: &Job, data: &Data, bins: &Bins, traced: bool) -> Result<Engine, String> {
        let recorder = if traced {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let cluster = |bin: &str| {
            if job.tcp {
                ClusterConfig::tcp().with_worker_bin(bins.0.join(bin))
            } else {
                ClusterConfig::in_proc()
            }
        };
        if job.row {
            let cfg = RowSgdConfig::new(job.model.spec(), RowSgdVariant::MLlib)
                .with_batch_size(BATCH)
                .with_iterations(job.iters)
                .with_learning_rate(job.eta)
                .with_seed(job.seed);
            RowSgdEngine::new_clustered(
                &data.0,
                job.k,
                cfg,
                NetworkModel::CLUSTER1,
                recorder,
                &cluster("rowsgd-worker"),
            )
            .map(|e| Engine::Row(Box::new(e)))
            .map_err(|e| e.to_string())
        } else {
            ColumnSgdEngine::new_clustered(
                &data.0,
                job.k,
                job.col_cfg(),
                NetworkModel::CLUSTER1,
                FailurePlan::none(),
                recorder,
                &cluster("columnsgd-worker"),
            )
            .map(|e| Engine::Col(Box::new(e)))
            .map_err(|e| e.to_string())
        }
    }

    fn traffic(&self) -> &TrafficStats {
        match self {
            Engine::Col(e) => e.traffic(),
            Engine::Row(e) => e.traffic(),
        }
    }

    /// The whole closed-loop training run. Bytes and messages are the
    /// meter's advance over the run, so the load phase is not in them (a
    /// `reset()` would do, but a traced engine asserts that its recorder
    /// and the meter saw the same traffic since loading began).
    pub fn train(&mut self) -> Result<Trained, String> {
        let before = self.traffic().total();
        let (curve, recoveries) = match self {
            Engine::Col(e) => {
                let out = e.train().map_err(|e| e.to_string())?;
                (out.curve, out.recovery.len())
            }
            Engine::Row(e) => (e.train().map_err(|e| e.to_string())?.curve, 0),
        };
        let total = self.traffic().total();
        Ok(Trained {
            losses: curve.points.iter().map(|p| p.loss).collect(),
            bytes: total.bytes - before.bytes,
            msgs: total.messages - before.messages,
            recoveries,
        })
    }

    /// `(objects, bytes)` the row→column (or row) dispatch shipped.
    pub fn load_report(&self) -> (u64, u64) {
        match self {
            Engine::Col(e) => {
                let r = e.load_report();
                (r.objects, r.bytes)
            }
            Engine::Row(e) => {
                let r = e.load_report();
                (r.objects, r.bytes)
            }
        }
    }

    /// The trained model as one flat vector in global feature order.
    pub fn model(&mut self) -> Result<Vec<f64>, String> {
        let params = match self {
            Engine::Col(e) => e.collect_model().map_err(|e| e.to_string())?,
            Engine::Row(e) => e.collect_model().map_err(|e| e.to_string())?,
        };
        Ok(flatten(&params))
    }

    /// Self wall seconds the in-program profiler charged to each phase
    /// (the innermost frame of a stack), summed over every thread, worker
    /// process and drain of a traced, profiled run; empty otherwise.
    pub fn profile_phase_s(&self) -> BTreeMap<String, f64> {
        let recorder = match self {
            Engine::Col(e) => e.recorder(),
            Engine::Row(e) => e.recorder(),
        };
        let mut phases = BTreeMap::new();
        for ev in recorder.events() {
            if let Event::Prof(p) = ev {
                let phase = p.stack.rsplit(';').next().unwrap_or_default();
                *phases.entry(phase.to_string()).or_insert(0.0) += p.wall_s;
            }
        }
        phases
    }
}

/// Switches the in-program profiler of this process on or off.
pub fn set_profiling(on: bool) {
    profile::set_enabled(on);
}

/// The environment variable worker processes read to enable profiling.
pub const PROFILE_ENV: &str = profile::PROFILE_ENV;

fn flatten(params: &ParamSet) -> Vec<f64> {
    params
        .blocks
        .iter()
        .flat_map(|b| b.as_slice().iter().copied())
        .collect()
}

// ---------------------------------------------------------------------------
// Wire layer: one frame of each kind the workloads put on a socket
// ---------------------------------------------------------------------------

/// The four frame kinds that carry payload during training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    StatsReply,
    Update,
    FullModelGrad,
    GradReplyDense,
}

impl WireKind {
    pub const ALL: [WireKind; 4] = [
        WireKind::StatsReply,
        WireKind::Update,
        WireKind::FullModelGrad,
        WireKind::GradReplyDense,
    ];

    /// Suffix of the `cluster.codec_*` metric names.
    pub fn label(self) -> &'static str {
        match self {
            WireKind::StatsReply => "stats_reply",
            WireKind::Update => "update",
            WireKind::FullModelGrad => "full_model_grad",
            WireKind::GradReplyDense => "grad_reply_dense",
        }
    }

    /// Encodes one frame of this kind carrying `scalars` (worker 0 ↔
    /// master, data plane), exactly as the transports do.
    pub fn encode(self, iteration: u64, scalars: &[f64]) -> Vec<u8> {
        let (w, m) = (NodeId::Worker(0), NodeId::Master);
        let dense = || ParamSet {
            blocks: vec![scalars.to_vec().into()],
            widths: vec![1],
        };
        let frame = match self {
            WireKind::StatsReply => encode_envelope(
                w,
                m,
                &ColMsg::StatsReply {
                    iteration,
                    worker: 0,
                    partial: scalars.to_vec(),
                    compute_s: 0.0,
                    sample_s: 0.0,
                    task_failed: false,
                },
                Plane::Data,
            ),
            WireKind::Update => encode_envelope(
                m,
                w,
                &ColMsg::Update {
                    iteration,
                    stats: scalars.to_vec(),
                },
                Plane::Data,
            ),
            WireKind::FullModelGrad => encode_envelope(
                m,
                w,
                &RowMsg::FullModelGrad {
                    iteration,
                    params: dense(),
                },
                Plane::Data,
            ),
            WireKind::GradReplyDense => encode_envelope(
                w,
                m,
                &RowMsg::GradReplyDense {
                    iteration,
                    worker: 0,
                    grad: dense(),
                    loss: 0.0,
                    compute_s: 0.0,
                },
                Plane::Data,
            ),
        };
        frame.expect("a protocol payload encodes within its wire size")
    }

    /// Decodes a frame of this kind back to its scalars.
    pub fn decode(self, frame: &[u8]) -> Vec<f64> {
        let scalars = match self {
            WireKind::StatsReply | WireKind::Update => match decode_body_checked::<ColMsg>(frame) {
                Ok(ColMsg::StatsReply { partial, .. }) => Some(partial),
                Ok(ColMsg::Update { stats, .. }) => Some(stats),
                _ => None,
            },
            WireKind::FullModelGrad | WireKind::GradReplyDense => {
                match decode_body_checked::<RowMsg>(frame) {
                    Ok(RowMsg::FullModelGrad { params, .. }) => Some(flatten(&params)),
                    Ok(RowMsg::GradReplyDense { grad, .. }) => Some(flatten(&grad)),
                    _ => None,
                }
            }
        };
        scalars.unwrap_or_else(|| panic!("frame does not decode as {}", self.label()))
    }
}

/// `write_frame` then `read_frame` over memory: the per-frame cost of the
/// transport (length prefix, flush, one allocation) without a socket.
pub fn frame_io(frame: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(frame.len() + 4);
    write_frame(&mut wire, frame).expect("write to memory");
    read_frame(&mut Cursor::new(wire))
        .expect("read from memory")
        .expect("one whole frame")
}

// ---------------------------------------------------------------------------
// Hop layer: ping-pong over the transports themselves
// ---------------------------------------------------------------------------

const NODES: [NodeId; 3] = [NodeId::Master, NodeId::Worker(0), NodeId::Worker(1)];
const WORKERS: [NodeId; 2] = [NodeId::Worker(0), NodeId::Worker(1)];

/// An echo thread: returns every message to its sender until it sees an
/// empty one.
fn echo(ep: Endpoint<Vec<f64>>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(env) = ep.recv() {
            if env.payload.is_empty() || ep.send(env.from, env.payload).is_err() {
                return;
            }
        }
    })
}

/// A master endpoint whose peer (worker 0) echoes, over one transport.
pub struct PingPong {
    master: Endpoint<Vec<f64>>,
    /// Worker 0's endpoint when the caller drives it (switched hops).
    worker: Option<Endpoint<Vec<f64>>>,
    hub: Option<TcpHub<Vec<f64>>>,
    echoes: Vec<JoinHandle<()>>,
}

impl PingPong {
    /// `Router` + `ChannelTransport`, the in-process backend.
    pub fn channel() -> PingPong {
        let (_router, mut eps) = Router::<Vec<f64>>::new(&NODES[..2], TrafficStats::new());
        let worker = eps.pop().expect("worker endpoint");
        PingPong {
            master: eps.pop().expect("master endpoint"),
            worker: None,
            hub: None,
            echoes: vec![echo(worker)],
        }
    }

    /// `TcpHub` + `TcpClient` over loopback. With `switched`, worker 0 is
    /// driven by the caller and worker 1 echoes, so a round trip crosses
    /// the hub's switch twice.
    pub fn tcp(switched: bool) -> Result<PingPong, String> {
        let hub =
            TcpHub::<Vec<f64>>::bind(&[NodeId::Master], &WORKERS).map_err(|e| e.to_string())?;
        let router = Router::with_transport(
            Arc::new(hub.clone()),
            &NODES,
            TrafficStats::new(),
            None,
            Recorder::disabled(),
        );
        let master = hub.local_endpoint(NodeId::Master, &router);
        hub.start(router);
        let connect = |w: NodeId| {
            TcpClient::<Vec<f64>>::connect(hub.addr(), w, &NODES)
                .map(|(_router, ep)| ep)
                .map_err(|e| e.to_string())
        };
        let (w0, w1) = (connect(WORKERS[0])?, connect(WORKERS[1])?);
        hub.await_workers(&WORKERS, Duration::from_secs(10))?;
        let (worker, echoes) = if switched {
            (Some(w0), vec![echo(w1)])
        } else {
            (None, vec![echo(w0), echo(w1)])
        };
        Ok(PingPong {
            master,
            worker,
            hub: Some(hub),
            echoes,
        })
    }

    /// One round trip of `msg`; returns it for the next one.
    pub fn round_trip(&self, msg: Vec<f64>) -> Vec<f64> {
        let (ep, peer) = match &self.worker {
            Some(w0) => (w0, WORKERS[1]),
            None => (&self.master, WORKERS[0]),
        };
        ep.send(peer, msg).expect("peer is up");
        ep.recv().expect("peer echoes").payload
    }
}

impl Drop for PingPong {
    fn drop(&mut self) {
        for w in WORKERS {
            let _ = self.master.send(w, Vec::new());
        }
        for h in self.echoes.drain(..) {
            let _ = h.join();
        }
        self.worker = None;
        if let Some(hub) = &self.hub {
            hub.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// The replica: the engine's per-superstep layer calls, one function each
// ---------------------------------------------------------------------------

struct ReplicaWorker {
    store: WorksetStore,
    params: ParamSet,
    opt: OptimizerState,
    addrs: Vec<RowAddr>,
    batch: CsrMatrix,
    stats: Vec<f64>,
    scratch: UpdateScratch,
}

/// K column partitions driven from outside, call by call, in the order the
/// engine drives its workers. Ends bit-identical to the engine.
pub struct Replica {
    model: ModelSpec,
    up: UpdateParams,
    part: ColumnPartitioner,
    blocks: Vec<Block>,
    index: TwoPhaseIndex,
    workers: Vec<ReplicaWorker>,
    agg: Vec<f64>,
}

fn fold_partials<'a>(
    agg: &mut Vec<f64>,
    model: ModelSpec,
    partials: impl Iterator<Item = &'a [f64]>,
) {
    agg.clear();
    agg.resize(BATCH * model.stats_width(), 0.0);
    for p in partials {
        reduce_stats(agg, p);
    }
}

/// The master's row blocks (`Dataset::into_block_queue`).
pub struct Blocks(Vec<Block>);

/// Per block, the K column worksets (`split_block`).
pub struct Worksets(Vec<Vec<columnsgd::data::Workset>>);

impl Blocks {
    pub fn cut(data: &Data, job: &Job) -> Blocks {
        let queue = data.0.into_block_queue(job.col_cfg().block_size);
        Blocks(queue.iter().cloned().collect())
    }

    pub fn split(&self, job: &Job) -> Worksets {
        let part = job.col_cfg().partitioner(job.k, DIM);
        Worksets(self.0.iter().map(|b| split_block(b, &part)).collect())
    }
}

impl Replica {
    pub fn new(job: &Job, blocks: Blocks, worksets: Worksets) -> Replica {
        let cfg = job.col_cfg();
        let part = cfg.partitioner(job.k, DIM);
        let model = cfg.model;
        let mut workers: Vec<ReplicaWorker> = (0..job.k)
            .map(|w| {
                let params = model.init_params(part.local_dim(w, DIM), cfg.seed, |slot| {
                    part.global_index(w, slot)
                });
                ReplicaWorker {
                    store: WorksetStore::new(),
                    opt: OptimizerState::for_params(OptimizerKind::Sgd, &params),
                    params,
                    addrs: Vec::new(),
                    batch: CsrMatrix::new(),
                    stats: Vec::new(),
                    scratch: UpdateScratch::new(),
                }
            })
            .collect();
        for per_block in worksets.0 {
            for (w, ws) in per_block.into_iter().enumerate() {
                workers[w].store.insert(ws);
            }
        }
        let index = TwoPhaseIndex::new(blocks.0.iter().map(|b| (b.id(), b.nrows())), cfg.seed);
        Replica {
            model,
            up: cfg.update,
            part,
            blocks: blocks.0,
            index,
            workers,
            agg: Vec::new(),
        }
    }

    /// `TwoPhaseIndex::sample_batch_into` on worker `w`.
    pub fn sample(&mut self, w: usize, t: u64) {
        self.index
            .sample_batch_into(t, BATCH, &mut self.workers[w].addrs);
    }

    /// Batch assembly on worker `w` (`WorksetStore::get` +
    /// `CsrMatrix::push_raw_row` per sampled row); returns the batch nnz.
    pub fn gather(&mut self, w: usize) -> usize {
        let wk = &mut self.workers[w];
        wk.batch.clear();
        for addr in &wk.addrs {
            let ws = wk.store.get(addr.block).expect("every block was loaded");
            let (idx, val) = ws.data.row(addr.offset);
            wk.batch.push_raw_row(ws.data.label(addr.offset), idx, val);
        }
        wk.batch.nnz()
    }

    /// `ModelSpec::compute_stats` on worker `w`'s current batch.
    pub fn kernel_stats(&mut self, w: usize) {
        let wk = &mut self.workers[w];
        self.model
            .compute_stats(&wk.params, &wk.batch, &mut wk.stats);
    }

    /// Worker `w`'s partial statistics.
    pub fn partial(&self, w: usize) -> &[f64] {
        &self.workers[w].stats
    }

    /// `ops::partial_dots` over worker `w`'s current batch and weights.
    pub fn partial_dots(&self, w: usize, rows: &[usize], out: &mut Vec<f64>) {
        let wk = &self.workers[w];
        ops::partial_dots(&wk.batch, rows, wk.params.blocks[0].as_slice(), out);
    }

    /// The master's `reduce_stats` fold over the K partials as they came
    /// off the wire.
    pub fn reduce(&mut self, partials: &[&[f64]]) {
        fold_partials(&mut self.agg, self.model, partials.iter().copied());
    }

    /// [`Replica::reduce`] over the workers' own buffers (no wire).
    pub fn reduce_local(&mut self) {
        let partials = self.workers.iter().map(|wk| wk.stats.as_slice());
        fold_partials(&mut self.agg, self.model, partials);
    }

    /// The aggregated statistics of the current superstep.
    pub fn aggregate(&self) -> &[f64] {
        &self.agg
    }

    /// The master's batch-loss evaluation (`sample_batch`, label lookup,
    /// `ModelSpec::loss_from_stats`).
    pub fn loss(&self, t: u64) -> f64 {
        let labels: Vec<f64> = self
            .index
            .sample_batch(t, BATCH)
            .into_iter()
            .map(|a| self.blocks[a.block as usize].csr().label(a.offset))
            .collect();
        self.model.loss_from_stats(&labels, &self.agg)
    }

    /// `ModelSpec::update_from_stats_with` on worker `w` with `stats`.
    pub fn kernel_update(&mut self, w: usize, stats: &[f64]) {
        let wk = &mut self.workers[w];
        self.model.update_from_stats_with(
            &mut wk.params,
            &mut wk.opt,
            &wk.batch,
            stats,
            &self.up,
            BATCH,
            &mut wk.scratch,
        );
    }

    /// [`Replica::kernel_update`] with the master's own aggregate (no wire).
    pub fn kernel_update_local(&mut self, w: usize) {
        let agg = std::mem::take(&mut self.agg);
        self.kernel_update(w, &agg);
        self.agg = agg;
    }

    /// The model as one flat vector in global feature order, the layout
    /// [`Engine::model`] returns.
    pub fn model(&self) -> Vec<f64> {
        let dim = DIM as usize;
        let widths = self.model.widths();
        let mut offset = 0;
        let mut out = vec![0.0; widths.iter().sum::<usize>() * dim];
        for (b, &width) in widths.iter().enumerate() {
            for (w, wk) in self.workers.iter().enumerate() {
                let local = wk.params.blocks[b].as_slice();
                for slot in 0..self.part.local_dim(w, DIM) {
                    let j = self.part.global_index(w, slot) as usize;
                    out[offset + j * width..offset + (j + 1) * width]
                        .copy_from_slice(&local[slot * width..(slot + 1) * width]);
                }
            }
            offset += width * dim;
        }
        out
    }
}
