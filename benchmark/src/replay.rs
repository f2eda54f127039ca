//! The traced replay: the supersteps of a workload, driven single-threaded
//! from the benchmark's own loop, one span per layer call.
//!
//! The replay calls the layer functions in the engine's order. For the
//! ColumnSGD workloads it ends with parameters bit-identical to an engine
//! that trained the same number of steps, which proves the spans cover the
//! engine's work; what the engine spends beyond them (thread and process
//! hand-off, sockets, the barrier, its own bookkeeping) is the residual.

use crate::adapter::{self, Bins, Blocks, Data, Engine, Job, Replica, WireKind, Worksets, DIM, K};
use crate::probes;
use crate::rep::same_bits;
use crate::span::{Lane, Trace};

/// Span names are the metric names of the layer they time.
pub const SAMPLE: &str = "data.batch_sample_us";
pub const GATHER: &str = "linalg.batch_gather";
pub const STATS: &str = "ml.kernel_stats_us";
pub const UPDATE: &str = "ml.kernel_update_us";
pub const REDUCE: &str = "ml.reduce_us";
pub const LOSS: &str = "ml.loss_us";
pub const FRAME_IO: &str = "cluster.frame_io_us";
const ROOT: &str = "core.superstep";

pub fn encode_span(kind: WireKind) -> &'static str {
    match kind {
        WireKind::StatsReply => "cluster.codec_encode_us.stats_reply",
        WireKind::Update => "cluster.codec_encode_us.update",
        WireKind::FullModelGrad => "cluster.codec_encode_us.full_model_grad",
        WireKind::GradReplyDense => "cluster.codec_encode_us.grad_reply_dense",
    }
}

pub fn decode_span(kind: WireKind) -> &'static str {
    match kind {
        WireKind::StatsReply => "cluster.codec_decode_us.stats_reply",
        WireKind::Update => "cluster.codec_decode_us.update",
        WireKind::FullModelGrad => "cluster.codec_decode_us.full_model_grad",
        WireKind::GradReplyDense => "cluster.codec_decode_us.grad_reply_dense",
    }
}

pub struct Replayed {
    pub trace: Trace,
    /// Non-zeros of every assembled worker batch.
    pub batch_nnz: Vec<f64>,
    /// The replica after the last step, for probes on its batches.
    pub replica: Option<Replica>,
    /// Replay and engine agree bit for bit (parameters and loss curve for
    /// ColumnSGD; decode∘encode identity for the wire-only RowSGD replay).
    pub identical: bool,
}

/// The sending half of a hop: `encode_envelope` on lane `from`.
fn send_leg(trace: &mut Trace, kind: WireKind, t: u64, scalars: &[f64], from: Lane) -> Vec<u8> {
    trace.within(encode_span(kind), t, from, || kind.encode(t, scalars))
}

/// The receiving half: frame I/O and `decode_body_checked` on lane `to`.
fn receive_leg(trace: &mut Trace, kind: WireKind, t: u64, frame: &[u8], to: Lane) -> Vec<f64> {
    let frame = trace.within(FRAME_IO, t, to, || adapter::frame_io(frame));
    trace.within(decode_span(kind), t, to, || kind.decode(&frame))
}

/// Replays `job.iters` ColumnSGD supersteps and checks them against an
/// engine run of the same length.
pub fn column(
    job: &Job,
    data: &Data,
    bins: &Bins,
    blocks: Blocks,
    worksets: Worksets,
) -> Result<Replayed, String> {
    let mut replica = Replica::new(job, blocks, worksets);

    let mut trace = Trace::new();
    let mut batch_nnz = Vec::new();
    let mut losses = Vec::with_capacity(job.iters as usize);
    for t in 0..job.iters {
        trace.enter(ROOT, t, Lane::Off);
        let mut partials: Vec<Vec<f64>> = Vec::new();
        for w in 0..K {
            let lane = Lane::Worker(w);
            trace.enter(SAMPLE, t, lane);
            replica.sample(w, t);
            batch_nnz.push(trace.within(GATHER, t, lane, || replica.gather(w)) as f64);
            trace.exit();
            trace.within(STATS, t, lane, || replica.kernel_stats(w));
            if job.tcp {
                // The reply is decoded by the hub's reader thread of this
                // worker's connection, beside the other workers' replies.
                let frame = send_leg(
                    &mut trace,
                    WireKind::StatsReply,
                    t,
                    replica.partial(w),
                    lane,
                );
                partials.push(receive_leg(
                    &mut trace,
                    WireKind::StatsReply,
                    t,
                    &frame,
                    lane,
                ));
            }
        }
        trace.within(REDUCE, t, Lane::Master, || {
            if job.tcp {
                let views: Vec<&[f64]> = partials.iter().map(Vec::as_slice).collect();
                replica.reduce(&views);
            } else {
                replica.reduce_local();
            }
        });
        // The master writes every worker's frame before it waits, so its
        // encodes come first and the workers then run side by side.
        let mut frames: Vec<Vec<u8>> = Vec::new();
        if job.tcp {
            for _ in 0..K {
                let agg = replica.aggregate();
                frames.push(send_leg(&mut trace, WireKind::Update, t, agg, Lane::Master));
            }
        }
        for w in 0..K {
            let lane = Lane::Worker(w);
            if let Some(frame) = frames.get(w) {
                let stats = receive_leg(&mut trace, WireKind::Update, t, frame, lane);
                trace.within(UPDATE, t, lane, || replica.kernel_update(w, &stats));
            } else {
                trace.within(UPDATE, t, lane, || replica.kernel_update_local(w));
            }
        }
        losses.push(trace.within(LOSS, t, Lane::Master, || replica.loss(t)));
        trace.exit();
    }

    let mut engine = Engine::build(job, data, bins, false)?;
    let trained = engine.train()?;
    let identical =
        same_bits(&trained.losses, &losses) && same_bits(&engine.model()?, &replica.model());
    Ok(Replayed {
        trace,
        batch_nnz,
        replica: Some(replica),
        identical,
    })
}

/// Replays only the wire legs of `job.iters` MLlib supersteps: the dense
/// model down to every worker, a dense gradient back.
pub fn row_wire(job: &Job) -> Replayed {
    let model = probes::pattern(DIM as usize);
    let mut trace = Trace::new();
    let mut identical = true;
    for t in 0..job.iters {
        trace.enter(ROOT, t, Lane::Off);
        let frames: Vec<Vec<u8>> = (0..K)
            .map(|_| send_leg(&mut trace, WireKind::FullModelGrad, t, &model, Lane::Master))
            .collect();
        for (w, frame) in frames.iter().enumerate() {
            let lane = Lane::Worker(w);
            let got = receive_leg(&mut trace, WireKind::FullModelGrad, t, frame, lane);
            identical &= same_bits(&got, &model);
            // The gradient comes back through the hub's reader thread of
            // this worker's connection: still beside the other workers.
            let frame = send_leg(&mut trace, WireKind::GradReplyDense, t, &model, lane);
            let got = receive_leg(&mut trace, WireKind::GradReplyDense, t, &frame, lane);
            identical &= same_bits(&got, &model);
        }
        trace.exit();
    }
    Replayed {
        trace,
        batch_nnz: Vec::new(),
        replica: None,
        identical,
    }
}
