//! Per-layer probes: each times one public function of one crate, at the
//! workload's own payload size, from outside.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, Bins, Blocks, Data, Engine, Job, Model, PingPong, Replica, WireKind, Worksets, BATCH, DIM,
};
use crate::stats::median;

/// Calls `f` until `budget` is spent (at least `min`, at most `max` times)
/// and returns each call's duration in microseconds.
fn sample_us(min: usize, max: usize, budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed() < budget) {
        let t = Instant::now();
        f();
        out.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out
}

const PROBE_BUDGET: Duration = Duration::from_millis(250);

/// `data.transform_ms`: `Dataset::into_block_queue` + `split_block` over
/// the full set. Returns the pieces so the replica does not redo the work.
pub fn transform(data: &Data, job: &Job) -> (f64, Blocks, Worksets) {
    let mut ms = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        let t = Instant::now();
        let blocks = Blocks::cut(data, job);
        let worksets = blocks.split(job);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        last = Some((blocks, worksets));
    }
    let (blocks, worksets) = last.expect("three rounds ran");
    (median(&ms), blocks, worksets)
}

/// Scalars in one frame of `kind` on a workload training `model`.
pub fn payload_scalars(kind: WireKind, model: Model) -> usize {
    match kind {
        WireKind::StatsReply | WireKind::Update => BATCH * model.stats_width(),
        // The RowSGD baseline ships the dense LR model whatever the
        // ColumnSGD workload trains.
        WireKind::FullModelGrad | WireKind::GradReplyDense => DIM as usize,
    }
}

/// `n` scalars that are not all zeros, so the codec moves real bit patterns.
pub fn pattern(n: usize) -> Vec<f64> {
    (0..n).map(|j| (j % 1024) as f64 / 1024.0 - 0.5).collect()
}

/// `(encode_us, decode_us, frame_bytes)` of one frame kind.
pub fn codec(kind: WireKind, model: Model) -> (f64, f64, usize) {
    let scalars = pattern(payload_scalars(kind, model));
    let frame = kind.encode(0, &scalars);
    let enc = sample_us(5, 400, PROBE_BUDGET, || {
        black_box(kind.encode(0, black_box(&scalars)));
    });
    let dec = sample_us(5, 400, PROBE_BUDGET, || {
        black_box(kind.decode(black_box(&frame)));
    });
    (median(&enc), median(&dec), frame.len())
}

/// `cluster.frame_io_us`: `write_frame` + `read_frame` of one `kind` frame.
pub fn frame_io(kind: WireKind, model: Model) -> f64 {
    let frame = kind.encode(0, &pattern(payload_scalars(kind, model)));
    median(&sample_us(5, 400, PROBE_BUDGET, || {
        black_box(adapter::frame_io(black_box(&frame)));
    }))
}

/// Median round-trip microseconds of an `n`-scalar message.
fn rtt_us(link: &PingPong, n: usize) -> f64 {
    let mut msg = pattern(n);
    for _ in 0..3 {
        msg = link.round_trip(msg);
    }
    let mut slot = Some(msg);
    median(&sample_us(5, 400, PROBE_BUDGET, || {
        slot = Some(link.round_trip(slot.take().expect("message comes back")));
    }))
}

pub struct Hops {
    pub channel_us: f64,
    pub tcp_us: f64,
    pub tcp_switched_us: f64,
    pub tcp_mb_per_s: f64,
}

/// Ping-pong of one `n`-scalar message over each transport, and the
/// loopback bandwidth with 8 MB frames.
pub fn hops(n: usize) -> Result<Hops, String> {
    let channel_us = rtt_us(&PingPong::channel(), n);
    let tcp = PingPong::tcp(false)?;
    let tcp_us = rtt_us(&tcp, n);
    let big = DIM as usize;
    // Both directions of a round trip carry the frame.
    let tcp_mb_per_s = 2.0 * (big * 8) as f64 / rtt_us(&tcp, big);
    drop(tcp);
    let tcp_switched_us = rtt_us(&PingPong::tcp(true)?, n);
    Ok(Hops {
        channel_us,
        tcp_us,
        tcp_switched_us,
        tcp_mb_per_s,
    })
}

/// `linalg.partial_dots_ns_per_nnz`: `ops::partial_dots` over fresh batches
/// of the replica, continuing after its last step.
pub fn partial_dots_ns_per_nnz(replica: &mut Replica, from_step: u64) -> f64 {
    let rows: Vec<usize> = (0..BATCH).collect();
    let mut out = Vec::new();
    let mut per_nnz = Vec::new();
    for t in from_step..from_step + 50 {
        replica.sample(0, t);
        let nnz = replica.gather(0);
        let start = Instant::now();
        replica.partial_dots(0, &rows, &mut out);
        per_nnz.push(start.elapsed().as_nanos() as f64 / nnz as f64);
        black_box(&out);
    }
    median(&per_nnz)
}

/// Exact bytes per step of a 20-step in-process LR run with `k` workers.
pub fn lr_bytes_per_step(data: &Data, k: usize, seed: u64, bins: &Bins) -> Result<f64, String> {
    let job = Job {
        model: Model::Lr,
        eta: 0.5,
        iters: 20,
        tcp: false,
        row: false,
        k,
        seed,
    };
    let mut engine = Engine::build(&job, data, bins, false)?;
    Ok(engine.train()?.bytes as f64 / job.iters as f64)
}
