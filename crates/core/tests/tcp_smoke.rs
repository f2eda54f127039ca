//! Multi-process smoke tests: the same seeded training run over the
//! in-process channel backend and the loopback-TCP process backend must
//! be *bit-identical* — loss curve, final model, and metered traffic —
//! because the transport is below the protocol's determinism line.
//!
//! The TCP backend spawns one `columnsgd-worker` OS process per worker
//! (Cargo provides the binary path via `CARGO_BIN_EXE_columnsgd-worker`).
//!
//! Every case runs under [`bounded`]: a wire fault that leaves a wait
//! blocked — a receive, or a shutdown waiting on a worker process that
//! never exits — fails the case by name instead of hanging the suite.

use std::path::PathBuf;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

use columnsgd_cluster::{ClusterConfig, FailureEvent, FailurePlan, NetworkModel, Recorder};
use columnsgd_core::{ColumnSgdConfig, ColumnSgdEngine, FaultKind};
use columnsgd_data::block::Block;
use columnsgd_data::synth;
use columnsgd_ml::ModelSpec;

/// Far above a normal run of any case here (each takes well under 10 s).
const CASE_BOUND: Duration = Duration::from_secs(180);

/// Runs `case` on its own thread and fails by `name` if it is still
/// running after [`CASE_BOUND`]; a panic inside it is re-raised here.
#[expect(
    clippy::disallowed_methods,
    reason = "carries the case's outcome to the test thread, not cluster traffic"
)]
fn bounded(name: &str, case: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        case();
        let _ = done.send(());
    });
    if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(CASE_BOUND) {
        panic!("{name}: still running after {CASE_BOUND:?}, a wait inside it never returned");
    }
    if let Err(panic) = handle.join() {
        std::panic::resume_unwind(panic);
    }
}

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_columnsgd-worker"))
}

fn crash_plan(iteration: u64, worker: usize) -> FailurePlan {
    FailurePlan {
        events: vec![FailureEvent::WorkerFailure { iteration, worker }],
        ..FailurePlan::none()
    }
}

fn blocks_for(cfg: &ColumnSgdConfig, rows: usize, dim: u64, seed: u64) -> (Vec<Block>, u64) {
    let ds = synth::small_test_dataset(rows, dim, seed);
    let queue = ds.into_block_queue(cfg.block_size);
    (queue.iter().cloned().collect(), ds.dimension())
}

struct RunResult {
    losses: Vec<f64>,
    model: Vec<f64>,
    traffic: (u64, u64),
    comm: (u64, u64),
    /// The load phase's metered `(objects, bytes)`.
    load: (u64, u64),
    /// Sorted canonical trace lines (measured wall-time stripped).
    canonical: Vec<String>,
}

fn run_on(cluster: &ClusterConfig, cfg: ColumnSgdConfig, k: usize, plan: FailurePlan) -> RunResult {
    run_rows(cluster, cfg, k, plan, 240)
}

fn run_rows(
    cluster: &ClusterConfig,
    cfg: ColumnSgdConfig,
    k: usize,
    plan: FailurePlan,
    rows: usize,
) -> RunResult {
    let (blocks, dim) = blocks_for(&cfg, rows, 48, 9);
    let recorder = Recorder::new();
    let mut engine = ColumnSgdEngine::from_blocks_clustered(
        blocks,
        dim,
        k,
        cfg,
        NetworkModel::INSTANT,
        plan,
        recorder.clone(),
        cluster,
    )
    .unwrap_or_else(|e| panic!("engine on {}: {e}", cluster.transport));
    let load = engine.load_report();
    let load = (load.objects, load.bytes);
    let out = engine
        .train()
        .unwrap_or_else(|e| panic!("train on {}: {e}", cluster.transport));
    // Snapshot the meter before collect_model adds inspection traffic.
    let total = engine.traffic().total();
    let s = recorder.summary();
    let model = engine
        .collect_model()
        .unwrap_or_else(|e| panic!("collect on {}: {e}", cluster.transport));
    RunResult {
        losses: out.curve.points.iter().map(|p| p.loss).collect(),
        model: model
            .blocks
            .iter()
            .flat_map(|b| b.as_slice().iter().copied())
            .collect(),
        traffic: (total.bytes, total.messages),
        comm: (s.comm_bytes, s.comm_messages),
        load,
        canonical: recorder.canonical_lines(),
    }
}

fn smoke_cfg() -> ColumnSgdConfig {
    ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(32)
        .with_iterations(8)
        .with_learning_rate(0.5)
        .with_seed(17)
}

/// The acceptance criterion: same seeded config, both backends,
/// bit-identical losses and final model, equal traffic totals, and on
/// *each* backend the telemetry comm records reconcile with the meter.
#[test]
fn tcp_and_inproc_runs_are_bit_identical() {
    bounded("tcp_and_inproc_runs_are_bit_identical", || {
        let cfg = smoke_cfg();
        let inproc = run_on(&ClusterConfig::in_proc(), cfg, 3, FailurePlan::none());
        let tcp = run_on(
            &ClusterConfig::tcp().with_worker_bin(worker_bin()),
            cfg,
            3,
            FailurePlan::none(),
        );

        assert_eq!(inproc.losses, tcp.losses, "loss curves diverged");
        assert_eq!(inproc.model, tcp.model, "final models diverged");
        assert_eq!(
            inproc.traffic, tcp.traffic,
            "metered traffic diverged across backends"
        );
        // A shared in-process block and one decoded from a frame load the
        // same objects and bytes.
        assert_eq!(
            inproc.load, tcp.load,
            "load report diverged across backends"
        );
        // Telemetry reconciles against the meter on both backends (the train
        // loop also asserts this internally; restated here as the contract).
        assert_eq!(inproc.comm, inproc.traffic);
        assert_eq!(tcp.comm, tcp.traffic);
        // Cross-backend trace equivalence: worker events shipped over
        // telemetry frames merge into the *same* canonical trace the shared
        // in-process recorder produces — measured wall-time fields are the
        // only permitted difference, and canonical lines strip exactly those.
        assert_eq!(
            inproc.canonical.len(),
            tcp.canonical.len(),
            "event counts diverged across backends"
        );
        assert_eq!(
            inproc.canonical, tcp.canonical,
            "canonical traces diverged across backends"
        );
    });
}

/// Statistics frames wider than the transport's 64 KiB window: FM with 10
/// factors at batch 1 024 ships 1 024 × 11 × 8 = 90 112 B of statistics
/// in every reply and every update, so each of those frames is written
/// and decoded across window boundaries on both ends. Loss curve, model,
/// meter and canonical trace still match the in-process run.
#[test]
fn fm_frames_wider_than_the_window_are_bit_identical() {
    bounded("fm_frames_wider_than_the_window_are_bit_identical", || {
        let cfg = ColumnSgdConfig::new(ModelSpec::Fm { factors: 10 })
            .with_batch_size(1024)
            .with_iterations(4)
            .with_learning_rate(0.1)
            .with_seed(17);
        assert!(cfg.batch_size * 11 * 8 > 64 << 10);
        let plan = FailurePlan::none;
        let inproc = run_rows(&ClusterConfig::in_proc(), cfg, 2, plan(), 2048);
        let tcp = run_rows(
            &ClusterConfig::tcp().with_worker_bin(worker_bin()),
            cfg,
            2,
            plan(),
            2048,
        );
        assert_eq!(inproc.losses, tcp.losses, "loss curves diverged");
        assert_eq!(inproc.model, tcp.model, "final models diverged");
        assert_eq!(inproc.traffic, tcp.traffic, "metered traffic diverged");
        assert_eq!(tcp.comm, tcp.traffic);
        assert_eq!(inproc.canonical, tcp.canonical, "canonical traces diverged");
    });
}

/// A scripted worker crash on the TCP backend: the process dies, the
/// master detects it (panic report over the still-open socket), respawns
/// a fresh OS process, streams the reload, and training converges to the
/// same trajectory as the in-process run of the identical plan.
#[test]
fn tcp_backend_survives_a_worker_crash() {
    bounded("tcp_backend_survives_a_worker_crash", || {
        let cfg = smoke_cfg();
        let plan = crash_plan(3, 1);
        let inproc = run_on(&ClusterConfig::in_proc(), cfg, 2, plan.clone());
        let tcp = run_on(
            &ClusterConfig::tcp().with_worker_bin(worker_bin()),
            cfg,
            2,
            plan,
        );
        assert_eq!(inproc.losses, tcp.losses, "recovery trajectories diverged");
        assert_eq!(inproc.model, tcp.model, "post-recovery models diverged");
    });
}

/// The crash actually surfaces as a recovered worker failure on TCP.
#[test]
fn tcp_crash_is_detected_and_logged() {
    bounded("tcp_crash_is_detected_and_logged", || {
        let cfg = smoke_cfg();
        let (blocks, dim) = blocks_for(&cfg, 240, 48, 9);
        let cluster = ClusterConfig::tcp().with_worker_bin(worker_bin());
        let mut engine = ColumnSgdEngine::from_blocks_clustered(
            blocks,
            dim,
            2,
            cfg,
            NetworkModel::INSTANT,
            crash_plan(2, 0),
            Recorder::disabled(),
            &cluster,
        )
        .expect("engine");
        let out = engine.train().expect("train through the crash");
        assert!(
            out.recovery
                .iter()
                .any(|ev| ev.worker == 0 && ev.fault == FaultKind::WorkerFailure),
            "expected a recovered worker failure, got {:?}",
            out.recovery
        );
    });
}
