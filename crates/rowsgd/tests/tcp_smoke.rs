//! Multi-process smoke tests for the RowSGD baselines: the same seeded
//! run over in-process channels and over loopback-TCP worker processes
//! must be bit-identical — loss curve, final model, metered traffic —
//! for every variant, because the transport sits below the protocol's
//! determinism line.
//!
//! Variant coverage is deliberate: MLlib exercises plain master↔worker
//! data traffic, MLlib* exercises worker↔worker ring switching through
//! the hub, and MXNet (sparse pull) exercises the unmetered virtual
//! plane crossing real sockets (worker-side `send_unmetered` must stay
//! unmetered when the hub re-admits the frame).

use std::path::PathBuf;

use columnsgd_cluster::{ClusterConfig, NetworkModel, Recorder};
use columnsgd_data::synth;
use columnsgd_ml::ModelSpec;
use columnsgd_rowsgd::{RowSgdConfig, RowSgdEngine, RowSgdVariant};

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_rowsgd-worker"))
}

struct RunResult {
    losses: Vec<f64>,
    model: Vec<f64>,
    traffic: (u64, u64),
    comm: (u64, u64),
    /// Sorted canonical trace lines (measured wall-time stripped).
    canonical: Vec<String>,
}

fn run_on(cluster: &ClusterConfig, variant: RowSgdVariant) -> RunResult {
    run_dim(cluster, variant, 40)
}

fn run_dim(cluster: &ClusterConfig, variant: RowSgdVariant, dim: u64) -> RunResult {
    let ds = synth::small_test_dataset(200, dim, 11);
    let cfg = RowSgdConfig::new(ModelSpec::Lr, variant)
        .with_batch_size(40)
        .with_iterations(6)
        .with_learning_rate(0.5)
        .with_seed(13);
    let recorder = Recorder::new();
    let mut engine = RowSgdEngine::new_clustered(
        &ds,
        3,
        cfg,
        NetworkModel::INSTANT,
        recorder.clone(),
        cluster,
    )
    .unwrap_or_else(|e| panic!("engine ({}) on {}: {e}", variant.label(), cluster.transport));
    let out = engine
        .train()
        .unwrap_or_else(|e| panic!("train ({}) on {}: {e}", variant.label(), cluster.transport));
    // Snapshot the meter before collect_model adds inspection traffic.
    let total = engine.traffic().total();
    let s = recorder.summary();
    let model = engine.collect_model().unwrap_or_else(|e| {
        panic!(
            "collect ({}) on {}: {e}",
            variant.label(),
            cluster.transport
        )
    });
    RunResult {
        losses: out.curve.points.iter().map(|p| p.loss).collect(),
        model: model
            .blocks
            .iter()
            .flat_map(|b| b.as_slice().iter().copied())
            .collect(),
        traffic: (total.bytes, total.messages),
        comm: (s.comm_bytes, s.comm_messages),
        canonical: recorder.canonical_lines(),
    }
}

fn assert_backends_agree(variant: RowSgdVariant) {
    let inproc = run_on(&ClusterConfig::in_proc(), variant);
    let tcp = run_on(&ClusterConfig::tcp().with_worker_bin(worker_bin()), variant);
    let label = variant.label();
    assert_eq!(inproc.losses, tcp.losses, "{label}: loss curves diverged");
    assert_eq!(inproc.model, tcp.model, "{label}: final models diverged");
    assert_eq!(
        inproc.traffic, tcp.traffic,
        "{label}: metered traffic diverged across backends"
    );
    // Telemetry reconciles against the meter on both backends (the train
    // loop also asserts this internally; restated here as the contract).
    assert_eq!(inproc.comm, inproc.traffic, "{label}: inproc reconcile");
    assert_eq!(tcp.comm, tcp.traffic, "{label}: tcp reconcile");
}

#[test]
fn mllib_runs_are_bit_identical_across_backends() {
    assert_backends_agree(RowSgdVariant::MLlib);
}

#[test]
fn mllib_star_ring_is_bit_identical_across_backends() {
    assert_backends_agree(RowSgdVariant::MLlibStar);
}

#[test]
fn sparse_pull_ps_is_bit_identical_across_backends() {
    assert_backends_agree(RowSgdVariant::PsSparse);
}

#[test]
fn dense_pull_ps_is_bit_identical_across_backends() {
    assert_backends_agree(RowSgdVariant::PsDense);
}

/// MLlib at dimension 20 000: every model broadcast and dense gradient
/// reply is a 160 KB frame, two and a half windows of the transport, so
/// each is written and decoded across window boundaries on both ends.
/// Loss curve, model, meter and canonical trace still match in-process.
#[test]
fn mllib_frames_wider_than_the_window_are_bit_identical() {
    let dim = 20_000;
    let inproc = run_dim(&ClusterConfig::in_proc(), RowSgdVariant::MLlib, dim);
    let tcp = run_dim(
        &ClusterConfig::tcp().with_worker_bin(worker_bin()),
        RowSgdVariant::MLlib,
        dim,
    );
    assert!(
        inproc.model.len() * 8 > 2 * (64 << 10),
        "frames span windows"
    );
    assert_eq!(inproc.losses, tcp.losses, "loss curves diverged");
    assert_eq!(inproc.model, tcp.model, "final models diverged");
    assert_eq!(inproc.traffic, tcp.traffic, "metered traffic diverged");
    assert_eq!(tcp.comm, tcp.traffic);
    assert_eq!(inproc.canonical, tcp.canonical, "canonical traces diverged");
}
