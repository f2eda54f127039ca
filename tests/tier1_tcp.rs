//! The same seeded, traced LR job in process and over loopback TCP, K = 2:
//! losses, model bits, metered traffic and canonical trace lines must be
//! equal, every worker process must have shipped its kernel records home,
//! and the hub must hold one clock offset per worker.
//!
//! A root `cargo build` does not build the worker binary, so the test
//! builds `columnsgd-worker` itself, in its own profile, next to its own
//! executable's directory, where the TCP backend looks for it. A missing
//! binary fails the test. The deadline is low, so a broken wire fails the
//! run within seconds instead of hanging it.

use std::path::{Path, PathBuf};
use std::process::Command;

use columnsgd::cluster::telemetry::Event;
use columnsgd::cluster::{ClusterConfig, FailurePlan, NetworkModel, Recorder};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::data::synth;
use columnsgd::ml::ModelSpec;

const WORKERS: usize = 2;

/// Builds `columnsgd-worker` into `target/<profile>/`, the directory above
/// this test executable, and returns its path.
fn build_worker() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("test executable under target/<profile>/deps");
    let target_dir = profile_dir.parent().expect("target/<profile>");
    let mut cargo = Command::new(env!("CARGO"));
    cargo.args([
        "build",
        "-q",
        "-p",
        "columnsgd-core",
        "--bin",
        "columnsgd-worker",
    ]);
    cargo.arg("--target-dir").arg(target_dir);
    if profile_dir.ends_with("release") {
        cargo.arg("--release");
    }
    let status = cargo.status().expect("run cargo build");
    assert!(status.success(), "building columnsgd-worker: {status}");
    let bin = profile_dir.join("columnsgd-worker");
    assert!(bin.is_file(), "no columnsgd-worker at {}", bin.display());
    bin
}

struct Run {
    losses: Vec<u64>,
    model: Vec<u64>,
    /// Metered `(bytes, messages)`.
    traffic: (u64, u64),
    canonical: Vec<String>,
    recorder: Recorder,
}

fn run(cluster: &ClusterConfig) -> Run {
    let ds = synth::small_test_dataset(400, 40, 5);
    // Batches are drawn with replacement: 9 000 draws make every statistics
    // frame 72 KB, wider than the transport's 64 KiB window, so each one is
    // received across buffer refills, and every statistic it carries
    // reaches the loss.
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(9_000)
        .with_iterations(4)
        .with_learning_rate(0.5)
        .with_seed(23)
        .with_deadline_ms(500);
    let recorder = Recorder::new();
    let mut engine = ColumnSgdEngine::new_clustered(
        &ds,
        WORKERS,
        cfg,
        NetworkModel::INSTANT,
        FailurePlan::none(),
        recorder.clone(),
        cluster,
    )
    .unwrap_or_else(|e| panic!("engine on {}: {e}", cluster.transport));
    let out = engine
        .train()
        .unwrap_or_else(|e| panic!("train on {}: {e}", cluster.transport));
    let total = engine.traffic().total();
    let model = engine
        .collect_model()
        .unwrap_or_else(|e| panic!("collect on {}: {e}", cluster.transport));
    Run {
        losses: out.curve.points.iter().map(|p| p.loss.to_bits()).collect(),
        model: model
            .blocks
            .iter()
            .flat_map(|b| b.as_slice().iter().map(|x| x.to_bits()))
            .collect(),
        traffic: (total.bytes, total.messages),
        canonical: recorder.canonical_lines(),
        recorder,
    }
}

#[test]
fn traced_lr_is_bit_identical_in_process_and_over_tcp() {
    let bin = build_worker();
    let inproc = run(&ClusterConfig::in_proc());
    let tcp = run(&ClusterConfig::tcp());

    assert!(!inproc.losses.is_empty());
    assert_eq!(inproc.losses, tcp.losses, "loss curves diverged");
    assert_eq!(inproc.model, tcp.model, "final models diverged");
    assert_eq!(inproc.traffic, tcp.traffic, "metered traffic diverged");
    assert_eq!(inproc.canonical, tcp.canonical, "canonical traces diverged");

    // Each worker process's kernel records crossed its socket.
    for w in 0..WORKERS as u64 {
        let shipped = (tcp.recorder.events().iter())
            .any(|e| matches!(e, Event::Kernel(k) if k.worker == Some(w)));
        assert!(
            shipped,
            "no kernel record arrived from worker {w} ({})",
            bin.display()
        );
    }
    let mut offsets: Vec<u64> = tcp.recorder.clock_offsets().iter().map(|o| o.0).collect();
    offsets.sort_unstable();
    assert_eq!(offsets, [0, 1], "one clock offset per worker");
}
