//! Workspace-level diagnostics tests: the online [`Monitor`] wired into
//! both engines — deterministic straggler alarms under seeded injection,
//! the divergence guard surfacing as a typed `TrainError`, and metrics
//! snapshot streaming.

use columnsgd::cluster::{ClusterConfig, DiagnosticKind, FailurePlan, NetworkModel, Recorder};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine, TrainError};
use columnsgd::data::synth;
use columnsgd::ml::ModelSpec;
use columnsgd::prelude::{Monitor, MonitorConfig, RowSgdConfig, RowSgdEngine, RowSgdVariant};

/// The monitor's straggler and skew detectors read real compute timers,
/// so engines training concurrently in this process (the harness runs
/// tests on parallel threads) raise spurious alarms in each other's
/// streams. Every test holds this while it trains.
static ONE_ENGINE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_engine() -> std::sync::MutexGuard<'static, ()> {
    // A test that failed while holding the guard must not fail the rest.
    ONE_ENGINE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs a monitored ColumnSGD job with StragglerLevel-9 injection and
/// returns the canonical diagnostic stream plus the diagnostics section.
fn monitored_straggler_run(seed: u64) -> (Vec<String>, columnsgd::prelude::Diagnostics) {
    let ds = synth::small_test_dataset(600, 5_000, 11);
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(64)
        .with_iterations(8)
        .with_seed(seed);
    // Level 9 → the straggler computes 10x slower; the injected inflation
    // rides on the 50 ms scheduling overhead, so it dwarfs timer noise.
    let plan = FailurePlan::with_straggler(9.0, seed ^ 0xBEEF);
    let mut e = ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::CLUSTER1, plan).expect("engine");
    e.attach_monitor(Monitor::new(MonitorConfig::default()));
    let out = e.train().expect("train");
    (
        out.diagnostics
            .events
            .iter()
            .map(|ev| ev.canonical())
            .collect(),
        out.diagnostics,
    )
}

/// Same seed ⇒ same canonical diagnostic stream, and heavy injected
/// straggling must actually trip the straggler detector.
#[test]
fn same_seed_runs_emit_identical_diagnostic_streams() {
    let _one = one_engine();
    let (stream_a, diag_a) = monitored_straggler_run(41);
    let (stream_b, _) = monitored_straggler_run(41);
    assert!(
        diag_a.straggler_alarms > 0,
        "StragglerLevel-9 injection must raise straggler alarms, got {:?}",
        diag_a
    );
    assert_eq!(
        stream_a, stream_b,
        "same-seed monitored runs must emit identical canonical streams"
    );

    // A different straggler seed reshuffles which worker lags where.
    let (stream_c, _) = monitored_straggler_run(42);
    assert_ne!(stream_a, stream_c);
}

/// A wildly unstable configuration must surface as a typed
/// `TrainError::Diverged` when the divergence guard is armed to halt.
#[test]
fn divergence_guard_halts_with_typed_error() {
    let _one = one_engine();
    let ds = synth::small_test_dataset(400, 2_000, 7);
    // Least squares with an absurd learning rate blows up geometrically.
    let cfg = ColumnSgdConfig::new(ModelSpec::LeastSquares)
        .with_batch_size(64)
        .with_iterations(60)
        .with_learning_rate(50.0)
        .with_seed(7);
    let mut e = ColumnSgdEngine::new(&ds, 2, cfg, NetworkModel::CLUSTER1, FailurePlan::none())
        .expect("engine");
    e.attach_monitor(Monitor::new(MonitorConfig {
        halt_on_divergence: true,
        divergence_warmup: 2,
        ..MonitorConfig::default()
    }));
    let err = e.train().expect_err("a 50x learning rate must diverge");
    match &err {
        TrainError::Diverged { iteration, reason } => {
            assert!(*iteration < 60, "guard should halt well before the end");
            assert!(
                reason.contains("diverg") || reason.contains("non-finite"),
                "reason should name the guard: {reason}"
            );
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
    assert_eq!(err.class(), "diverged");
}

/// Without a monitor attached, the diagnostics section is empty — and the
/// engine behaves exactly as before (no detector cost, no early stops).
#[test]
fn unmonitored_runs_have_empty_diagnostics() {
    let _one = one_engine();
    let ds = synth::small_test_dataset(400, 2_000, 7);
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(64)
        .with_iterations(4)
        .with_seed(7);
    let mut e = ColumnSgdEngine::new(&ds, 2, cfg, NetworkModel::CLUSTER1, FailurePlan::none())
        .expect("engine");
    assert!(!e.monitor().is_enabled());
    let out = e.train().expect("train");
    assert_eq!(out.diagnostics.total(), 0);
    assert!(out.diagnostics.events.is_empty());
    assert!(out.diagnostics.halted.is_none());
}

/// The RowSGD baseline carries the same monitor: a monitored MLlib run
/// populates the diagnostics section deterministically.
#[test]
fn rowsgd_monitor_smoke() {
    let _one = one_engine();
    let run = |seed: u64| {
        let ds = synth::small_test_dataset(500, 3_000, 19);
        let cfg = RowSgdConfig::new(ModelSpec::Lr, RowSgdVariant::MLlib)
            .with_batch_size(64)
            .with_iterations(6)
            .with_seed(seed);
        let mut e = RowSgdEngine::new(&ds, 3, cfg, NetworkModel::CLUSTER1).expect("engine");
        e.attach_monitor(Monitor::new(MonitorConfig::default()));
        assert!(e.monitor().is_enabled());
        let out = e.train().expect("train");
        assert_eq!(out.curve.points.len(), 6, "no guard should trip here");
        assert!(out.diagnostics.halted.is_none());
        // Straggler and partition-skew alarms read real compute timers, so
        // two same-seed runs may differ in them; the seed fixes the rest.
        out.diagnostics
            .events
            .iter()
            .filter(|ev| {
                matches!(
                    ev.kind,
                    DiagnosticKind::LossDivergence
                        | DiagnosticKind::NanLoss
                        | DiagnosticKind::CommImbalance
                )
            })
            .map(|ev| ev.canonical())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        run(19),
        run(19),
        "rowsgd diagnostic stream must be deterministic"
    );
}

/// `--metrics-out` plumbing: an attached sink receives one JSONL snapshot
/// per superstep, each parseable with the metrics vocabulary.
#[test]
fn metrics_sink_streams_snapshots() {
    let _one = one_engine();
    let dir = std::env::temp_dir().join(format!("columnsgd-diag-{}", std::process::id()));
    let path = dir.join("metrics.jsonl");
    let ds = synth::small_test_dataset(400, 2_000, 7);
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(64)
        .with_iterations(5)
        .with_seed(7);
    let mut e = ColumnSgdEngine::new(&ds, 2, cfg, NetworkModel::CLUSTER1, FailurePlan::none())
        .expect("engine");
    let monitor = Monitor::new(MonitorConfig::default());
    monitor.attach_metrics_out(&path).expect("sink");
    e.attach_monitor(monitor);
    e.train().expect("train");

    let text = std::fs::read_to_string(&path).expect("metrics file");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "one snapshot per superstep");
    for line in lines {
        let v: serde_json::Value = serde_json::from_str(line).expect("snapshot JSON");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("metrics"));
        assert!(v.get("iter").and_then(|i| i.as_u64()).is_some());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A traced *and* monitored run keeps the exact byte reconciliation
/// between comm records and the router meter — the monitor's traffic
/// gauge reads must not perturb the metering.
#[test]
fn monitored_traced_run_still_reconciles_bytes() {
    let _one = one_engine();
    let ds = synth::small_test_dataset(600, 5_000, 11);
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(64)
        .with_iterations(6)
        .with_seed(13);
    let recorder = Recorder::new();
    let mut e = ColumnSgdEngine::new_clustered(
        &ds,
        3,
        cfg,
        NetworkModel::CLUSTER1,
        FailurePlan::none(),
        recorder.clone(),
        &ClusterConfig::in_proc(),
    )
    .expect("engine");
    e.attach_monitor(Monitor::new(MonitorConfig::default()));
    e.train().expect("train");
    let total = e.traffic().total();
    let s = recorder.summary();
    assert_eq!(
        (s.comm_bytes, s.comm_messages),
        (total.bytes, total.messages)
    );
}
