//! `trace`: a small traced LR training run on the Cluster-1 preset.
//!
//! Exercises the full telemetry path end to end: a `Recorder` is threaded
//! through the engine and router, every superstep span / comm record /
//! kernel record / fault record is captured, the JSONL trace is written to
//! `repro_results/TRACE_sample.jsonl` (override with `--trace-out` or the
//! `COLUMNSGD_TRACE_OUT` environment variable), and the report's
//! time-breakdown table is a pure `telemetry::Summary` query over the
//! recorded events — no second bookkeeping path.

use std::path::PathBuf;

use columnsgd::cluster::telemetry::SCHEMA_VERSION;
use columnsgd::cluster::{ClusterConfig, FailureEvent, FailurePlan, NetworkModel, Recorder};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::data::DatasetPreset;
use columnsgd::ml::ModelSpec;
use serde_json::json;

use crate::datasets;
use crate::report::{breakdown_json, breakdown_rows, Report};

/// Default path of the checked-in sample trace.
pub const DEFAULT_TRACE_OUT: &str = "repro_results/TRACE_sample.jsonl";

/// Environment variable overriding the trace output path (set by the
/// `repro` binary's `--trace-out` flag).
pub const TRACE_OUT_ENV: &str = "COLUMNSGD_TRACE_OUT";

/// Runs the traced sample job and writes the JSONL trace.
pub fn run(scale: f64) -> Report {
    let out_path: PathBuf = std::env::var(TRACE_OUT_ENV)
        .unwrap_or_else(|_| DEFAULT_TRACE_OUT.to_string())
        .into();
    let ds = datasets::build(DatasetPreset::Avazu, scale * 0.5, 2_000, 29);
    // One scripted task failure so the sample trace carries all four
    // event types (superstep, comm, kernel, fault).
    let plan = FailurePlan {
        events: vec![FailureEvent::TaskFailure {
            iteration: 3,
            worker: 1,
        }],
        ..FailurePlan::default()
    };
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(200)
        .with_iterations(8)
        .with_learning_rate(0.5)
        .with_seed(29);
    let recorder = Recorder::new();
    let mut e = ColumnSgdEngine::new_clustered(
        &ds,
        4,
        cfg,
        NetworkModel::CLUSTER1,
        plan,
        recorder.clone(),
        &ClusterConfig::in_proc(),
    )
    .expect("engine");
    let out = e.train().expect("train");
    recorder.write_jsonl(&out_path).expect("write trace");
    let s = recorder.summary();
    assert_eq!(
        (s.comm_bytes, s.comm_messages),
        (e.traffic().total().bytes, e.traffic().total().messages),
        "trace bytes must reconcile with the router meter"
    );

    let mut r = Report::new(
        "trace",
        "telemetry: traced LR run (Cluster 1, K=4, B=200, 8 iterations) — breakdown from trace queries",
        &["phase", "sim s", "share"],
    );
    for row in breakdown_rows(&s) {
        r.row(row);
    }
    r.note(format!(
        "run {} (schema v{SCHEMA_VERSION}), seed {}, {} workers — trace written to {}",
        s.run.run_id_hex(),
        s.run.seed,
        s.run.workers,
        out_path.display()
    ));
    r.note(format!(
        "comm: {} messages / {} bytes, reconciled exactly with the router meter; top kind {}",
        s.comm_messages,
        s.comm_bytes,
        s.by_kind
            .first()
            .map(|k| format!("{} ({} B)", k.kind, k.bytes))
            .unwrap_or_else(|| "-".to_string())
    ));
    r.note(format!(
        "faults recorded: {} (scripted task failure at iteration 3, detected via {})",
        s.faults,
        s.faults_by_detection
            .first()
            .map(|(d, _)| d.clone())
            .unwrap_or_else(|| "-".to_string())
    ));
    r.json = json!({
        "trace_path": out_path.display().to_string(),
        "schema": SCHEMA_VERSION,
        "final_loss": out.curve.final_loss(),
        "faults": s.faults,
        "breakdown": breakdown_json(&s),
    });
    r
}
