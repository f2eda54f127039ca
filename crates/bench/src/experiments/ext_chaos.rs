//! **Extension** — chaos sweep: training under seeded random message
//! drop/duplication/reordering plus spontaneous worker crashes.
//!
//! The paper's fault-tolerance story (§X, Figure 13) injects *one*
//! scripted failure. This extension stress-tests the same detection-based
//! recovery machinery under continuous, probabilistic chaos at increasing
//! intensity, and reports what the master *observed*: how many faults it
//! detected, by which method, and what recovery cost. Same seed ⇒
//! bit-identical fault pattern, so rows are reproducible.
//!
//! Everything reported here is a query over the run's telemetry events —
//! fault counts come from `Summary::faults_by_detection`, chaos
//! visibility from the comm records' fault annotations, and the byte
//! totals are asserted to reconcile exactly with the router's meter.

use columnsgd::cluster::{ChaosSpec, ClusterConfig, FailurePlan, NetworkModel, Recorder};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::data::DatasetPreset;
use columnsgd::ml::ModelSpec;
use serde_json::json;

use crate::datasets;
use crate::report::Report;

/// Chaos intensities swept: (label, wire fault probability, crash
/// probability per attempt).
const LEVELS: [(&str, f64, f64); 4] = [
    ("calm", 0.00, 0.00),
    ("mild", 0.02, 0.005),
    ("rough", 0.05, 0.02),
    ("hostile", 0.10, 0.04),
];

/// Runs the chaos sweep.
pub fn run(scale: f64) -> Report {
    let ds = datasets::build(DatasetPreset::Kdd12, scale * 0.2, 8_000, 83);
    let iters = 60u64;
    let mut r = Report::new(
        "ext_chaos",
        "Extension: detection-based recovery under chaos (LR, K=4, 60 iterations)",
        &[
            "level",
            "wire p",
            "crash p",
            "detections",
            "err-reply",
            "panic",
            "send-fail",
            "timeout",
            "wire faults",
            "retries max",
            "final loss",
        ],
    );
    let mut rows_json = Vec::new();
    for (label, wire_p, crash_p) in LEVELS {
        let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
            .with_batch_size(500)
            .with_iterations(iters)
            .with_learning_rate(0.5)
            .with_seed(83)
            .with_deadline_ms(300)
            // At 10% drop each way + 4% crash per attempt, a worker-
            // iteration fails ~23% of the time; the default budget of 3
            // would abort with RetriesExhausted roughly every other run.
            .with_max_task_retries(10);
        let chaos = ChaosSpec::uniform(101, wire_p, crash_p);
        let recorder = Recorder::new();
        let mut e = ColumnSgdEngine::new_clustered(
            &ds,
            4,
            cfg,
            NetworkModel::CLUSTER1,
            FailurePlan::with_chaos(chaos),
            recorder.clone(),
            &ClusterConfig::in_proc(),
        )
        .expect("engine");
        let out = e.train().expect("training must survive every chaos level");
        // Every row below is a telemetry query; the engine has already
        // asserted that comm records reconcile with the router meter.
        let s = recorder.summary();
        let by = |d: &str| {
            s.faults_by_detection
                .iter()
                .find(|(name, _)| name == d)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        let loss = out.curve.final_loss().unwrap();
        r.row(vec![
            label.to_string(),
            format!("{wire_p:.2}"),
            format!("{crash_p:.3}"),
            s.faults.to_string(),
            by("error reply").to_string(),
            by("panic report").to_string(),
            by("send failure").to_string(),
            by("deadline timeout").to_string(),
            s.comm_faults.to_string(),
            s.max_attempt.to_string(),
            format!("{loss:.4}"),
        ]);
        rows_json.push(json!({
            "level": label,
            "wire_p": wire_p,
            "crash_p": crash_p,
            "run": s.run.run_id_hex(),
            "detections": s.faults,
            "by_detection": s.faults_by_detection.iter().map(|(d, n)| json!({
                "detection": d, "count": n,
            })).collect::<Vec<_>>(),
            "wire_faults_observed": s.comm_faults,
            "comm_bytes": s.comm_bytes,
            "final_loss": loss,
        }));
    }
    r.note(
        "dropped messages surface as timeouts (master probes, worker alive+loaded ⇒ task re-issued); \
         crashes surface as panic reports (guarded thread converts the panic to a message) or send \
         failures; duplicates/reorders are absorbed by per-iteration dedup and never show up here",
    );
    r.note(
        "the `wire faults` column counts chaos-annotated comm records (drops + duplicate \
         deliveries) straight from the trace — injected chaos is now *observable*, not inferred",
    );
    r.note("all runs converge to the same neighborhood — recovery re-executes, it does not skip");
    r.note(
        "retry budget raised to 10 for the sweep: at the hostile level a worker-iteration fails \
         ~23% of the time, so the default budget of 3 aborts with TrainError::RetriesExhausted \
         about every other run — exactly the typed error a production config would surface",
    );
    r.json = json!({ "iterations": iters, "seed": 101, "levels": rows_json });
    r
}
