//! Figure 13: fault tolerance — task failure and worker failure during
//! training (LR on kdd12-synth).
//!
//! Failures are injected *at the worker* (the master never reads the
//! injection script); everything reported here comes from the master's
//! own [`RecoveryEvent`] log — what it
//! detected, how, and what the recovery cost.

use columnsgd::cluster::failure::FailureEvent;
use columnsgd::cluster::{FailurePlan, NetworkModel};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine, RecoveryEvent};
use columnsgd::data::DatasetPreset;
use columnsgd::ml::ModelSpec;
use serde_json::json;

use crate::datasets;
use crate::report::{fmt_s, Report};

/// Runs both fault-tolerance scenarios.
pub fn run(scale: f64) -> Vec<Report> {
    vec![task_failure(scale), worker_failure(scale)]
}

fn config() -> ColumnSgdConfig {
    ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(1000)
        .with_iterations(120)
        .with_learning_rate(0.5)
        .with_seed(81)
}

fn events_json(events: &[RecoveryEvent]) -> Vec<serde_json::Value> {
    events
        .iter()
        .map(|e| {
            json!({
                "iteration": e.iteration,
                "worker": e.worker,
                "fault": format!("{:?}", e.fault),
                "detection": format!("{:?}", e.detection),
                "attempt": e.attempt,
                "detection_latency_s": e.detection_latency_s,
                "recovery_cost_s": e.recovery_cost_s,
            })
        })
        .collect()
}

fn task_failure(scale: f64) -> Report {
    let ds = datasets::build(DatasetPreset::Kdd12, scale * 0.2, 10_000, 81);
    let fail_at = 60u64;
    let plan = FailurePlan {
        events: vec![FailureEvent::TaskFailure {
            iteration: fail_at,
            worker: 1,
        }],
        ..FailurePlan::default()
    };
    let mut e =
        ColumnSgdEngine::new(&ds, 4, config(), NetworkModel::CLUSTER1, plan).expect("engine");
    let out = e.train().expect("train");
    let mut r = Report::new(
        "fig13a",
        "Figure 13(a): task failure at iteration 60 — objective value around the event",
        &["iteration", "time s", "loss"],
    );
    let sm = out.curve.smoothed(5);
    for &i in &[40usize, 55, 59, 60, 61, 65, 80, 119] {
        let p = sm.points[i];
        r.row(vec![
            i.to_string(),
            fmt_s(p.time_s),
            format!("{:.4}", p.loss),
        ]);
    }
    let detected = out
        .recovery
        .iter()
        .find(|e| e.iteration == fail_at)
        .expect("master must detect the injected task failure");
    r.note(format!(
        "master detected the failure via {:?} and re-issued the task (attempt {}); the retry runs on in-memory data — no reload, no loss disturbance",
        detected.detection,
        detected.attempt + 1
    ));
    r.json = json!({
        "fail_at": fail_at,
        "recovery_events": events_json(&out.recovery),
        "losses": out.curve.points.iter().map(|p| json!([p.iteration, p.time_s, p.loss])).collect::<Vec<_>>(),
    });
    r
}

fn worker_failure(scale: f64) -> Report {
    let ds = datasets::build(DatasetPreset::Kdd12, scale * 0.2, 10_000, 82);
    let fail_at = 60u64;
    let plan = FailurePlan {
        events: vec![FailureEvent::WorkerFailure {
            iteration: fail_at,
            worker: 1,
        }],
        ..FailurePlan::default()
    };
    let mut e =
        ColumnSgdEngine::new(&ds, 4, config(), NetworkModel::CLUSTER1, plan).expect("engine");
    let out = e.train().expect("train");

    // The reload cost is read off the master's recovery log, not the
    // injection script.
    let detected = out
        .recovery
        .iter()
        .find(|e| e.iteration == fail_at)
        .expect("master must detect the injected worker failure");
    let reload_s = detected.recovery_cost_s;

    let mut r = Report::new(
        "fig13b",
        "Figure 13(b): worker failure at iteration 60 — reload pause, loss spike, reconvergence",
        &["iteration", "time s", "loss"],
    );
    let sm = out.curve.smoothed(3);
    for &i in &[40usize, 59, 60, 61, 70, 90, 119] {
        let p = sm.points[i];
        r.row(vec![
            i.to_string(),
            fmt_s(p.time_s),
            format!("{:.4}", p.loss),
        ]);
    }
    r.note(format!(
        "detected via {:?}; data reload charged {} simulated seconds (paper measured ~23 s on kdd12 at full scale); the failed worker's model partition restarts from zero and the job reconverges without checkpointing",
        detected.detection,
        fmt_s(reload_s)
    ));
    r.json = json!({
        "fail_at": fail_at,
        "reload_s": reload_s,
        "recovery_events": events_json(&out.recovery),
        "losses": out.curve.points.iter().map(|p| json!([p.iteration, p.time_s, p.loss])).collect::<Vec<_>>(),
    });
    r
}
