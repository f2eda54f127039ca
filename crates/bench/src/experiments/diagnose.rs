//! `diagnose`: online monitors cross-checked against offline trace
//! analytics on a seeded straggler run.
//!
//! One LR job on the Cluster-1 preset with StragglerLevel-5 injection and
//! both diagnostic paths attached: the in-engine [`Monitor`] (streaming
//! detectors, fires *during* the run) and the post-hoc
//! `telemetry::analyze` queries over the recorded trace (the same code
//! `columnsgd-inspect` runs). The experiment asserts the two agree — every
//! online straggler alarm names a worker the offline critical path also
//! blames at that superstep — and that the online event stream is
//! deterministic (a second same-seed run produces an identical canonical
//! stream, the property the CI gate relies on).

use columnsgd::cluster::telemetry::analyze;
use columnsgd::cluster::{
    ClusterConfig, FailurePlan, Monitor, MonitorConfig, NetworkModel, Recorder,
};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine, TrainOutcome};
use columnsgd::data::DatasetPreset;
use columnsgd::ml::ModelSpec;
use serde_json::json;

use crate::datasets;
use crate::report::Report;

const ITERS: u64 = 12;
const WORKERS: usize = 4;

fn run_once(scale: f64) -> (TrainOutcome, Recorder) {
    let ds = datasets::build(DatasetPreset::Avazu, scale * 0.5, 2_000, 31);
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(200)
        .with_iterations(ITERS)
        .with_learning_rate(0.5)
        .with_seed(31);
    let plan = FailurePlan::with_straggler(5.0, 7);
    let recorder = Recorder::new();
    let mut e = ColumnSgdEngine::new_clustered(
        &ds,
        WORKERS,
        cfg,
        NetworkModel::CLUSTER1,
        plan,
        recorder.clone(),
        &ClusterConfig::in_proc(),
    )
    .expect("engine");
    e.attach_monitor(Monitor::new(MonitorConfig::default()));
    let out = e.train().expect("train");
    (out, recorder)
}

/// Runs the diagnose job twice (determinism check) and reports the
/// online/offline reconciliation.
pub fn run(scale: f64) -> Report {
    let (out, recorder) = run_once(scale);
    let (out2, _) = run_once(scale);

    // Same seed ⇒ same canonical diagnostic stream. Canonical identity
    // drops measured magnitudes, so real timer jitter cannot break this.
    let stream: Vec<String> = out
        .diagnostics
        .events
        .iter()
        .map(|e| e.canonical())
        .collect();
    let stream2: Vec<String> = out2
        .diagnostics
        .events
        .iter()
        .map(|e| e.canonical())
        .collect();
    assert_eq!(
        stream, stream2,
        "online diagnostic stream must be deterministic under a fixed seed"
    );

    // Offline analytics over the same run's trace.
    let events = recorder.events();
    let critical = analyze::critical_path(&events);
    let attribution = analyze::stragglers(&events, 0.5);

    // Reconcile: every online straggler alarm must name the worker the
    // offline critical path holds responsible at that superstep (the
    // injected straggler's 6x compute dominates both views).
    let mut reconciled = 0u64;
    for ev in &out.diagnostics.events {
        if ev.kind.as_str() != "straggler" {
            continue;
        }
        let bounding = critical
            .iter()
            .find(|c| c.iteration == ev.iteration)
            .and_then(|c| c.bounding_worker);
        assert_eq!(
            bounding, ev.worker,
            "online straggler alarm at iteration {} disagrees with the offline critical path",
            ev.iteration
        );
        reconciled += 1;
    }
    assert!(
        out.diagnostics.straggler_alarms > 0,
        "StragglerLevel-5 injection must trip the online straggler detector"
    );

    let mut r = Report::new(
        "diagnose",
        "diagnostics: online monitor vs offline trace analytics (Cluster 1, K=4, StragglerLevel 5)",
        &[
            "superstep",
            "bounding worker",
            "bounding phase",
            "online alarm",
        ],
    );
    for c in &critical {
        let alarm = out
            .diagnostics
            .events
            .iter()
            .find(|e| e.iteration == c.iteration && e.kind.as_str() == "straggler")
            .map(|e| format!("straggler w{}", e.worker.unwrap_or(u64::MAX)))
            .unwrap_or_else(|| "-".to_string());
        r.row(vec![
            c.iteration.to_string(),
            c.bounding_worker
                .map(|w| format!("w{w}"))
                .unwrap_or_else(|| "-".to_string()),
            format!("{:?}", c.phase),
            alarm,
        ]);
    }
    r.note(format!(
        "online: {} straggler alarms, {} skew flags, {} comm alarms — all {} straggler alarms \
         reconciled against the offline critical path",
        out.diagnostics.straggler_alarms,
        out.diagnostics.skew_alarms,
        out.diagnostics.comm_alarms,
        reconciled
    ));
    r.note(format!(
        "offline attribution: {}",
        attribution
            .iter()
            .map(|a| format!(
                "w{} bound {} iters ({})",
                a.worker,
                a.bound_iters,
                if a.persistent {
                    "persistent"
                } else {
                    "transient"
                }
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    r.note("determinism: second same-seed run produced an identical canonical event stream");
    r.json = json!({
        "straggler_alarms": out.diagnostics.straggler_alarms,
        "skew_alarms": out.diagnostics.skew_alarms,
        "comm_alarms": out.diagnostics.comm_alarms,
        "reconciled": reconciled,
        "canonical_stream": stream,
        "attribution": attribution
            .iter()
            .map(|a| json!({
                "worker": a.worker,
                "bound_iters": a.bound_iters,
                "share": a.share,
                "persistent": a.persistent,
            }))
            .collect::<Vec<_>>(),
    });
    r
}
