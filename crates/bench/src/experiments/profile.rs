//! `profile`: the continuous-profiling layer end to end — a traced,
//! profiled LR run whose folded-stack export is *deterministic*.
//!
//! Two same-seed in-process runs are profiled back to back; their prof
//! events are folded into flamegraph-style `origin;frame;... calls`
//! lines (the canonical weight: wall/CPU/allocation columns are
//! measurements and excluded from the determinism claim). The experiment
//! asserts the two folds are byte-identical and that every instrumented
//! layer shows up (engine phases, worker phases, ML kernels), then
//! writes the fold to `repro_results/PROFILE_sample.folded` (override
//! with `COLUMNSGD_PROFILE_OUT`) — the same text `columnsgd-inspect
//! flame` produces from the trace.
//!
//! The run pins `threads_per_worker = 1` so kernel frames nest inside the
//! worker phases on the mailbox thread: the checked-in fold is then
//! machine-independent (a wider pool would move kernels onto pool
//! threads, flattening their stacks).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use columnsgd::cluster::telemetry::{profile, Event};
use columnsgd::cluster::{ClusterConfig, FailurePlan, NetworkModel, Recorder};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::data::DatasetPreset;
use columnsgd::ml::ModelSpec;
use serde_json::json;

use crate::datasets;
use crate::report::Report;

/// Default path of the checked-in sample fold.
pub const DEFAULT_FOLD_OUT: &str = "repro_results/PROFILE_sample.folded";

/// Environment variable overriding the fold output path.
pub const FOLD_OUT_ENV: &str = "COLUMNSGD_PROFILE_OUT";

/// Discards profiler samples accumulated by whatever ran earlier in this
/// process (the profiler registry is process-global): drains until two
/// consecutive sweeps come back empty, so even a scope racing to close on
/// a detached thread cannot leak into the next run's fold.
pub fn discard_profiler_residue() {
    let mut empty = 0;
    while empty < 2 {
        if profile::drain().is_empty() {
            empty += 1;
        } else {
            empty = 0;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Folds a trace's prof events the way `columnsgd-inspect flame` does
/// with the default deterministic `calls` weight.
pub fn fold_calls(events: &[Event]) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        if let Event::Prof(p) = e {
            let origin = match p.worker {
                Some(w) => format!("worker{w}"),
                None => "master".to_string(),
            };
            *folded.entry(format!("{origin};{}", p.stack)).or_insert(0) += p.calls;
        }
    }
    let mut out = String::new();
    for (k, v) in &folded {
        out.push_str(&format!("{k} {v}\n"));
    }
    out
}

fn profiled_run(scale: f64) -> (String, usize) {
    let ds = datasets::build(DatasetPreset::Avazu, scale * 0.5, 2_000, 31);
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(200)
        .with_iterations(6)
        .with_learning_rate(0.5)
        .with_seed(31)
        .with_threads_per_worker(1);
    let recorder = Recorder::new();
    let mut e = ColumnSgdEngine::new_clustered(
        &ds,
        2,
        cfg,
        NetworkModel::CLUSTER1,
        FailurePlan::none(),
        recorder.clone(),
        &ClusterConfig::in_proc(),
    )
    .expect("engine");
    e.train().expect("train");
    let prof_events = recorder
        .events()
        .iter()
        .filter(|ev| matches!(ev, Event::Prof(_)))
        .count();
    (fold_calls(&recorder.events()), prof_events)
}

/// Runs the profiled sample job twice and writes the folded stacks.
pub fn run(scale: f64) -> Report {
    let out_path: PathBuf = std::env::var(FOLD_OUT_ENV)
        .unwrap_or_else(|_| DEFAULT_FOLD_OUT.to_string())
        .into();

    discard_profiler_residue();
    profile::set_enabled(true);
    let (fold_a, prof_events) = profiled_run(scale);
    discard_profiler_residue();
    let (fold_b, _) = profiled_run(scale);
    profile::set_enabled(false);
    discard_profiler_residue();

    // Acceptance: folded stacks are canonical — two same-seed runs fold
    // to byte-identical text (wall/CPU/alloc columns are excluded).
    assert_eq!(
        fold_a, fold_b,
        "same-seed profiled runs must fold to identical stacks"
    );
    // Every instrumented layer is represented.
    for stack in [
        "master;issue",
        "master;gather",
        "master;reduce",
        "master;broadcast",
        "master;worker_stats;batch_sample",
        "master;worker_stats;kernel_stats",
        "master;worker_update;kernel_update",
    ] {
        assert!(
            fold_a.lines().any(|l| l.starts_with(&format!("{stack} "))),
            "expected folded stack {stack:?} missing:\n{fold_a}"
        );
    }

    std::fs::write(&out_path, &fold_a).expect("write folded stacks");

    let mut r = Report::new(
        "profile",
        "continuous profiling: folded phase stacks of a traced LR run \
         (K=2, B=200, 6 iterations, 1 thread/worker) — deterministic across \
         same-seed runs by construction",
        &["stack", "calls"],
    );
    for line in fold_a.lines() {
        if let Some((stack, calls)) = line.rsplit_once(' ') {
            r.row(vec![stack.to_string(), calls.to_string()]);
        }
    }
    r.note(format!(
        "{prof_events} prof events folded to {} stacks; fold written to {} \
         (feed it to flamegraph.pl / inferno-flamegraph)",
        fold_a.lines().count(),
        out_path.display()
    ));
    r.json = json!({
        "fold_path": out_path.display().to_string(),
        "stacks": fold_a.lines().count() as u64,
        "prof_events": prof_events as u64,
        "deterministic": true,
    });
    r
}
