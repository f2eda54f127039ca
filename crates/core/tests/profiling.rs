//! Continuous-profiling determinism: two same-seed profiled runs must
//! fold to byte-identical `origin;frame;... calls` stacks — on the
//! in-process backend AND the loopback-TCP process backend.
//!
//! Folding (summing calls per stack, sorted) is the determinism
//! boundary: on TCP the workers' telemetry frames interleave in the hub
//! nondeterministically, so per-event order is *not* reproducible, but
//! the folded weights are. Wall/CPU/allocation columns are measurements
//! and excluded by construction.
//!
//! The profiler registry is process-global, so every test here
//! serializes on one lock and discards residue (e.g. the `codec_encode`
//! of a previous engine's `Shutdown`, which lands at Drop *after* that
//! run's final drain) before profiling.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use columnsgd_cluster::telemetry::{profile, Event};
use columnsgd_cluster::{ClusterConfig, FailurePlan, NetworkModel, Recorder};
use columnsgd_core::{ColumnSgdConfig, ColumnSgdEngine, ElasticConfig};
use columnsgd_data::synth;
use columnsgd_ml::ModelSpec;

static PROF_LOCK: Mutex<()> = Mutex::new(());

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_columnsgd-worker"))
}

/// Drains the process-global profiler until two consecutive sweeps come
/// back empty: detached threads (hub connections, the metrics responder)
/// may close a scope asynchronously after a run ends.
fn discard_residue() {
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

/// Sums calls per `origin;stack` key — the same fold `columnsgd-inspect
/// flame` performs with its default `calls` weight.
fn fold_calls(events: &[Event]) -> String {
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

fn profiled_cfg() -> ColumnSgdConfig {
    ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(32)
        .with_iterations(6)
        .with_learning_rate(0.5)
        .with_seed(17)
        // Pin the pool to width 1 so kernel frames nest under the worker
        // phases on the mailbox thread regardless of the host's cores.
        .with_threads_per_worker(1)
}

/// One traced, profiled run on the given backend; returns the fold and
/// the count of worker-originated prof events (shipped over telemetry
/// frames — only the TCP backend produces these).
fn profiled_run(cluster: &ClusterConfig) -> (String, usize) {
    discard_residue();
    let cfg = profiled_cfg();
    let ds = synth::small_test_dataset(240, 48, 9);
    let blocks: Vec<_> = ds
        .into_block_queue(cfg.block_size)
        .iter()
        .cloned()
        .collect();
    let dim = ds.dimension();
    let recorder = Recorder::new();
    let mut engine = ColumnSgdEngine::from_blocks_clustered(
        blocks,
        dim,
        2,
        cfg,
        NetworkModel::INSTANT,
        FailurePlan::none(),
        recorder.clone(),
        cluster,
    )
    .unwrap_or_else(|e| panic!("engine on {}: {e}", cluster.transport));
    engine
        .train()
        .unwrap_or_else(|e| panic!("train on {}: {e}", cluster.transport));
    let events = recorder.events();
    let shipped = events
        .iter()
        .filter(|e| matches!(e, Event::Prof(p) if p.worker.is_some()))
        .count();
    (fold_calls(&events), shipped)
}

#[test]
fn flame_fold_is_deterministic_inproc() {
    let _g = PROF_LOCK.lock().unwrap();
    profile::set_enabled(true);
    let (fold_a, _) = profiled_run(&ClusterConfig::in_proc());
    let (fold_b, _) = profiled_run(&ClusterConfig::in_proc());
    profile::set_enabled(false);
    discard_residue();

    assert!(!fold_a.is_empty(), "profiled run produced no prof events");
    assert_eq!(fold_a, fold_b, "same-seed in-process folds diverged");
    // Every instrumented layer is represented. In-process worker threads
    // share the master's registry, so their frames fold under "master".
    for stack in [
        "master;issue",
        "master;gather",
        "master;reduce",
        "master;broadcast",
        "master;worker_stats;kernel_stats",
        "master;worker_update;kernel_update",
    ] {
        assert!(
            fold_a.lines().any(|l| l.starts_with(&format!("{stack} "))),
            "expected stack {stack:?} missing from fold:\n{fold_a}"
        );
    }
}

/// The elastic engine runs the same superstep loop, so a profiled elastic
/// run folds the same four master phases, once per superstep each.
#[test]
fn elastic_run_folds_the_same_master_phases() {
    let _g = PROF_LOCK.lock().unwrap();
    discard_residue();
    profile::set_enabled(true);
    let cfg = profiled_cfg();
    let ds = synth::small_test_dataset(240, 48, 9);
    let recorder = Recorder::new();
    let mut engine = ColumnSgdEngine::new_elastic_clustered(
        &ds,
        ElasticConfig::new(cfg, 2, 2),
        NetworkModel::INSTANT,
        FailurePlan::none(),
        recorder.clone(),
        &ClusterConfig::in_proc(),
    )
    .expect("elastic engine");
    engine.train().expect("elastic train");
    profile::set_enabled(false);
    let fold = fold_calls(&recorder.events());
    discard_residue();

    for phase in ["issue", "gather", "reduce", "broadcast"] {
        assert!(
            fold.lines()
                .any(|l| l == format!("master;{phase} {}", cfg.iterations)),
            "expected one master;{phase} call per superstep in fold:\n{fold}"
        );
    }
}

#[test]
fn flame_fold_is_deterministic_tcp() {
    let _g = PROF_LOCK.lock().unwrap();
    // Worker processes inherit the environment; the worker binary calls
    // `enable_from_env` at startup.
    std::env::set_var(profile::PROFILE_ENV, "1");
    profile::set_enabled(true);
    let cluster = ClusterConfig::tcp().with_worker_bin(worker_bin());
    let (fold_a, shipped_a) = profiled_run(&cluster);
    let (fold_b, _) = profiled_run(&cluster);
    profile::set_enabled(false);
    std::env::remove_var(profile::PROFILE_ENV);
    discard_residue();

    assert!(
        shipped_a > 0,
        "expected worker-originated prof events shipped over telemetry frames"
    );
    assert_eq!(fold_a, fold_b, "same-seed TCP folds diverged");
    // Master phases fold under "master"; worker-process samples carry
    // their origin; the transport layer itself is profiled.
    for stack in [
        "master;issue",
        "master;gather",
        "master;reduce",
        "master;broadcast",
        "worker0;worker_stats;kernel_stats",
        "worker1;worker_update;kernel_update",
    ] {
        assert!(
            fold_a.lines().any(|l| l.starts_with(&format!("{stack} "))),
            "expected stack {stack:?} missing from fold:\n{fold_a}"
        );
    }
    assert!(
        fold_a.lines().any(|l| l.starts_with("master;")
            && (l.contains("codec_encode") || l.contains("hub_switch"))),
        "expected transport frames (codec/hub) in the TCP fold:\n{fold_a}"
    );
}

/// Profiling must not perturb training: the profiled run's loss curve is
/// bit-identical to an unprofiled same-seed run.
#[test]
fn profiling_does_not_change_the_trajectory() {
    let _g = PROF_LOCK.lock().unwrap();
    let run = |profiled: bool| {
        discard_residue();
        profile::set_enabled(profiled);
        let cfg = profiled_cfg();
        let ds = synth::small_test_dataset(240, 48, 9);
        let mut engine = ColumnSgdEngine::new_clustered(
            &ds,
            2,
            cfg,
            NetworkModel::INSTANT,
            FailurePlan::none(),
            Recorder::disabled(),
            &ClusterConfig::in_proc(),
        )
        .expect("engine");
        let out = engine.train().expect("train");
        profile::set_enabled(false);
        out.curve.points.iter().map(|p| p.loss).collect::<Vec<_>>()
    };
    let plain = run(false);
    let profiled = run(true);
    discard_residue();
    assert_eq!(plain, profiled, "profiling changed the loss trajectory");
}
