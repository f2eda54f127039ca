//! Integration tests for the elastic membership layer: static
//! equivalence, crash promotion with bit-identical losses, live join/leave
//! migration, speculative backup execution, gauge-driven scale policy, and
//! seeded chaos determinism.

use columnsgd_cluster::telemetry::{Event, Phase};
use columnsgd_cluster::{
    ChaosSpec, ClusterConfig, FailurePlan, Monitor, MonitorConfig, NetworkModel, Recorder,
    WorkerState,
};
use columnsgd_core::{
    ColumnSgdConfig, ColumnSgdEngine, ElasticAction, ElasticConfig, ElasticEvent, ElasticLedger,
    ScalePolicy, TrainError, TrainOutcome,
};
use columnsgd_data::{synth, Dataset};
use columnsgd_ml::ModelSpec;

/// The ledger every elastic run's outcome carries.
fn ledger(out: &TrainOutcome) -> &ElasticLedger {
    out.elastic.as_ref().expect("an elastic run keeps a ledger")
}

fn dataset(rows: usize, dim: u64, seed: u64) -> Dataset {
    synth::small_test_dataset(rows, dim, seed)
}

fn base_cfg(model: ModelSpec) -> ColumnSgdConfig {
    ColumnSgdConfig::new(model)
        .with_batch_size(64)
        .with_iterations(30)
        .with_learning_rate(0.5)
        .with_seed(11)
}

fn losses(out: &TrainOutcome) -> Vec<f64> {
    out.curve.points.iter().map(|p| p.loss).collect()
}

fn run_elastic(ds: &Dataset, cfg: ElasticConfig, plan: FailurePlan) -> TrainOutcome {
    let mut engine =
        ColumnSgdEngine::new_elastic(ds, cfg, NetworkModel::INSTANT, plan).expect("elastic engine");
    engine.train().expect("elastic train")
}

/// With every slot active from the start and no membership events, the
/// elastic engine is the static engine: same canonical aggregation order,
/// same batches, same shard layouts — the loss trajectories and the final
/// models must be *bit-identical*.
#[test]
fn full_cluster_matches_static_engine_exactly() {
    let ds = dataset(400, 80, 7);
    let cfg = base_cfg(ModelSpec::Lr);

    let mut stat = ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, FailurePlan::none())
        .expect("static engine");
    let stat_out = stat.train().expect("static train");
    let stat_model = stat.collect_model().expect("static model");

    let mut elast = ColumnSgdEngine::new_elastic(
        &ds,
        ElasticConfig::new(cfg, 4, 4),
        NetworkModel::INSTANT,
        FailurePlan::none(),
    )
    .expect("elastic engine");
    let elast_out = elast.train().expect("elastic train");
    let elast_model = elast.collect_model().expect("elastic model");

    let a: Vec<f64> = stat_out.curve.points.iter().map(|p| p.loss).collect();
    let b = losses(&elast_out);
    assert_eq!(a, b, "loss trajectories must be bit-identical");
    assert_eq!(
        stat_model.blocks, elast_model.blocks,
        "final models must be bit-identical"
    );
}

/// A replicated crash is *invisible to the trained bits*: the surviving
/// backup is promoted in place (its replica applied every update), the
/// orphaned partition is re-issued to it, and the loss curve stays
/// bit-identical to the failure-free run.
#[test]
fn crash_with_replication_is_bit_identical_to_failure_free() {
    let ds = dataset(400, 80, 7);
    let cfg = base_cfg(ModelSpec::Lr).with_deadline_ms(500);

    let clean = run_elastic(
        &ds,
        ElasticConfig::new(cfg, 4, 4).with_replication(),
        FailurePlan::none(),
    );
    let crashed = run_elastic(
        &ds,
        ElasticConfig::new(cfg, 4, 4)
            .with_replication()
            .with_schedule(vec![ElasticEvent {
                iteration: 5,
                worker: 1,
                action: ElasticAction::Crash,
            }]),
        FailurePlan::none(),
    );

    assert_eq!(
        losses(&clean),
        losses(&crashed),
        "promotion from a warm replica must not change a single bit"
    );
    assert_eq!(crashed.recovery.len(), 1, "one detected worker failure");
    assert!(
        ledger(&crashed)
            .membership_log
            .iter()
            .any(|ev| ev.action == "dead" && ev.worker == 1),
        "the death must be in the membership log"
    );
    // The replication repair re-established a backup for the promoted
    // partitions as metered migration traffic.
    assert!(
        ledger(&crashed).migrations >= 1,
        "repair migrations expected"
    );
    assert!(
        ledger(&crashed).migration_bytes > 0,
        "migrations are metered bytes"
    );
}

/// A scale-up join mid-run migrates shards to the new worker over the
/// wire and the run tracks the static full cluster bit-for-bit: per-
/// partition tasks keep the aggregation fold independent of ownership.
#[test]
fn late_join_levels_load_and_converges() {
    let ds = dataset(400, 80, 7);
    let cfg = base_cfg(ModelSpec::Lr);

    let recorder = Recorder::new();
    let mut engine = ColumnSgdEngine::new_elastic_clustered(
        &ds,
        ElasticConfig::new(cfg, 4, 3).with_schedule(vec![ElasticEvent {
            iteration: 5,
            worker: 3,
            action: ElasticAction::Join,
        }]),
        NetworkModel::CLUSTER1,
        FailurePlan::none(),
        recorder.clone(),
        &ClusterConfig::in_proc(),
    )
    .expect("elastic engine");
    let out = engine.train().expect("elastic train");

    assert_eq!(
        engine.membership().expect("elastic membership").state(3),
        Some(WorkerState::Active)
    );
    assert_eq!(
        engine
            .membership()
            .expect("elastic membership")
            .primaries_of(3)
            .len(),
        1,
        "the joiner takes over exactly one donated partition"
    );
    assert!(ledger(&out).migrations >= 1);
    assert!(ledger(&out).migration_bytes > 0);
    assert!(
        ledger(&out)
            .membership_log
            .iter()
            .any(|ev| ev.action == "join" && ev.worker == 3 && ev.moves > 0),
        "the join and its migration plan must be in the membership log"
    );
    // Migration traffic is in the telemetry trace AND the router meter,
    // reconciling exactly (the engine asserts this too; double-check from
    // the outside).
    let s = recorder.summary();
    let total = engine.traffic().total();
    assert_eq!(
        (s.comm_bytes, s.comm_messages),
        (total.bytes, total.messages),
        "trace comm records must reconcile with the router meter"
    );
    assert!(
        s.by_kind.iter().any(|k| k.kind == "ShardData"),
        "shard migration must appear per-kind in the trace"
    );

    // Bit-identical to the static 4-worker run: tasks are one-per-
    // partition, so the master's fold is the per-pid sorted sum no matter
    // which worker holds which partitions — ownership shape is invisible
    // to the trained bits.
    let mut stat = ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, FailurePlan::none())
        .expect("static engine");
    let stat_out = stat.train().expect("static train");
    let a: Vec<f64> = stat_out.curve.points.iter().map(|p| p.loss).collect();
    assert_eq!(
        a,
        losses(&out),
        "late-join run must track the static trajectory bit-for-bit"
    );
}

/// A graceful leave migrates the leaver's shards away first; the run
/// completes and the leaver is marked `Left`, not `Dead`.
#[test]
fn graceful_leave_migrates_and_completes() {
    let ds = dataset(400, 80, 7);
    let cfg = base_cfg(ModelSpec::Lr);

    let out = run_elastic(
        &ds,
        ElasticConfig::new(cfg, 4, 4).with_schedule(vec![ElasticEvent {
            iteration: 5,
            worker: 2,
            action: ElasticAction::Leave,
        }]),
        FailurePlan::none(),
    );

    assert!(
        ledger(&out).migrations >= 1,
        "the leaver's shard must migrate away"
    );
    assert!(
        ledger(&out)
            .membership_log
            .iter()
            .any(|ev| ev.action == "leave" && ev.worker == 2),
        "the leave must be in the membership log"
    );
    assert!(out.recovery.is_empty(), "a graceful leave is not a fault");
    let first = out.curve.points.first().expect("first point").loss;
    let last = out.curve.final_loss().expect("final loss");
    assert!(
        last < first,
        "training must still converge: {first} -> {last}"
    );
}

/// Speculative backup execution: under a pinned heavy straggler, the
/// armed duplicate on the warm replica wins the race and the per-iteration
/// simulated time collapses back toward the straggler-free cost — while
/// the loss bits stay exactly those of the canonical (primary) cover.
#[test]
fn speculation_caps_straggler_penalty() {
    let ds = dataset(400, 80, 7);
    let cfg = base_cfg(ModelSpec::Lr).with_batch_size(256);
    let sl5 = || FailurePlan::with_pinned_straggler(5.0, 1);
    let sensitive = MonitorConfig {
        straggler_window: 4,
        straggler_min_s: 1e-9,
        ..MonitorConfig::default()
    };

    // Straggling primary, no speculation: the barrier eats the full SL5
    // inflation every iteration.
    let slow = run_elastic(&ds, ElasticConfig::new(cfg, 4, 4).with_replication(), sl5());

    // Same straggler, speculation armed by the monitor's alarm.
    let mut engine = ColumnSgdEngine::new_elastic(
        &ds,
        ElasticConfig::new(cfg, 4, 4).with_speculation(),
        NetworkModel::INSTANT,
        sl5(),
    )
    .expect("elastic engine");
    engine.attach_monitor(Monitor::new(sensitive));
    let spec = engine.train().expect("elastic train");

    assert!(
        ledger(&spec).speculative_wins >= 10,
        "the replica must win most races, got {}",
        ledger(&spec).speculative_wins
    );
    let slow_s = slow.mean_iteration_s(20);
    let spec_s = spec.mean_iteration_s(20);
    assert!(
        slow_s >= 2.5 * spec_s,
        "speculation must collapse the straggler penalty: {slow_s}s vs {spec_s}s"
    );

    // Canonical cover: arming changed timing only — the bits match the
    // non-speculative straggler run exactly.
    assert_eq!(
        losses(&slow),
        losses(&spec),
        "speculation must never change the trained bits"
    );
}

/// The scale policy consumes the monitor's straggler gauge: after enough
/// alarms against one worker it admits a spare and drains the flagged
/// worker (rolling replacement), logged as a typed policy fault record.
#[test]
fn scale_policy_replaces_flagged_straggler() {
    let ds = dataset(400, 80, 7);
    let cfg = base_cfg(ModelSpec::Lr);
    let mut ecfg = ElasticConfig::new(cfg, 4, 3);
    ecfg.policy = ScalePolicy {
        replace_flagged_after: Some(3),
    };

    let recorder = Recorder::new();
    // On Cluster 1 the straggler also pays (factor - 1) × the 50 ms
    // per-task overhead, so the monitor's alarm does not hang on timer
    // noise.
    let mut engine = ColumnSgdEngine::new_elastic_clustered(
        &ds,
        ecfg,
        NetworkModel::CLUSTER1,
        FailurePlan::with_pinned_straggler(5.0, 1),
        recorder.clone(),
        &ClusterConfig::in_proc(),
    )
    .expect("elastic engine");
    engine.attach_monitor(Monitor::new(MonitorConfig {
        straggler_window: 4,
        straggler_min_s: 1e-9,
        ..MonitorConfig::default()
    }));
    let out = engine.train().expect("elastic train");

    assert_eq!(
        engine.membership().expect("elastic membership").state(1),
        Some(WorkerState::Left),
        "the flagged straggler must be drained"
    );
    assert_eq!(
        engine.membership().expect("elastic membership").state(3),
        Some(WorkerState::Active),
        "the spare must be admitted in its place"
    );
    assert!(
        ledger(&out)
            .membership_log
            .iter()
            .any(|ev| ev.action == "join"),
        "scale-up must be logged"
    );
    let s = recorder.summary();
    assert!(s.faults >= 1, "the policy action must emit a fault record");
    assert!(out.curve.final_loss().is_some(), "run must still converge");
}

/// Seeded chaos soak: crash during the replication-repair window plus a
/// late join under wire faults (drops + duplicates). Two identical runs
/// must produce bit-identical loss curves and identical membership logs —
/// recovery and migration are deterministic functions of the seeds.
#[test]
fn chaos_crash_and_join_is_deterministic_across_runs() {
    let ds = dataset(400, 80, 7);
    let cfg = base_cfg(ModelSpec::Lr).with_deadline_ms(400);
    let chaos = ChaosSpec {
        seed: 99,
        drop_p: 0.01,
        dup_p: 0.02,
        delay_p: 0.02,
        crash_p: 0.0,
    };
    let plan = || FailurePlan {
        chaos: Some(chaos),
        ..FailurePlan::default()
    };
    let ecfg = |c: ColumnSgdConfig| {
        ElasticConfig::new(c, 4, 3)
            .with_replication()
            .with_schedule(vec![
                ElasticEvent {
                    iteration: 4,
                    worker: 1,
                    action: ElasticAction::Crash,
                },
                ElasticEvent {
                    iteration: 8,
                    worker: 3,
                    action: ElasticAction::Join,
                },
            ])
    };

    let a = run_elastic(&ds, ecfg(cfg), plan());
    let b = run_elastic(&ds, ecfg(cfg), plan());

    assert_eq!(losses(&a), losses(&b), "same seeds, same bits");
    let log = |o: &TrainOutcome| {
        ledger(o)
            .membership_log
            .iter()
            .map(|ev| (ev.epoch, ev.worker, ev.action))
            .collect::<Vec<_>>()
    };
    assert_eq!(log(&a), log(&b), "same seeds, same membership history");
    assert!(
        ledger(&a).migrations >= 1,
        "join + repair must migrate shards"
    );
    assert!(a.curve.final_loss().is_some(), "chaos run must stay finite");
}

/// Crashing the last active worker is unrecoverable and surfaces as the
/// typed `WorkerLost` error (exit code 12), not a hang or a panic.
#[test]
fn last_worker_crash_surfaces_worker_lost() {
    let ds = dataset(200, 40, 7);
    let cfg = base_cfg(ModelSpec::Lr)
        .with_iterations(10)
        .with_deadline_ms(300);
    let mut engine = ColumnSgdEngine::new_elastic(
        &ds,
        ElasticConfig::new(cfg, 2, 1).with_schedule(vec![ElasticEvent {
            iteration: 2,
            worker: 0,
            action: ElasticAction::Crash,
        }]),
        NetworkModel::INSTANT,
        FailurePlan::none(),
    )
    .expect("elastic engine");
    let err = engine.train().expect_err("must fail");
    assert!(
        matches!(err, TrainError::WorkerLost { worker: 0, .. }),
        "got {err:?}"
    );
    assert_eq!(err.exit_code(), 12);
}

/// Elastic shapes that cannot work are rejected at construction with a
/// typed plan error: backup groups (elastic owns replication), zero
/// workers, speculation without a replica to race.
#[test]
fn impossible_elastic_shapes_are_rejected() {
    let ds = dataset(200, 40, 7);
    let cfg = base_cfg(ModelSpec::Lr);

    let grouped = ElasticConfig::new(cfg.with_backup(1), 4, 4);
    assert!(matches!(
        ColumnSgdEngine::new_elastic(&ds, grouped, NetworkModel::INSTANT, FailurePlan::none()),
        Err(TrainError::InvalidPlan(_))
    ));

    let replicated_solo = ElasticConfig::new(cfg, 4, 1).with_replication();
    assert!(matches!(
        ColumnSgdEngine::new_elastic(
            &ds,
            replicated_solo,
            NetworkModel::INSTANT,
            FailurePlan::none()
        ),
        Err(TrainError::InvalidPlan(_))
    ));

    let mut solo_spec = ElasticConfig::new(cfg, 4, 4);
    solo_spec.speculate = true; // bypass the builder's implied replication
    assert!(matches!(
        ColumnSgdEngine::new_elastic(&ds, solo_spec, NetworkModel::INSTANT, FailurePlan::none()),
        Err(TrainError::InvalidPlan(_))
    ));

    let overfull = ElasticConfig::new(cfg, 2, 3);
    assert!(matches!(
        ColumnSgdEngine::new_elastic(&ds, overfull, NetworkModel::INSTANT, FailurePlan::none()),
        Err(TrainError::InvalidPlan(_))
    ));
}

/// A traced elastic run on the full cluster, in-process.
fn traced_elastic(ds: &Dataset, cfg: ColumnSgdConfig, recorder: &Recorder) -> ColumnSgdEngine {
    ColumnSgdEngine::new_elastic_clustered(
        ds,
        ElasticConfig::new(cfg, 3, 3),
        NetworkModel::CLUSTER1,
        FailurePlan::none(),
        recorder.clone(),
        &ClusterConfig::in_proc(),
    )
    .expect("elastic engine")
}

/// Elastic workers run the one worker loop and the elastic master the one
/// superstep tail, so a traced elastic run carries what a static one does:
/// a kernel record per worker task, measured barrier walls on the
/// gather/broadcast spans, and the live trace tail.
#[test]
fn traced_elastic_run_carries_worker_records_walls_and_live_tail() {
    let ds = dataset(300, 60, 7);
    let cfg = base_cfg(ModelSpec::Lr).with_iterations(8);
    let recorder = Recorder::new();
    let dir = std::env::temp_dir().join(format!("columnsgd-elastic-tail-{}", std::process::id()));
    let path = dir.join("live.jsonl");
    recorder.attach_trace_out(&path).expect("attach live tail");

    let mut engine = traced_elastic(&ds, cfg, &recorder);
    engine.train().expect("elastic train");

    let events = recorder.events();
    for w in 0..3u64 {
        let kernels = events
            .iter()
            .filter(|ev| matches!(ev, Event::Kernel(k) if k.worker == Some(w)))
            .count();
        assert_eq!(kernels, 8, "worker {w}: one kernel record per task");
    }
    for phase in [Phase::Gather, Phase::Broadcast] {
        let walls: Vec<f64> = events
            .iter()
            .filter_map(|ev| match ev {
                Event::Superstep(s) if s.phase == phase => Some(s.measured_s),
                _ => None,
            })
            .collect();
        assert_eq!(walls.len(), 8);
        assert!(
            walls.iter().all(|&s| s > 0.0),
            "{phase:?} spans must carry the measured barrier wall: {walls:?}"
        );
    }
    // The superstep tail flushed the live file as the run progressed: it
    // already holds every event, before any end-of-run export (only the
    // meta line differs — the sink was attached before the run's stamp).
    let live = std::fs::read_to_string(&path).expect("read live tail");
    let full = recorder.to_jsonl();
    assert!(
        live.lines().skip(1).eq(full.lines().skip(1)),
        "live tail must hold the trace's events"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The worker-side NaN guard comes with the shared statistics-task body:
/// a diverging elastic run leaves "non-finite statistics" fault records
/// in the trace, stamped by the worker that computed them.
#[test]
fn elastic_workers_guard_non_finite_statistics() {
    let ds = dataset(300, 60, 7);
    // Least squares with an absurd learning rate overflows within a few
    // steps: the residuals square the scale every iteration.
    let cfg = base_cfg(ModelSpec::LeastSquares)
        .with_iterations(6)
        .with_learning_rate(1e200);
    let recorder = Recorder::new();
    let mut engine = traced_elastic(&ds, cfg, &recorder);
    engine
        .train()
        .expect("no monitor attached, so the run completes");
    assert!(
        recorder.events().iter().any(|ev| matches!(
            ev,
            Event::Fault(f) if f.fault == "non-finite statistics" && f.detection == "worker guard"
        )),
        "a diverged elastic run must record the worker-side guard"
    );
}

/// A failed per-partition task names its partitions in the failure reply,
/// so the master retries *that* task. Worker 0 owns two partitions (two
/// single-pid tasks); one scripted task failure fails both attempt-0
/// tasks, and each is re-sent once. The parent commit's failure replies
/// could not name their task: the master retried the worker's first
/// outstanding task twice, never the second, and only healed through the
/// detection deadline — the whole default retry budget for one fault.
#[test]
fn task_failure_on_multi_partition_worker_retries_the_failed_task() {
    use columnsgd_cluster::FailureEvent;
    use columnsgd_core::{DetectionMethod, FaultKind};

    let ds = dataset(400, 80, 7);
    let cfg = base_cfg(ModelSpec::Lr).with_deadline_ms(700);
    let failing = || FailurePlan {
        events: vec![FailureEvent::TaskFailure {
            iteration: 5,
            worker: 0,
        }],
        ..FailurePlan::default()
    };

    let clean = run_elastic(&ds, ElasticConfig::new(cfg, 4, 2), FailurePlan::none());
    let healed = run_elastic(&ds, ElasticConfig::new(cfg, 4, 2), failing());

    assert_eq!(
        losses(&clean),
        losses(&healed),
        "a retried task must not change a single bit"
    );
    let log: Vec<_> = healed
        .recovery
        .iter()
        .map(|ev| (ev.iteration, ev.worker, ev.fault, ev.detection))
        .collect();
    let error_reply = (5, 0, FaultKind::TaskFailure, DetectionMethod::ErrorReply);
    assert_eq!(
        log,
        vec![error_reply; 2],
        "one error reply per failed task, and no deadline"
    );
    assert!(
        healed.recovery.iter().all(|ev| ev.attempt < 2),
        "two retries are all this fault may cost: {:?}",
        healed.recovery
    );

    // With a budget of two the parent ran out of retries on this fault.
    let tight = run_elastic(
        &ds,
        ElasticConfig::new(cfg.with_max_task_retries(2), 4, 2),
        failing(),
    );
    assert_eq!(losses(&clean), losses(&tight));
}
