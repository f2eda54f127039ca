//! Integration tests for the ColumnSGD engine: distributed-vs-serial
//! equivalence, traffic accounting vs the analytic model, backup
//! computation, straggler handling, and fault tolerance.

use columnsgd_cluster::failure::FailureEvent;
use columnsgd_cluster::{ChaosSpec, ClusterConfig, FailurePlan, NetworkModel, NodeId, Recorder};
use columnsgd_core::config::PartitionScheme;
use columnsgd_core::{
    ColumnSgdConfig, ColumnSgdEngine, DetectionMethod, ElasticConfig, ElasticEngine, FaultKind,
    TrainError,
};
use columnsgd_data::{synth, Dataset};
use columnsgd_ml::serial::{self, SerialConfig};
use columnsgd_ml::{ModelSpec, OptimizerKind, UpdateParams};

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

/// The central correctness claim: ColumnSGD with K workers computes the
/// *identical* parameter trajectory to serial mini-batch SGD — vertical
/// parallelism is an exact decomposition, not an approximation.
#[test]
fn distributed_matches_serial_exactly_lr() {
    distributed_matches_serial(ModelSpec::Lr, 4, PartitionScheme::RoundRobin);
}

#[test]
fn distributed_matches_serial_exactly_svm_range_partitioning() {
    distributed_matches_serial(ModelSpec::Svm, 3, PartitionScheme::Range);
}

#[test]
fn distributed_matches_serial_exactly_fm() {
    distributed_matches_serial(ModelSpec::Fm { factors: 4 }, 4, PartitionScheme::RoundRobin);
}

#[test]
fn distributed_matches_serial_exactly_single_worker() {
    distributed_matches_serial(ModelSpec::Lr, 1, PartitionScheme::RoundRobin);
}

#[test]
fn distributed_matches_serial_exactly_least_squares() {
    distributed_matches_serial(ModelSpec::LeastSquares, 2, PartitionScheme::Range);
}

/// Adam's state (moments, step counter) must distribute exactly too.
#[test]
fn distributed_matches_serial_exactly_with_adam() {
    let ds = dataset(400, 90, 8);
    let mut cfg = base_cfg(ModelSpec::Lr).with_iterations(25);
    cfg.optimizer = OptimizerKind::adam();
    cfg.update = UpdateParams::plain(0.01);
    cfg.block_size = ds.len();
    let mut engine = ColumnSgdEngine::new(&ds, 3, cfg, NetworkModel::INSTANT, FailurePlan::none())
        .expect("engine");
    let _ = engine.train().expect("train");
    let distributed = engine.collect_model().expect("collect model");

    let rows: Vec<_> = ds.iter().cloned().collect();
    let serial_run = serial::train(
        ModelSpec::Lr,
        &rows,
        ds.dimension() as usize,
        &SerialConfig {
            batch_size: cfg.batch_size,
            iterations: cfg.iterations,
            update: cfg.update,
            optimizer: cfg.optimizer,
            seed: cfg.seed,
        },
    );
    for (d, s) in distributed.blocks[0]
        .as_slice()
        .iter()
        .zip(serial_run.params.blocks[0].as_slice())
    {
        assert!((d - s).abs() < 1e-9, "Adam state diverged: {d} vs {s}");
    }
}

fn distributed_matches_serial(model: ModelSpec, k: usize, scheme: PartitionScheme) {
    let ds = dataset(600, 120, 3);
    let mut cfg = base_cfg(model);
    cfg.scheme = scheme;

    // ColumnSGD's two-phase index samples over (block, offset); with one
    // block the address space is identical to the serial row space, so the
    // trajectories must agree bit for bit.
    cfg.block_size = ds.len();

    let mut engine = ColumnSgdEngine::new(&ds, k, cfg, NetworkModel::INSTANT, FailurePlan::none())
        .expect("engine");
    let outcome = engine.train().expect("train");
    let distributed = engine.collect_model().expect("collect model");

    let rows: Vec<_> = ds.iter().cloned().collect();
    let serial_run = serial::train(
        model,
        &rows,
        ds.dimension() as usize,
        &SerialConfig {
            batch_size: cfg.batch_size,
            iterations: cfg.iterations,
            update: cfg.update,
            optimizer: cfg.optimizer,
            seed: cfg.seed,
        },
    );

    for (b, (d, s)) in distributed
        .blocks
        .iter()
        .zip(&serial_run.params.blocks)
        .enumerate()
    {
        for (i, (x, y)) in d.as_slice().iter().zip(s.as_slice()).enumerate() {
            assert!(
                (x - y).abs() < 1e-9,
                "{model:?} K={k}: block {b} coord {i}: {x} vs {y}"
            );
        }
    }
    // Losses agree too.
    for (p, l) in outcome.curve.points.iter().zip(&serial_run.losses) {
        assert!(
            (p.loss - l).abs() < 1e-9,
            "iter {}: {} vs {}",
            p.iteration,
            p.loss,
            l
        );
    }
}

/// Multi-block training converges even though the sampling space is
/// (block, offset) rather than a flat row index.
#[test]
fn multi_block_training_converges() {
    let ds = dataset(2_000, 300, 5);
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(100)
        .with_iterations(150)
        .with_learning_rate(0.5);
    let mut engine = ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::CLUSTER1, FailurePlan::none())
        .expect("engine");
    let outcome = engine.train().expect("train");
    let first = outcome.curve.points[0].loss;
    let last = outcome.curve.final_loss().unwrap();
    assert!(last < first * 0.75, "no convergence: {first} -> {last}");

    let model = engine.collect_model().expect("collect model");
    let rows: Vec<_> = ds.iter().cloned().collect();
    let acc = serial::full_accuracy(ModelSpec::Lr, &model, &rows);
    assert!(acc > 0.75, "accuracy {acc}");
}

/// Per-iteration traffic matches the analytic model of Table I:
/// worker comm = 2·B·width units, master comm = 2K·B·width units
/// (plus metered protocol headers, which we bound).
#[test]
fn traffic_matches_table1() {
    let ds = dataset(500, 100, 7);
    let k = 4;
    let b = 50;
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(b)
        .with_iterations(10)
        .with_seed(1);
    let mut engine = ColumnSgdEngine::new(&ds, k, cfg, NetworkModel::INSTANT, FailurePlan::none())
        .expect("engine");
    engine.traffic().reset(); // ignore loading traffic
    let _ = engine.train().expect("train");

    let master = engine.traffic().touching(NodeId::Master);
    let worker0_up = engine.traffic().link(NodeId::Worker(0), NodeId::Master);
    let worker0_down = engine.traffic().link(NodeId::Master, NodeId::Worker(0));

    let iters = 10u64;
    // Statistics payload: B f64 per message each way.
    let stats_bytes = 8 * b as u64;
    let worker_payload = 2 * stats_bytes * iters;
    let worker_measured = worker0_up.bytes + worker0_down.bytes;
    // Headers/envelopes add overhead but must stay well under the payload.
    assert!(
        worker_measured >= worker_payload,
        "{worker_measured} < {worker_payload}"
    );
    assert!(
        worker_measured < worker_payload * 2,
        "header overhead too large: {worker_measured} vs {worker_payload}"
    );

    // Master touches 2KB units per iteration.
    let master_payload = 2 * stats_bytes * k as u64 * iters;
    assert!(master.bytes >= master_payload);
    assert!(master.bytes < master_payload * 2);
}

/// Communication volume is *independent of the model dimension* — the
/// paper's core claim. Train two models whose dimensions differ 50× and
/// compare per-iteration traffic.
#[test]
fn traffic_independent_of_model_size() {
    let measure = |dim: u64| {
        let ds = dataset(400, dim, 9);
        let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
            .with_batch_size(64)
            .with_iterations(5);
        let mut engine =
            ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, FailurePlan::none())
                .expect("engine");
        engine.traffic().reset();
        let _ = engine.train().expect("train");
        engine.traffic().total().bytes
    };
    let small = measure(100);
    let large = measure(5_000);
    assert_eq!(small, large, "traffic must not depend on m");
}

/// S-backup: training with replica groups produces the same model as
/// without, and per-iteration time with a straggler stays near pure.
#[test]
fn backup_computation_matches_pure_model() {
    let ds = dataset(600, 80, 13);
    let cfg_pure = base_cfg(ModelSpec::Lr).with_iterations(20);
    let cfg_backup = cfg_pure.with_backup(1);

    let mut pure =
        ColumnSgdEngine::new(&ds, 4, cfg_pure, NetworkModel::INSTANT, FailurePlan::none())
            .expect("engine");
    let _ = pure.train().expect("train");
    let m_pure = pure.collect_model().expect("collect model");

    let mut backup = ColumnSgdEngine::new(
        &ds,
        4,
        cfg_backup,
        NetworkModel::INSTANT,
        FailurePlan::none(),
    )
    .expect("engine");
    let _ = backup.train().expect("train");
    let m_backup = backup.collect_model().expect("collect model");

    for (a, b) in m_pure.blocks.iter().zip(&m_backup.blocks) {
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-9, "backup changed the trajectory");
        }
    }
}

/// Figure 9's shape: stragglers slow pure ColumnSGD by ≈ (1+SL) but barely
/// touch ColumnSGD-backup.
#[test]
fn stragglers_hurt_pure_but_not_backup() {
    let ds = dataset(800, 100, 17);
    let iters = 15u64;
    let run = |backup: usize, level: f64| {
        let cfg = base_cfg(ModelSpec::Lr)
            .with_iterations(iters)
            .with_backup(backup);
        let plan = if level > 0.0 {
            FailurePlan::with_straggler(level, 5)
        } else {
            FailurePlan::none()
        };
        let mut e = ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, plan).expect("engine");
        let outcome = e.train().expect("train");
        // Pure compute time (network is INSTANT, overhead 0).
        outcome
            .clock
            .trace()
            .iter()
            .map(|it| it.compute_s)
            .sum::<f64>()
    };
    let pure = run(0, 0.0);
    let sl5 = run(0, 5.0);
    let backed = run(1, 5.0);
    assert!(
        sl5 > pure * 2.0,
        "SL5 should slow pure training: {pure} vs {sl5}"
    );
    assert!(
        backed < sl5 / 2.0,
        "backup should absorb the straggler: backed {backed} vs sl5 {sl5}"
    );
}

/// §X task failure: training continues and converges; the failed iteration
/// just pays the retry.
#[test]
fn task_failure_is_transparent() {
    let ds = dataset(500, 80, 21);
    let cfg = base_cfg(ModelSpec::Lr).with_iterations(20);
    let plan = FailurePlan {
        events: vec![FailureEvent::TaskFailure {
            iteration: 5,
            worker: 2,
        }],
        ..FailurePlan::default()
    };
    let mut with_failure =
        ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, plan).expect("engine");
    let out_f = with_failure.train().expect("train");
    let m_f = with_failure.collect_model().expect("collect model");

    let mut clean = ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, FailurePlan::none())
        .expect("engine");
    let _ = clean.train().expect("train");
    let m_c = clean.collect_model().expect("collect model");

    // Task failure must not change the learned model at all.
    for (a, b) in m_f.blocks.iter().zip(&m_c.blocks) {
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }
    assert_eq!(out_f.curve.points.len(), 20);

    // The master *observed* the failure: an explicit error reply, not an
    // inspection of the injection script.
    assert_eq!(out_f.recovery.len(), 1);
    let ev = out_f.recovery[0];
    assert_eq!(ev.iteration, 5);
    assert_eq!(ev.worker, 2);
    assert_eq!(ev.fault, FaultKind::TaskFailure);
    assert_eq!(ev.detection, DetectionMethod::ErrorReply);
    assert_eq!(ev.attempt, 0);
}

/// §X worker failure: the worker's partition is reloaded and its model
/// zeroed; training still converges to a good model (Figure 13b).
#[test]
fn worker_failure_reloads_and_reconverges() {
    let ds = dataset(1_500, 150, 23);
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(100)
        .with_iterations(120)
        .with_learning_rate(0.5)
        .with_seed(2);
    let plan = FailurePlan {
        events: vec![FailureEvent::WorkerFailure {
            iteration: 60,
            worker: 1,
        }],
        ..FailurePlan::default()
    };
    let mut engine =
        ColumnSgdEngine::new(&ds, 3, cfg, NetworkModel::CLUSTER1, plan).expect("engine");
    let outcome = engine.train().expect("train");

    // The clock shows a reload charge (an extra record beyond iterations).
    assert_eq!(outcome.clock.num_records() as u64, cfg.iterations + 1);

    // Detected as a panic report from the guarded node runtime, and the
    // reload cost was priced into the event.
    assert_eq!(outcome.recovery.len(), 1);
    let ev = outcome.recovery[0];
    assert_eq!((ev.iteration, ev.worker), (60, 1));
    assert_eq!(ev.fault, FaultKind::WorkerFailure);
    assert_eq!(ev.detection, DetectionMethod::PanicReport);
    assert!(ev.recovery_cost_s > 0.0, "reload must cost simulated time");

    // Still converges after losing a third of the model.
    let model = engine.collect_model().expect("collect model");
    let rows: Vec<_> = ds.iter().cloned().collect();
    let acc = columnsgd_ml::serial::full_accuracy(ModelSpec::Lr, &model, &rows);
    assert!(acc > 0.7, "post-failure accuracy {acc}");
}

/// The loading report: block-based dispatch ships exactly
/// `blocks×(K + K-1-ish)` objects — far fewer than rows — and prices a
/// positive simulated time.
#[test]
fn load_report_counts_blocks_not_rows() {
    let ds = dataset(2_000, 100, 29);
    let k = 4;
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr).with_batch_size(10);
    let mut cfg = cfg;
    cfg.block_size = 250; // 8 blocks
    let engine = ColumnSgdEngine::new(&ds, k, cfg, NetworkModel::CLUSTER1, FailurePlan::none())
        .expect("engine");
    let report = engine.load_report();
    // 8 blocks from master + 8 blocks × (K-1) foreign worksets + K
    // LoadDone + K LoadAck: far fewer objects than the 2000 rows.
    assert!(report.objects < 100, "objects = {}", report.objects);
    assert!(report.bytes > 0);
    assert!(report.sim_time_s > 0.0);
}

/// Different optimizers run end-to-end (Adam / AdaGrad in `updateModel`,
/// §III-A).
#[test]
fn adam_and_adagrad_work_distributed() {
    for opt in [OptimizerKind::adam(), OptimizerKind::adagrad()] {
        let ds = dataset(800, 100, 31);
        let mut cfg = ColumnSgdConfig::new(ModelSpec::Lr)
            .with_batch_size(64)
            .with_iterations(80);
        cfg.optimizer = opt;
        cfg.update = UpdateParams::plain(0.1);
        let mut engine =
            ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, FailurePlan::none())
                .expect("engine");
        let outcome = engine.train().expect("train");
        let first = outcome.curve.points[0].loss;
        let last = outcome.curve.final_loss().unwrap();
        assert!(last < first, "{opt:?} did not descend: {first} -> {last}");
    }
}

/// MLR end-to-end: statistics width = classes.
#[test]
fn mlr_trains_distributed() {
    let ds = synth::multiclass_dataset(1_200, 80, 3, 37);
    let spec = ModelSpec::Mlr { classes: 3 };
    let cfg = ColumnSgdConfig::new(spec)
        .with_batch_size(64)
        .with_iterations(120)
        .with_learning_rate(0.5);
    let mut engine = ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, FailurePlan::none())
        .expect("engine");
    let _ = engine.train().expect("train");
    let model = engine.collect_model().expect("collect model");
    let rows: Vec<_> = ds.iter().cloned().collect();
    let acc = serial::full_accuracy(spec, &model, &rows);
    assert!(acc > 0.5, "MLR accuracy {acc} (chance 0.33)");
}

/// Extension: stale-statistics mode abandons the straggler instead of
/// waiting — per-iteration time stays near pure, and training still
/// converges (with DropRescaled compensating the missing partition).
#[test]
fn stale_statistics_absorb_stragglers_and_still_converge() {
    use columnsgd_core::config::StaleStats;
    let ds = dataset(2_000, 200, 41);
    let run = |staleness: Option<StaleStats>, level: f64| {
        let mut cfg = ColumnSgdConfig::new(ModelSpec::Lr)
            .with_batch_size(100)
            .with_iterations(120)
            .with_learning_rate(0.5)
            .with_seed(6);
        cfg.staleness = staleness;
        let plan = if level > 0.0 {
            FailurePlan::with_straggler(level, 9)
        } else {
            FailurePlan::none()
        };
        let mut e =
            ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::CLUSTER1, plan).expect("engine");
        let out = e.train().expect("train");
        let model = e.collect_model().expect("collect model");
        let rows: Vec<_> = ds.iter().cloned().collect();
        let acc = serial::full_accuracy(ModelSpec::Lr, &model, &rows);
        (out.clock.elapsed_s(), acc)
    };

    let (t_pure, acc_pure) = run(None, 0.0);
    let (t_sync, _) = run(None, 5.0);
    let (t_stale, acc_stale) = run(Some(StaleStats::DropRescaled), 5.0);

    // Timing: synchronous waits ~6x; stale stays near pure.
    assert!(t_sync > t_pure * 3.0, "sync {t_sync} vs pure {t_pure}");
    assert!(
        t_stale < t_sync / 2.0,
        "stale {t_stale} must beat synchronous {t_sync}"
    );
    // Statistical efficiency: stale still reaches a usable model.
    assert!(acc_pure > 0.8, "pure accuracy {acc_pure}");
    assert!(
        acc_stale > acc_pure - 0.1,
        "stale accuracy {acc_stale} vs pure {acc_pure}"
    );
}

/// Streaming path: blocks parsed directly from LIBSVM text train the same
/// engine (out-of-core loading via `libsvm::BlockReader`).
#[test]
fn engine_trains_from_streamed_blocks() {
    use columnsgd_data::libsvm::BlockReader;
    let mut text = String::new();
    for i in 0..300usize {
        if i % 2 == 0 {
            text.push_str(&format!("+1 1:1 3:{}\n", 1 + i % 3));
        } else {
            text.push_str(&format!("-1 2:1 4:{}\n", 1 + i % 3));
        }
    }
    let mut reader = BlockReader::new(std::io::Cursor::new(text), 64);
    let blocks: Vec<_> = reader.by_ref().map(|b| b.unwrap()).collect();
    let dim = reader.dimension_bound;
    assert_eq!(blocks.len(), 5);

    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(32)
        .with_iterations(100)
        .with_learning_rate(1.0);
    let mut engine = ColumnSgdEngine::from_blocks_clustered(
        blocks,
        dim,
        3,
        cfg,
        NetworkModel::INSTANT,
        FailurePlan::none(),
        Recorder::disabled(),
        &ClusterConfig::in_proc(),
    )
    .expect("engine");
    let out = engine.train().expect("train");
    assert!(
        out.curve.final_loss().unwrap() < 0.3,
        "loss {:?}",
        out.curve.final_loss()
    );
    // The separable structure is learned.
    let model = engine.collect_model().expect("collect model");
    assert!(model.blocks[0][1] > 0.0 && model.blocks[0][2] < 0.0);
}

/// A plan naming a worker that does not exist is rejected at engine
/// construction, before any thread is spawned.
#[test]
fn invalid_plan_rejected_at_construction() {
    let ds = dataset(200, 40, 3);
    let cfg = base_cfg(ModelSpec::Lr);
    let plan = FailurePlan {
        events: vec![FailureEvent::TaskFailure {
            iteration: 1,
            worker: 9,
        }],
        ..FailurePlan::default()
    };
    match ColumnSgdEngine::new(&ds, 3, cfg, NetworkModel::INSTANT, plan) {
        Err(TrainError::InvalidPlan(msg)) => {
            assert!(msg.contains("worker 9"), "message was: {msg}");
        }
        other => panic!("expected InvalidPlan, got {:?}", other.map(|_| ())),
    }
}

/// Zero workers and an empty dataset are shapes, not faults: both engines
/// reject them with a typed error before any worker starts, the same
/// contract the RowSGD baselines keep.
#[test]
fn zero_workers_and_empty_dataset_are_typed_errors() {
    let ds = dataset(200, 40, 3);
    let empty = Dataset::with_dimension(Vec::new(), 40);
    let cfg = base_cfg(ModelSpec::Lr);
    let build = |ds: &Dataset, k: usize| {
        ColumnSgdEngine::new(ds, k, cfg, NetworkModel::INSTANT, FailurePlan::none()).map(|_| ())
    };
    match build(&ds, 0) {
        Err(TrainError::InvalidPlan(msg)) => assert!(msg.contains("worker"), "{msg}"),
        other => panic!("k = 0: expected InvalidPlan, got {other:?}"),
    }
    match build(&empty, 2) {
        Err(TrainError::LoadFailed(msg)) => assert!(msg.contains("empty"), "{msg}"),
        other => panic!("empty dataset: expected LoadFailed, got {other:?}"),
    }
    let elastic = ElasticEngine::new(
        &empty,
        ElasticConfig::new(cfg, 2, 2),
        NetworkModel::INSTANT,
        FailurePlan::none(),
    );
    match elastic.map(|_| ()) {
        Err(TrainError::LoadFailed(msg)) => assert!(msg.contains("empty"), "{msg}"),
        other => panic!("elastic, empty dataset: expected LoadFailed, got {other:?}"),
    }
}

/// A worker that crashes on *every* attempt exhausts the retry budget and
/// surfaces a typed error instead of looping forever.
#[test]
fn retries_exhausted_surfaces_typed_error() {
    let ds = dataset(200, 40, 3);
    let cfg = base_cfg(ModelSpec::Lr)
        .with_iterations(5)
        .with_max_task_retries(2)
        .with_deadline_ms(200);
    let chaos = ChaosSpec {
        seed: 7,
        drop_p: 0.0,
        dup_p: 0.0,
        delay_p: 0.0,
        crash_p: 1.0,
    };
    let mut engine = ColumnSgdEngine::new(
        &ds,
        2,
        cfg,
        NetworkModel::INSTANT,
        FailurePlan::with_chaos(chaos),
    )
    .expect("engine");
    match engine.train() {
        Err(TrainError::RetriesExhausted {
            iteration,
            attempts,
            ..
        }) => {
            assert_eq!(iteration, 0);
            assert!(attempts > 2);
        }
        other => panic!("expected RetriesExhausted, got {:?}", other.map(|_| ())),
    }
}

/// Under moderate chaos — dropped, duplicated, and delayed messages plus
/// occasional crashes — training still completes, and the recovery log
/// records what the master actually detected.
#[test]
fn chaos_run_completes_with_recovery_log() {
    let ds = dataset(300, 50, 9);
    let cfg = base_cfg(ModelSpec::Lr)
        .with_iterations(40)
        .with_deadline_ms(250);
    let chaos = ChaosSpec::uniform(21, 0.05, 0.02);
    let mut engine = ColumnSgdEngine::new(
        &ds,
        3,
        cfg,
        NetworkModel::INSTANT,
        FailurePlan::with_chaos(chaos),
    )
    .expect("engine");
    let out = engine.train().expect("train under chaos");
    assert_eq!(out.curve.points.len(), 40);
    assert!(
        !out.recovery.is_empty(),
        "chaos at these rates must trip at least one detection"
    );
    assert!(out.curve.final_loss().unwrap().is_finite());
}

/// Chaos is deterministic: two runs with the same seed produce identical
/// loss curves and identical recovery-event sequences (modulo wall-clock
/// latencies, which are measurement, not behavior).
#[test]
fn chaos_fixed_seed_is_reproducible() {
    let run = || {
        let ds = dataset(250, 40, 5);
        let cfg = base_cfg(ModelSpec::Lr)
            .with_iterations(30)
            .with_deadline_ms(250);
        let chaos = ChaosSpec::uniform(99, 0.04, 0.015);
        let mut engine = ColumnSgdEngine::new(
            &ds,
            3,
            cfg,
            NetworkModel::INSTANT,
            FailurePlan::with_chaos(chaos),
        )
        .expect("engine");
        let out = engine.train().expect("train");
        let losses: Vec<f64> = out.curve.points.iter().map(|p| p.loss).collect();
        let mut events: Vec<_> = out
            .recovery
            .iter()
            .map(|e| (e.iteration, e.worker, e.fault, e.detection, e.attempt))
            .collect();
        // Arrival order can differ when two workers fail in the same
        // iteration; compare the set, not the interleaving.
        events.sort_unstable();
        (losses, events)
    };
    let (l1, e1) = run();
    let (l2, e2) = run();
    assert_eq!(l1, l2, "loss curves must be bit-identical");
    assert_eq!(e1, e2, "recovery events must be identical");
    assert!(
        !e1.is_empty(),
        "seed 99 at these rates must inject something"
    );
}

/// The worker kernel pool changes only *when* work happens: any
/// `threads_per_worker` produces a bit-identical model, loss curve, and —
/// crucially — identical wire traffic, byte for byte. Run with S-backup so
/// every worker holds two partitions and the pool actually fans out.
#[test]
fn pool_width_never_changes_model_or_traffic() {
    let run = |threads: usize| {
        let ds = dataset(500, 96, 19);
        let mut cfg = base_cfg(ModelSpec::Lr)
            .with_iterations(25)
            .with_backup(1)
            .with_threads_per_worker(threads);
        cfg.block_size = ds.len();
        let mut engine =
            ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, FailurePlan::none())
                .expect("engine");
        engine.traffic().reset();
        let out = engine.train().expect("train");
        let losses: Vec<f64> = out.curve.points.iter().map(|p| p.loss).collect();
        let total = engine.traffic().total();
        (
            engine.collect_model().expect("collect model"),
            losses,
            total.bytes,
            total.messages,
        )
    };
    let (m1, l1, bytes1, msgs1) = run(1);
    for threads in [2, 4] {
        let (m, l, bytes, msgs) = run(threads);
        assert_eq!(
            l1, l,
            "loss curve must be bit-identical at {threads} threads"
        );
        assert_eq!(
            (bytes1, msgs1),
            (bytes, msgs),
            "traffic must be byte-identical at {threads} threads"
        );
        for (a, b) in m1.blocks.iter().zip(&m.blocks) {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "model must be bit-identical at {threads} threads"
            );
        }
    }
}

/// A `ComputeStats` carrying a batch size the worker was not configured
/// for is refused with an explicit `task_failed` reply — not silently
/// computed on the wrong batch (the old `debug_assert_eq!` vanished in
/// release builds).
#[test]
fn worker_refuses_mismatched_batch_size() {
    use columnsgd_cluster::{Router, TrafficStats};
    use columnsgd_core::msg::ColMsg;
    use columnsgd_core::worker::{run_worker, WorkerScript};

    let ids = vec![NodeId::Master, NodeId::Worker(0)];
    let (_router, mut eps) = Router::new(&ids, TrafficStats::new());
    let master = eps.remove(0);
    let wep = eps.remove(0);
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr).with_batch_size(64);
    let handle = std::thread::spawn(move || {
        run_worker(
            wep,
            0,
            1,
            &[0],
            10,
            cfg,
            WorkerScript::default(),
            Recorder::disabled(),
            None,
        )
    });

    master
        .send(
            NodeId::Worker(0),
            ColMsg::ComputeStats {
                iteration: 3,
                batch_size: 63,
                attempt: 0,
            },
        )
        .expect("send");
    let env = master
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("reply");
    match env.payload {
        ColMsg::StatsReply {
            iteration,
            worker,
            partial,
            task_failed,
            ..
        } => {
            assert!(task_failed, "mismatch must be reported as a task failure");
            assert!(partial.is_empty(), "no statistics may be computed");
            assert_eq!((iteration, worker), (3, 0));
        }
        other => panic!("expected StatsReply, got {}", other.name()),
    }
    master
        .send(NodeId::Worker(0), ColMsg::Shutdown)
        .expect("shutdown");
    handle.join().expect("worker exits cleanly");
}

/// S-backup turns a mid-gather crash into a non-event: the surviving
/// replica's reply covers the group, the superstep completes without ever
/// reaching the deadline path, and the respawned worker rejoins with the
/// group-current parameters — so the trajectory is bit-identical to the
/// failure-free run.
#[test]
fn backup_crash_mid_gather_completes_from_surviving_replica() {
    let ds = dataset(600, 80, 13);
    let run = |plan: FailurePlan| {
        let cfg = base_cfg(ModelSpec::Lr).with_iterations(20).with_backup(1);
        let mut e = ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, plan).expect("engine");
        let out = e.train().expect("train");
        let losses: Vec<f64> = out.curve.points.iter().map(|p| p.loss).collect();
        let model = e.collect_model().expect("collect model");
        (out, losses, model)
    };
    let plan = FailurePlan {
        events: vec![FailureEvent::WorkerFailure {
            iteration: 9,
            worker: 2,
        }],
        ..FailurePlan::default()
    };
    let (out, losses, model) = run(plan);
    let (clean_out, clean_losses, clean_model) = run(FailurePlan::none());

    // Detected via the panic report; the deadline path never fired.
    assert_eq!(out.recovery.len(), 1);
    let ev = out.recovery[0];
    assert_eq!((ev.iteration, ev.worker), (9, 2));
    assert_eq!(ev.fault, FaultKind::WorkerFailure);
    assert_eq!(
        ev.detection,
        DetectionMethod::PanicReport,
        "backup must complete the superstep before any deadline trips"
    );

    // Parameter restore from the surviving replica erases the crash from
    // the trajectory entirely: losses and final model are bit-identical.
    assert!(clean_out.recovery.is_empty());
    assert_eq!(losses, clean_losses, "loss curve must be bit-identical");
    for (a, b) in model.blocks.iter().zip(&clean_model.blocks) {
        assert_eq!(a.as_slice(), b.as_slice(), "model must be bit-identical");
    }
}

/// Reactive recovery (worker reload) flows through the metered reliable
/// plane and lands on the telemetry fault stream, so trace comm totals
/// still reconcile with `TrafficStats` exactly when recovery traffic flows.
#[test]
fn recovery_reload_is_traced_and_reconciles_with_meter() {
    let ds = dataset(600, 80, 23);
    let cfg = base_cfg(ModelSpec::Lr).with_iterations(20);
    let plan = FailurePlan {
        events: vec![FailureEvent::WorkerFailure {
            iteration: 8,
            worker: 1,
        }],
        ..FailurePlan::default()
    };
    let recorder = Recorder::new();
    let mut engine = ColumnSgdEngine::new_clustered(
        &ds,
        3,
        cfg,
        NetworkModel::CLUSTER1,
        plan,
        recorder.clone(),
        &ClusterConfig::in_proc(),
    )
    .expect("engine");
    let out = engine.train().expect("train");
    let total = engine.traffic().total();
    let s = recorder.summary();

    // The recovery happened and was priced.
    assert_eq!(out.recovery.len(), 1);
    assert!(out.recovery[0].recovery_cost_s > 0.0);
    // It is on the fault stream …
    assert!(s.faults >= 1, "reload must be recorded as a FaultRecord");
    assert!(!s.faults_by_detection.is_empty());
    // … and the reload's Die/ReloadBlock/ReloadAck bytes are in both
    // ledgers: trace comm records reconcile with the router meter exactly.
    assert_eq!(
        (s.comm_bytes, s.comm_messages),
        (total.bytes, total.messages)
    );
    // The reload stream is visible as ReloadBlock traffic in the trace.
    assert!(
        s.by_kind.iter().any(|k| k.kind == "ReloadBlock"),
        "reload traffic must appear per-kind in the trace"
    );
}

/// A silent worker (crash scripted mid-run) is detected within the
/// configured deadline via timeout + probe, not by waiting forever.
#[test]
fn timeout_detection_recovers_scripted_crash() {
    let ds = dataset(250, 40, 6);
    let cfg = base_cfg(ModelSpec::Lr)
        .with_iterations(20)
        .with_deadline_ms(300);
    let plan = FailurePlan {
        events: vec![FailureEvent::WorkerFailure {
            iteration: 7,
            worker: 1,
        }],
        ..FailurePlan::default()
    };
    let started = std::time::Instant::now();
    let mut engine =
        ColumnSgdEngine::new(&ds, 3, cfg, NetworkModel::INSTANT, plan).expect("engine");
    let out = engine.train().expect("train");
    assert_eq!(out.curve.points.len(), 20);
    assert_eq!(out.recovery.len(), 1);
    let ev = out.recovery[0];
    assert_eq!((ev.iteration, ev.worker), (7, 1));
    assert_eq!(ev.fault, FaultKind::WorkerFailure);
    // Scripted crashes panic inside the guarded thread, so the usual
    // detection path is the panic report; either way detection must be
    // far faster than hanging for the rest of the run.
    assert!(
        ev.detection == DetectionMethod::PanicReport || ev.detection == DetectionMethod::Timeout
    );
    assert!(
        ev.detection_latency_s < 5.0,
        "latency {}",
        ev.detection_latency_s
    );
    assert!(started.elapsed().as_secs() < 30, "no hang on a dead worker");
}
