//! Workspace-level end-to-end test: LIBSVM text → dataset → distributed
//! ColumnSGD training → model extraction → scoring, through the public
//! facade only.

use std::io::Cursor;

use columnsgd::data::libsvm;
use columnsgd::ml::serial;
use columnsgd::prelude::*;

/// Builds LIBSVM text for a linearly separable toy problem.
fn toy_libsvm(rows: usize) -> String {
    let mut out = String::new();
    for i in 0..rows {
        // Even rows: positive class with features {1, 3}; odd: negative
        // with {2, 4}; feature 5 is noise shared by both.
        if i % 2 == 0 {
            out.push_str(&format!("+1 1:1 3:{} 5:0.5\n", 1 + i % 3));
        } else {
            out.push_str(&format!("-1 2:1 4:{} 5:0.5\n", 1 + i % 3));
        }
    }
    out
}

#[test]
fn libsvm_to_trained_model() {
    let text = toy_libsvm(400);
    let dataset = libsvm::read_binary(Cursor::new(text)).expect("parse");
    assert_eq!(dataset.len(), 400);

    let config = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(32)
        .with_iterations(150)
        .with_learning_rate(1.0)
        .with_seed(5);
    let mut engine = ColumnSgdEngine::new(
        &dataset,
        3,
        config,
        NetworkModel::CLUSTER1,
        FailurePlan::none(),
    )
    .expect("engine");
    let outcome = engine.train().expect("train");
    assert!(outcome.curve.final_loss().unwrap() < 0.3);

    let model = engine.collect_model().expect("collect model");
    let rows: Vec<_> = dataset.iter().cloned().collect();
    let acc = serial::full_accuracy(ModelSpec::Lr, &model, &rows);
    assert!(acc > 0.95, "separable problem must be solved, got {acc}");

    // Separating structure: positive features up, negative features down.
    let w = &model.blocks[0];
    assert!(
        w[1] > 0.0 && w[3] > 0.0,
        "positive features: {:?}",
        w.as_slice()
    );
    assert!(
        w[2] < 0.0 && w[4] < 0.0,
        "negative features: {:?}",
        w.as_slice()
    );
}

#[test]
fn row_and_column_paradigms_agree_on_the_problem() {
    // Not trajectory equality (they sample batches differently) but both
    // must solve the same separable problem to high accuracy.
    let text = toy_libsvm(600);
    let dataset = libsvm::read_binary(Cursor::new(text)).expect("parse");
    let rows: Vec<_> = dataset.iter().cloned().collect();

    let mut col = ColumnSgdEngine::new(
        &dataset,
        3,
        ColumnSgdConfig::new(ModelSpec::Svm)
            .with_batch_size(32)
            .with_iterations(200)
            .with_learning_rate(0.5),
        NetworkModel::INSTANT,
        FailurePlan::none(),
    )
    .expect("engine");
    let _ = col.train().expect("train");
    let col_acc = serial::full_accuracy(
        ModelSpec::Svm,
        &col.collect_model().expect("collect model"),
        &rows,
    );

    let mut row = RowSgdEngine::new(
        &dataset,
        3,
        RowSgdConfig::new(ModelSpec::Svm, RowSgdVariant::MLlib)
            .with_batch_size(32)
            .with_iterations(200)
            .with_learning_rate(0.5),
        NetworkModel::INSTANT,
    )
    .expect("engine");
    let _ = row.train().expect("train");
    let row_acc = serial::full_accuracy(
        ModelSpec::Svm,
        &row.collect_model().expect("collect model"),
        &rows,
    );

    assert!(col_acc > 0.95, "ColumnSGD accuracy {col_acc}");
    assert!(row_acc > 0.95, "RowSGD accuracy {row_acc}");
}

/// Both engines drive the one worker loop from the one master core: with
/// an empty schedule the elastic engine *is* the static engine, bit for
/// bit (losses and reassembled model), and a scheduled `Join` completes.
#[test]
fn elastic_empty_schedule_matches_static() {
    let ds = columnsgd::data::synth::small_test_dataset(300, 60, 7);
    let config = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(32)
        .with_iterations(20)
        .with_learning_rate(0.5)
        .with_seed(11);
    let net = NetworkModel::INSTANT;

    let mut stat =
        ColumnSgdEngine::new(&ds, 3, config, net, FailurePlan::none()).expect("static engine");
    let stat_out = stat.train().expect("static train");
    let stat_model = stat.collect_model().expect("static model");

    let mut elastic = ColumnSgdEngine::new_elastic(
        &ds,
        ElasticConfig::new(config, 3, 3),
        net,
        FailurePlan::none(),
    )
    .expect("elastic engine");
    let elastic_out = elastic.train().expect("elastic train");
    let elastic_model = elastic.collect_model().expect("elastic model");

    let losses = |c: &columnsgd::ml::metrics::Curve| -> Vec<u64> {
        c.points.iter().map(|p| p.loss.to_bits()).collect()
    };
    assert_eq!(losses(&stat_out.curve), losses(&elastic_out.curve));
    assert_eq!(stat_model, elastic_model);

    let mut joined = ColumnSgdEngine::new_elastic(
        &ds,
        ElasticConfig::new(config, 3, 2).with_schedule(vec![ElasticEvent {
            iteration: 5,
            worker: 2,
            action: ElasticAction::Join,
        }]),
        net,
        FailurePlan::none(),
    )
    .expect("elastic engine");
    let out = joined.train().expect("train across a join");
    assert_eq!(out.curve.points.len(), 20);
    assert!(
        out.elastic.expect("elastic ledger").migrations >= 1,
        "the joiner must receive a shard"
    );
}

/// The worker host's respawn path, in tier-1: a scripted crash kills a
/// worker thread mid-run, the master detects it, the host restarts the
/// slot, the partition is reloaded, and training completes — the same
/// way, bit for bit, on a second same-seed run.
#[test]
fn crash_respawn_recovers() {
    let ds = columnsgd::data::synth::small_test_dataset(300, 60, 7);
    let config = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(32)
        .with_iterations(20)
        .with_learning_rate(0.5)
        .with_seed(11);
    let run = || {
        let plan = FailurePlan {
            events: vec![columnsgd::cluster::FailureEvent::WorkerFailure {
                iteration: 8,
                worker: 1,
            }],
            ..FailurePlan::none()
        };
        let mut engine =
            ColumnSgdEngine::new(&ds, 3, config, NetworkModel::INSTANT, plan).expect("engine");
        let outcome = engine.train().expect("train across a crash");
        assert_eq!(outcome.curve.points.len(), 20);
        assert_eq!(outcome.recovery.len(), 1, "{:?}", outcome.recovery);
        let ev = outcome.recovery[0];
        assert_eq!((ev.iteration, ev.worker), (8, 1));
        assert_eq!(ev.fault, FaultKind::WorkerFailure);
        let losses: Vec<u64> = outcome
            .curve
            .points
            .iter()
            .map(|p| p.loss.to_bits())
            .collect();
        losses
    };
    assert_eq!(run(), run());
}

/// The worker-down path of the *elastic* placement through the same
/// superstep loop: a scheduled crash under replication is detected, the
/// warm replica is promoted and the orphaned task moves to it — and the
/// loss curve stays bit-identical to the failure-free run.
#[test]
fn elastic_crash_with_replication_matches_failure_free() {
    let ds = columnsgd::data::synth::small_test_dataset(300, 60, 7);
    let config = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(32)
        .with_iterations(20)
        .with_learning_rate(0.5)
        .with_seed(11)
        .with_deadline_ms(500);
    let run = |schedule: Vec<ElasticEvent>| {
        let cfg = ElasticConfig::new(config, 3, 3)
            .with_replication()
            .with_schedule(schedule);
        let mut engine =
            ColumnSgdEngine::new_elastic(&ds, cfg, NetworkModel::INSTANT, FailurePlan::none())
                .expect("elastic engine");
        let out = engine.train().expect("elastic train");
        let losses: Vec<u64> = out.curve.points.iter().map(|p| p.loss.to_bits()).collect();
        (out, losses)
    };
    let (clean, clean_losses) = run(Vec::new());
    let (crashed, crashed_losses) = run(vec![ElasticEvent {
        iteration: 8,
        worker: 1,
        action: ElasticAction::Crash,
    }]);
    assert!(clean.recovery.is_empty());
    assert_eq!(clean_losses, crashed_losses);
    assert_eq!(crashed.recovery.len(), 1, "{:?}", crashed.recovery);
    let ev = crashed.recovery[0];
    assert_eq!((ev.iteration, ev.worker), (8, 1));
    assert_eq!(ev.fault, FaultKind::WorkerFailure);
    assert!(
        crashed.elastic.expect("elastic ledger").migrations >= 1,
        "the lost replica must be repaired"
    );
}

#[test]
fn facade_prelude_covers_the_quickstart_surface() {
    // Compile-time check that the prelude exposes the public API the
    // examples and README rely on.
    let _net: NetworkModel = NetworkModel::CLUSTER2;
    let _plan: FailurePlan = FailurePlan::with_straggler(1.0, 0);
    let _part: ColumnPartitioner = ColumnPartitioner::round_robin(4);
    let _spec: ModelSpec = ModelSpec::Fm { factors: 10 };
    let _opt: OptimizerKind = OptimizerKind::adam();
    let _reg: Regularizer = Regularizer::L2(0.01);
    let _up: UpdateParams = UpdateParams::plain(0.1);
    let _sv: SparseVector = SparseVector::from_pairs(vec![(0, 1.0)]);
    let _dv: DenseVector = DenseVector::zeros(3);
    let _cm: CsrMatrix = CsrMatrix::new();
    let _tr: TrafficStats = TrafficStats::new();
    let _cl: SimClock = SimClock::new();
}
