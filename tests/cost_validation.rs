//! Cross-validation of the analytic cost model (Table I) against the
//! engines' *metered* traffic — the reproduction's accounting must agree
//! with the paper's closed forms.

use columnsgd::cluster::{FailurePlan, NetworkModel, NodeId};
use columnsgd::costmodel::{self, Workload};
use columnsgd::data::synth;
use columnsgd::ml::ModelSpec;
use columnsgd::prelude::*;

const ITERS: u64 = 8;

fn workload(ds: &columnsgd::data::Dataset, b: usize, k: usize) -> Workload {
    let m = ds.dimension();
    let rho = 1.0 - ds.avg_nnz() / m as f64;
    Workload::glm(m, b, k, rho, ds.len() as u64)
}

/// ColumnSGD metered traffic ≈ the Table I column (payload = units × 8
/// bytes; headers bounded by 2×).
#[test]
fn columnsgd_traffic_matches_analytic() {
    let ds = synth::small_test_dataset(2_000, 5_000, 1);
    let (b, k) = (200usize, 4usize);
    let w = workload(&ds, b, k);
    let analytic = costmodel::columnsgd(&w);

    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(b)
        .with_iterations(ITERS);
    let mut e = ColumnSgdEngine::new(&ds, k, cfg, NetworkModel::INSTANT, FailurePlan::none())
        .expect("engine");
    e.traffic().reset();
    let _ = e.train().expect("train");

    let master = e.traffic().touching(NodeId::Master).bytes as f64 / ITERS as f64;
    let worker = e.traffic().touching(NodeId::Worker(0)).bytes as f64 / ITERS as f64;
    let expect_master = analytic.master_comm * 8.0;
    let expect_worker = analytic.worker_comm * 8.0;
    assert!(
        master >= expect_master && master < 2.0 * expect_master,
        "master {master} vs analytic {expect_master}"
    );
    assert!(
        worker >= expect_worker && worker < 2.0 * expect_worker,
        "worker {worker} vs analytic {expect_worker}"
    );
}

/// MLlib (dense-pull) metered traffic ≈ the dense-pull closed form.
#[test]
fn mllib_traffic_matches_dense_pull_analytic() {
    let ds = synth::small_test_dataset(2_000, 5_000, 2);
    let (b, k) = (200usize, 4usize);
    let w = workload(&ds, b, k);
    // MLlib pushes *dense* gradients, so both directions carry m units.
    let expect_master = (2 * k as u64 * ds.dimension() * 8) as f64;

    let cfg = RowSgdConfig::new(ModelSpec::Lr, RowSgdVariant::MLlib)
        .with_batch_size(b)
        .with_iterations(ITERS);
    let mut e = RowSgdEngine::new(&ds, k, cfg, NetworkModel::INSTANT).expect("engine");
    e.traffic().reset();
    let _ = e.train().expect("train");
    let master = e.traffic().touching(NodeId::Master).bytes as f64 / ITERS as f64;
    assert!(
        master >= expect_master && master < 1.2 * expect_master,
        "MLlib master {master} vs analytic {expect_master}"
    );
    let _ = w;
}

/// Sparse-pull (MXNet) per-iteration traffic is bounded by the Table I
/// sparse RowSGD form: 2·mφ₁-ish per worker (plus indices).
#[test]
fn ps_sparse_traffic_bounded_by_table1() {
    let ds = synth::small_test_dataset(2_000, 5_000, 3);
    let (b, k) = (200usize, 4usize);
    let w = workload(&ds, b, k);
    let analytic = costmodel::rowsgd(&w);

    let cfg = RowSgdConfig::new(ModelSpec::Lr, RowSgdVariant::PsSparse)
        .with_batch_size(b)
        .with_iterations(ITERS);
    let mut e = RowSgdEngine::new(&ds, k, cfg, NetworkModel::INSTANT).expect("engine");
    e.traffic().reset();
    let _ = e.train().expect("train");

    // Sum over all server links touching worker 0.
    let w0 = e.traffic().touching(NodeId::Worker(0)).bytes as f64 / ITERS as f64;
    // Table I counts value units; the wire also carries 8-byte indices per
    // key (pull request + keyed values + keyed gradients ⇒ ≤ 3 extra units
    // per value unit) plus envelopes.
    let upper = analytic.worker_comm * 8.0 * 4.0 + 4096.0;
    assert!(
        w0 > 0.0 && w0 < upper,
        "worker0 sparse traffic {w0} vs upper bound {upper}"
    );
}

/// The headline Table I contrast, measured: ColumnSGD's per-iteration
/// traffic is independent of m; MLlib's grows linearly.
#[test]
fn measured_scaling_contrast() {
    let measure = |dim: u64, column: bool| {
        let ds = synth::small_test_dataset(1_000, dim, 4);
        if column {
            let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
                .with_batch_size(100)
                .with_iterations(4);
            let mut e =
                ColumnSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT, FailurePlan::none())
                    .expect("engine");
            e.traffic().reset();
            let _ = e.train().expect("train");
            e.traffic().total().bytes
        } else {
            let cfg = RowSgdConfig::new(ModelSpec::Lr, RowSgdVariant::MLlib)
                .with_batch_size(100)
                .with_iterations(4);
            let mut e = RowSgdEngine::new(&ds, 4, cfg, NetworkModel::INSTANT).expect("engine");
            e.traffic().reset();
            let _ = e.train().expect("train");
            e.traffic().total().bytes
        }
    };
    assert_eq!(measure(1_000, true), measure(100_000, true));
    assert!(measure(100_000, false) > 50 * measure(1_000, false));
}

/// One run's priced seconds as bits: the load makespan, then every clock
/// entry's priced communication and overhead. Recovery and migration
/// charges are clock entries of their own, so they are pinned too.
type Priced = (&'static str, Vec<u64>);

fn clock_bits(load_s: f64, clock: &SimClock) -> Vec<u64> {
    let mut bits = vec![load_s.to_bits()];
    for it in clock.trace() {
        bits.push(it.comm_s.to_bits());
        bits.push(it.overhead_s.to_bits());
    }
    bits
}

fn column_run(ds: &columnsgd::data::Dataset, cfg: ColumnSgdConfig, plan: FailurePlan) -> Vec<u64> {
    let mut e = ColumnSgdEngine::new(ds, 4, cfg, NetworkModel::CLUSTER1, plan).expect("engine");
    let out = e.train().expect("train");
    clock_bits(e.load_report().sim_time_s, &out.clock)
}

fn row_run(ds: &columnsgd::data::Dataset, variant: RowSgdVariant, repartition: bool) -> Vec<u64> {
    let cfg = RowSgdConfig::new(ModelSpec::Lr, variant)
        .with_batch_size(50)
        .with_iterations(4);
    let net = NetworkModel::CLUSTER1;
    let mut e = RowSgdEngine::with_repartition(ds, 4, cfg, net, repartition).expect("engine");
    let load_s = e.load_report().sim_time_s;
    if repartition {
        return vec![load_s.to_bits()];
    }
    let out = e.train().expect("train");
    clock_bits(load_s, &out.clock)
}

/// The priced seconds of every paradigm, faults included, are pinned bit
/// for bit: refactoring how a price is computed must not move one. Only
/// measured compute is left free.
#[test]
fn priced_seconds_are_pinned() {
    use columnsgd::cluster::FailureEvent;

    let ds = synth::small_test_dataset(400, 300, 9);
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(50)
        .with_iterations(4)
        .with_seed(3);
    // Worker 1 dies at iteration 2: respawn, reload, and a parameter
    // restore from its backup-group replica.
    let crash = FailurePlan {
        events: vec![FailureEvent::WorkerFailure {
            iteration: 2,
            worker: 1,
        }],
        ..FailurePlan::none()
    };
    // Two of three slots; the third joins at iteration 2 and is migrated
    // a shard.
    let join = ElasticConfig::new(cfg, 3, 2).with_schedule(vec![ElasticEvent {
        iteration: 2,
        worker: 2,
        action: ElasticAction::Join,
    }]);
    let net = NetworkModel::CLUSTER1;
    let mut elastic =
        ColumnSgdEngine::new_elastic(&ds, join, net, FailurePlan::none()).expect("elastic engine");
    let out = elastic.train().expect("elastic train");
    let elastic_bits = clock_bits(elastic.load_report().sim_time_s, &out.clock);

    let got: Vec<Priced> = vec![
        ("columnsgd", column_run(&ds, cfg, FailurePlan::none())),
        (
            "backup_straggler",
            column_run(
                &ds,
                cfg.with_backup(1),
                FailurePlan::with_pinned_straggler(3.0, 2),
            ),
        ),
        // The crash iteration's gather prices the three replies that
        // count: the respawned member is excused and its reply dropped.
        ("crash_restore", column_run(&ds, cfg.with_backup(1), crash)),
        ("elastic_join", elastic_bits),
        ("mllib", row_run(&ds, RowSgdVariant::MLlib, false)),
        (
            "mllib_repartition",
            row_run(&ds, RowSgdVariant::MLlib, true),
        ),
        ("mllib_star", row_run(&ds, RowSgdVariant::MLlibStar, false)),
        ("ps_dense", row_run(&ds, RowSgdVariant::PsDense, false)),
        ("ps_sparse", row_run(&ds, RowSgdVariant::PsSparse, false)),
    ];
    let pinned: Vec<Priced> = PINNED
        .iter()
        .map(|(name, bits)| (*name, bits.to_vec()))
        .collect();
    assert_eq!(got, pinned, "\n{}", render(&got));
}

fn render(runs: &[Priced]) -> String {
    let mut s = String::from("const PINNED: &[(&str, &[u64])] = &[\n");
    for (name, bits) in runs {
        let hex: Vec<String> = bits.iter().map(|b| format!("{b:#018x}")).collect();
        s.push_str(&format!("    (\"{name}\", &[{}]),\n", hex.join(", ")));
    }
    s + "];\n"
}

/// The bits of [`priced_seconds_are_pinned`]. A change that moves one is
/// a pricing change, not a refactor.
#[rustfmt::skip]
const PINNED: &[(&str, &[u64])] = &[
    ("columnsgd", &[0x3f57d0c5ef7cbedc, 0x3f50de2fdccdb20b, 0x3fa999999999999a, 0x3f50de2fdccdb20b, 0x3fa999999999999a, 0x3f50de2fdccdb20b, 0x3fa999999999999a, 0x3f50de2fdccdb20b, 0x3fa999999999999a]),
    ("backup_straggler", &[0x3f5fd3dade0787b4, 0x3f50ce483bc7c616, 0x3fa999999999999a, 0x3f50ce483bc7c616, 0x3fa999999999999a, 0x3f50ce483bc7c616, 0x3fa999999999999a, 0x3f50ce483bc7c616, 0x3fa999999999999a]),
    ("crash_restore", &[0x3f5fd3dade0787b4, 0x3f50de2fdccdb20b, 0x3fa999999999999a, 0x3f50de2fdccdb20b, 0x3fa999999999999a, 0x0000000000000000, 0x3f60e0e7a5afec30, 0x3f50ce483bc7c616, 0x3fa999999999999a, 0x3f50de2fdccdb20b, 0x3fa999999999999a]),
    ("elastic_join", &[0x3f4ee392587f1480, 0x3f50b1c2ca035d9c, 0x3fa999999999999a, 0x3f50b1c2ca035d9c, 0x3fa999999999999a, 0x0000000000000000, 0x3f495dfd94c958d8, 0x3f50c0d3ab7473ac, 0x3fa999999999999a, 0x3f50c0d3ab7473ac, 0x3fa999999999999a]),
    ("mllib", &[0x3f655c2182cb65b3, 0x3f52f9123649a44a, 0x3fa999999999999a, 0x3f52f9123649a44a, 0x3fa999999999999a, 0x3f52f9123649a44a, 0x3fa999999999999a, 0x3f52f9123649a44a, 0x3fa999999999999a]),
    ("mllib_repartition", &[0x3f73bc8f2bc6463a]),
    ("mllib_star", &[0x3f655c2182cb65b3, 0x3f68cfda9e46a784, 0x3fa999999999999a, 0x3f68cfda9e46a784, 0x3fa999999999999a, 0x3f68cfda9e46a784, 0x3fa999999999999a, 0x3f68cfda9e46a784, 0x3fa999999999999a]),
    ("ps_dense", &[0x3f655c2182cb65b3, 0x3f50d86a64cdb500, 0x3f747ae147ae147b, 0x3f50d4a85232ec80, 0x3f747ae147ae147b, 0x3f50da06b5eb78a4, 0x3f747ae147ae147b, 0x3f50d7e0f46e73c9, 0x3f747ae147ae147b]),
    ("ps_sparse", &[0x3f655c2182cb65b3, 0x3f7ecfac83b4b385, 0x3f747ae147ae147b, 0x3f7bef52665cdedc, 0x3f747ae147ae147b, 0x3f8005a06cb65078, 0x3f747ae147ae147b, 0x3f7e667b11ccb9b5, 0x3f747ae147ae147b]),
];
