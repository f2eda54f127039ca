//! `BENCH_superstep`: measured local compute per iteration, legacy
//! allocation-churn path vs the engine's buffer-reuse path, plus an
//! end-to-end check that the kernel optimizations left wire traffic
//! byte-identical.

use std::time::Instant;

use columnsgd::cluster::{ClusterConfig, FailurePlan, NetworkModel, Recorder};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::ml::ModelSpec;
use serde_json::json;

use crate::datasets;
use crate::report::{fmt_x, Report};
use crate::superstep::SuperstepSim;

/// Workers / partitions (the acceptance target is a k=8 LR run).
const K: usize = 8;
/// Global batch size B.
const B: usize = 1_000;
/// Timed iterations per path (after warmup).
const ITERS: usize = 50;
/// Warmup iterations (page in the dataset, grow tuned-path buffers).
const WARMUP: usize = 3;

/// Runs the superstep micro-benchmark and the traffic-identity check.
pub fn run(scale: f64) -> Report {
    // kddb-synth: the densest Table II profile (~29 nnz/row), so the
    // accumulator and batch-build costs both paths differ on are well
    // exercised.
    let ds = datasets::build(columnsgd::data::DatasetPreset::Kddb, scale, 5_000, 13);

    // Local compute: time ITERS full k-worker supersteps on each path.
    // Both paths run the identical arithmetic over the identical batches
    // (asserted bit-for-bit by `superstep::tests` and the ml crate's
    // kernel-equivalence property suite); only allocation strategy differs.
    let mut legacy = SuperstepSim::new(&ds, ModelSpec::Lr, K, B, 7);
    let mut tuned = SuperstepSim::new(&ds, ModelSpec::Lr, K, B, 7);
    for t in 0..WARMUP as u64 {
        legacy.step_legacy(t);
        tuned.step_tuned(t);
    }
    let start = Instant::now();
    for t in 0..ITERS as u64 {
        legacy.step_legacy(WARMUP as u64 + t);
    }
    let legacy_s = start.elapsed().as_secs_f64() / ITERS as f64;
    let start = Instant::now();
    for t in 0..ITERS as u64 {
        tuned.step_tuned(WARMUP as u64 + t);
    }
    let tuned_s = start.elapsed().as_secs_f64() / ITERS as f64;
    let speedup = legacy_s / tuned_s;

    // Traffic identity: the optimizations change *when* work happens,
    // never *what* is sent. A serial (threads=1) and a fully fanned-out
    // (threads=K) engine run must meter identical bytes and messages.
    // Both runs are traced, so the totals are additionally reconciled
    // against the telemetry comm records (the engine asserts equality).
    let traffic = |threads: usize| {
        let ds = datasets::build(columnsgd::data::DatasetPreset::Avazu, scale, 2_000, 13);
        let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
            .with_batch_size(200)
            .with_iterations(10)
            .with_threads_per_worker(threads);
        let recorder = Recorder::new();
        let mut e = ColumnSgdEngine::new_clustered(
            &ds,
            K,
            cfg,
            NetworkModel::CLUSTER1,
            FailurePlan::none(),
            recorder.clone(),
            &ClusterConfig::in_proc(),
        )
        .expect("engine");
        let _ = e.train().expect("train");
        let total = e.traffic().total();
        let s = recorder.summary();
        assert_eq!(
            (s.comm_bytes, s.comm_messages),
            (total.bytes, total.messages),
            "telemetry comm records must reconcile with the meter"
        );
        (total.bytes, total.messages)
    };
    let (bytes_serial, msgs_serial) = traffic(1);
    let (bytes_pool, msgs_pool) = traffic(K);
    assert_eq!(
        (bytes_serial, msgs_serial),
        (bytes_pool, msgs_pool),
        "kernel pool must not change wire traffic"
    );

    let mut r = Report::new(
        "BENCH_superstep",
        "superstep bench: local compute per iteration, LR, K=8, B=1000",
        &[
            "path",
            "compute s/iter",
            "speedup",
            "traffic bytes",
            "traffic msgs",
        ],
    );
    r.row(vec![
        "legacy (pre-PR baseline)".into(),
        format!("{legacy_s:.6}"),
        "1.0x".into(),
        bytes_serial.to_string(),
        msgs_serial.to_string(),
    ]);
    r.row(vec![
        "tuned (buffer reuse)".into(),
        format!("{tuned_s:.6}"),
        fmt_x(speedup),
        bytes_pool.to_string(),
        msgs_pool.to_string(),
    ]);
    r.note(
        "legacy re-allocates batch CSRs, statistics vectors, and a BTreeMap \
         gradient accumulator every iteration; tuned reuses all buffers \
         (engine default). Models stay bit-identical (kernel_equivalence suite).",
    );
    r.note("traffic rows are engine runs at threads_per_worker = 1 vs 8 — byte totals must match exactly");
    r.json = json!({
        "model": "lr", "k": K, "batch": B, "iters": ITERS, "scale": scale,
        "baseline_compute_s_per_iter": legacy_s,
        "optimized_compute_s_per_iter": tuned_s,
        "speedup": speedup,
        "traffic": {
            "serial": { "bytes": bytes_serial, "messages": msgs_serial },
            "pooled": { "bytes": bytes_pool, "messages": msgs_pool },
            "identical": true,
        },
    });
    r
}
