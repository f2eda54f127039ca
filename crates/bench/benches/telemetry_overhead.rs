//! Telemetry overhead: a short end-to-end LR training run with the
//! recorder disabled (the default for `ColumnSgdEngine::new`) vs enabled.
//!
//! The disabled path must stay within noise of the pre-telemetry
//! engine — every record site is gated on a single relaxed atomic load,
//! so `lr_k4_disabled` is the number to watch for regressions.

use columnsgd::cluster::telemetry::profile;
use columnsgd::cluster::{ClusterConfig, FailurePlan, NetworkModel, Recorder};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::data::synth;
use columnsgd::ml::ModelSpec;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead");
    let ds = synth::small_test_dataset(2_000, 50_000, 13);
    let cfg = || {
        ColumnSgdConfig::new(ModelSpec::Lr)
            .with_batch_size(200)
            .with_iterations(5)
    };

    g.bench_function("lr_k4_disabled", |bch| {
        bch.iter(|| {
            let mut e = ColumnSgdEngine::new_clustered(
                &ds,
                4,
                cfg(),
                NetworkModel::CLUSTER1,
                FailurePlan::none(),
                Recorder::disabled(),
                &ClusterConfig::in_proc(),
            )
            .expect("engine");
            black_box(e.train().expect("train"));
        })
    });

    g.bench_function("lr_k4_enabled", |bch| {
        bch.iter(|| {
            let recorder = Recorder::new();
            let mut e = ColumnSgdEngine::new_clustered(
                &ds,
                4,
                cfg(),
                NetworkModel::CLUSTER1,
                FailurePlan::none(),
                recorder.clone(),
                &ClusterConfig::in_proc(),
            )
            .expect("engine");
            black_box(e.train().expect("train"));
            black_box(recorder.events().len());
        })
    });

    // Tracing + phase profiler: every ProfScope on the hot path goes live.
    // Compare against `lr_k4_enabled` for the profiler's marginal cost.
    g.bench_function("lr_k4_enabled_profiled", |bch| {
        profile::set_enabled(true);
        bch.iter(|| {
            let recorder = Recorder::new();
            let mut e = ColumnSgdEngine::new_clustered(
                &ds,
                4,
                cfg(),
                NetworkModel::CLUSTER1,
                FailurePlan::none(),
                recorder.clone(),
                &ClusterConfig::in_proc(),
            )
            .expect("engine");
            black_box(e.train().expect("train"));
            black_box(recorder.events().len());
        });
        profile::set_enabled(false);
        profile::drain();
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_telemetry_overhead
}
criterion_main!(benches);
