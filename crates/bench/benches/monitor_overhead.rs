//! Online-monitor overhead: a short end-to-end LR training run with the
//! monitor detached (the default) vs attached with the default detector
//! configuration.
//!
//! Same discipline as `telemetry_overhead`: the detached path is one
//! `Option` branch per superstep and must stay within noise of the
//! pre-monitor engine, so `lr_k4_detached` is the regression watchline.
//! The attached path adds the per-superstep detector sweep (median over a
//! sliding window, byte-delta gauge, loss guards) — cheap, but measured
//! here so a detector change that regresses it shows up.

use columnsgd::cluster::{ClusterConfig, FailurePlan, NetworkModel, Recorder};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::data::synth;
use columnsgd::ml::ModelSpec;
use columnsgd::prelude::{Monitor, MonitorConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_monitor_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("monitor_overhead");
    let ds = synth::small_test_dataset(2_000, 50_000, 13);
    let cfg = || {
        ColumnSgdConfig::new(ModelSpec::Lr)
            .with_batch_size(200)
            .with_iterations(5)
    };

    g.bench_function("lr_k4_detached", |bch| {
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

    g.bench_function("lr_k4_attached", |bch| {
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
            e.attach_monitor(Monitor::new(MonitorConfig::default()));
            let out = e.train().expect("train");
            black_box(out.diagnostics.total());
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_monitor_overhead
}
criterion_main!(benches);
