//! Table IV: per-iteration time of training LR across the systems.

use columnsgd::cluster::{ClusterConfig, FailurePlan, NetworkModel, Recorder};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::ml::ModelSpec;
use columnsgd::rowsgd::{RowSgdConfig, RowSgdEngine, RowSgdVariant};
use serde_json::json;

use crate::datasets;
use crate::report::{breakdown_json, fmt_s, fmt_x, Report};

/// Runs the per-iteration LR timing comparison.
pub fn run(scale: f64) -> Report {
    let k = 8;
    let b = 1000usize;
    let iters = 4u64;
    let net = NetworkModel::CLUSTER1;
    let mut r = Report::new(
        "table4",
        "Table IV: per-iteration time (s) of training LR (Cluster 1, B=1000, K=8)",
        &[
            "dataset",
            "m (scaled)",
            "MLlib",
            "Petuum",
            "MXNet",
            "ColumnSGD",
            "speedup (MLlib/Petuum/MXNet)",
        ],
    );
    let mut out = Vec::new();
    for preset in datasets::MAIN_TRIO {
        let ds = datasets::build(preset, scale, 5_000, 31);

        let mut times = Vec::new();
        for variant in [
            RowSgdVariant::MLlib,
            RowSgdVariant::PsDense,
            RowSgdVariant::PsSparse,
        ] {
            let cfg = RowSgdConfig::new(ModelSpec::Lr, variant)
                .with_batch_size(b)
                .with_iterations(iters);
            let mut e = RowSgdEngine::new(&ds, k, cfg, net).expect("engine");
            times.push(e.train().expect("train").mean_iteration_s(iters as usize));
        }
        let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
            .with_batch_size(b)
            .with_iterations(iters);
        let recorder = Recorder::new();
        let mut e = ColumnSgdEngine::new_clustered(
            &ds,
            k,
            cfg,
            net,
            FailurePlan::none(),
            recorder.clone(),
            &ClusterConfig::in_proc(),
        )
        .expect("engine");
        let col = e.train().expect("train").mean_iteration_s(iters as usize);
        // The per-phase split of the ColumnSGD column comes straight from
        // the recorded superstep spans — no separate bookkeeping.
        let breakdown = breakdown_json(&recorder.summary());

        r.row(vec![
            preset.meta().name,
            datasets::scaled_features(preset, scale).to_string(),
            fmt_s(times[0]),
            fmt_s(times[1]),
            fmt_s(times[2]),
            fmt_s(col),
            format!(
                "{}/{}/{}",
                fmt_x(times[0] / col),
                fmt_x(times[1] / col),
                fmt_x(times[2] / col)
            ),
        ]);
        out.push(json!({
            "dataset": preset.meta().name,
            "m_scaled": datasets::scaled_features(preset, scale),
            "mllib_s": times[0], "petuum_s": times[1], "mxnet_s": times[2],
            "columnsgd_s": col,
            "columnsgd_breakdown": breakdown,
        }));
    }
    r.note("paper: avazu 1.43/0.24/0.02/0.06 (24x/4x/0.3x), kddb 16.33/1.96/0.3/0.06 (233x/28x/5x), kdd12 55.81/3.81/0.37/0.06 (930x/63x/6x)");
    r.note("ColumnSGD per-iteration time is flat across datasets; RowSGD systems grow with m — absolute speedups shrink with the scale factor since MLlib/Petuum times are m-proportional");
    r.note("each row's JSON carries a `columnsgd_breakdown` derived from telemetry superstep spans (run `repro trace` for the full breakdown table)");
    r.json = json!({ "rows": out, "scale": scale });
    r
}
