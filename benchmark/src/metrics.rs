//! The metric names, units and bounds. `BENCHMARK.json` is generated from
//! this file (`sgdbench manifest`), and a unit test keeps the two equal.

use serde_json::{json, Value};

use crate::workload;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// All are "lower is better".
///
/// The timing bounds are the widest the driver allows. Per-run medians on
/// the 2-core reference VM differ by 4–8 % between runs in calm minutes,
/// and whole workloads drift by 15–40 % over a few minutes when the host
/// is busy (README, "Repeatability"); a bound below the machine's own
/// wander would reject the benchmark, not a regression.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_wall_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "time_to_target_s",
        unit: "s",
        bound: 0.25,
    },
    // An exact count: one byte more in a whole run is 2e-8 of it.
    EndToEnd {
        name: "bytes_per_step",
        unit: "B/step",
        bound: 1e-9,
    },
    // Whether an 8 MB frame is in flight at the reading moves the MLlib
    // workload's peak by 6 %.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.10,
    },
];

/// `(name, unit, better)`; the prefix of a name is the crate it times.
pub const PER_LAYER: [(&str, &str, &str); 38] = [
    ("data.transform_ms", "ms", "lower"),
    ("data.transform_objects", "count", "lower"),
    ("data.transform_bytes", "B", "lower"),
    ("data.batch_sample_us", "us", "lower"),
    ("data.batch_nnz", "count", "lower"),
    ("linalg.partial_dots_ns_per_nnz", "ns", "lower"),
    ("linalg.batch_gather_ns_per_nnz", "ns", "lower"),
    ("ml.kernel_stats_us", "us", "lower"),
    ("ml.kernel_update_us", "us", "lower"),
    ("ml.reduce_us", "us", "lower"),
    ("ml.loss_us", "us", "lower"),
    ("cluster.codec_encode_us.stats_reply", "us", "lower"),
    ("cluster.codec_encode_us.update", "us", "lower"),
    ("cluster.codec_encode_us.full_model_grad", "us", "lower"),
    ("cluster.codec_encode_us.grad_reply_dense", "us", "lower"),
    ("cluster.codec_decode_us.stats_reply", "us", "lower"),
    ("cluster.codec_decode_us.update", "us", "lower"),
    ("cluster.codec_decode_us.full_model_grad", "us", "lower"),
    ("cluster.codec_decode_us.grad_reply_dense", "us", "lower"),
    ("cluster.codec_encode_ns_per_byte", "ns", "lower"),
    ("cluster.codec_decode_ns_per_byte", "ns", "lower"),
    ("cluster.frame_io_us", "us", "lower"),
    ("cluster.hop_rtt_us.channel", "us", "lower"),
    ("cluster.hop_rtt_us.tcp", "us", "lower"),
    ("cluster.hop_rtt_us.tcp_switched", "us", "lower"),
    ("cluster.tcp_mb_per_s", "MB/s", "higher"),
    ("cluster.bytes_per_step_k4", "B/step", "lower"),
    ("cluster.bytes_per_step_k8", "B/step", "lower"),
    ("cluster.bytes_per_step_dim1e3", "B/step", "lower"),
    ("cluster.msgs_per_step", "count", "lower"),
    ("core.steps_to_target", "count", "lower"),
    ("core.recoveries", "count", "lower"),
    ("core.layers_critical_ms", "ms", "lower"),
    ("core.engine_residual_ms", "ms", "lower"),
    ("core.engine_residual_share", "ratio", "lower"),
    ("core.barrier_skew_us", "us", "lower"),
    ("telemetry.traced_step_wall_ms", "ms", "lower"),
    ("telemetry.trace_overhead_ratio", "ratio", "lower"),
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 24;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = workload::ALL
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": "lower", "bound": m.bound}))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| json!({"name": name, "unit": unit, "better": better}))
        .collect();
    json!({
        "command": ["bash", "benchmark/run.sh"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let parsed = serde_json::from_str(&on_disk).expect("BENCHMARK.json parses");
        assert_eq!(parsed, manifest(), "regenerate with `sgdbench manifest`");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(workload::ALL.iter().map(|w| w.name));
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].bound, widest, "setup_s has the largest bound");
    }
}
