//! Workspace-level telemetry tests: trace determinism, the golden-file
//! JSONL schema (against the checked-in sample trace), and exact
//! reconciliation between comm records and the router's byte meter.

use columnsgd::cluster::telemetry::{parse_jsonl, Event, RunStamp, Summary, SCHEMA_VERSION};
use columnsgd::cluster::{ClusterConfig, FailurePlan, NetworkModel, Recorder};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::data::synth;
use columnsgd::ml::ModelSpec;

/// Runs a small traced job; the summary and the router meter totals are
/// snapshotted at the same instant, *before* the engine drops (engine
/// teardown sends reliable-plane Shutdown messages, which are metered and
/// recorded like any other traffic).
fn traced_run(seed: u64) -> (Recorder, Summary, u64, u64) {
    let ds = synth::small_test_dataset(600, 5_000, 11);
    let cfg = ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(64)
        .with_iterations(6)
        .with_seed(seed);
    let recorder = Recorder::new();
    let mut e = ColumnSgdEngine::new_clustered(
        &ds,
        3,
        cfg,
        NetworkModel::CLUSTER1,
        FailurePlan::none(),
        recorder.clone(),
        &ClusterConfig::in_proc(),
    )
    .expect("engine");
    e.train().expect("train");
    let total = e.traffic().total();
    let summary = recorder.summary();
    (recorder, summary, total.bytes, total.messages)
}

/// Two runs with the same seed must emit bit-identical canonical event
/// streams: the trace is a deterministic function of (config, seed), not
/// of thread interleaving.
#[test]
fn same_seed_runs_emit_identical_canonical_traces() {
    let (a, _, _, _) = traced_run(17);
    let (b, _, _, _) = traced_run(17);
    let la = a.canonical_lines();
    let lb = b.canonical_lines();
    assert!(!la.is_empty(), "traced run must record events");
    assert_eq!(la, lb, "same-seed traces must be canonically identical");
    assert_eq!(a.stamp().run_id(), b.stamp().run_id());

    // A different seed is a different run: stamp and stream both change.
    let (c, _, _, _) = traced_run(18);
    assert_ne!(a.stamp().run_id(), c.stamp().run_id());
    assert_ne!(la, c.canonical_lines());
}

/// The sum of traced comm-record bytes/messages equals the router's
/// metered totals exactly — no event is double-counted or lost.
#[test]
fn trace_bytes_reconcile_with_router_meter() {
    let (_recorder, s, meter_bytes, meter_messages) = traced_run(23);
    assert_eq!(s.comm_bytes, meter_bytes);
    assert_eq!(s.comm_messages, meter_messages);
    let by_kind_bytes: u64 = s.by_kind.iter().map(|k| k.bytes).sum();
    assert_eq!(
        by_kind_bytes, meter_bytes,
        "per-kind totals must partition the meter"
    );
}

/// A trace round-trips through JSONL: parse(to_jsonl) recovers the exact
/// event stream and the run meta line.
#[test]
fn jsonl_round_trips() {
    let (recorder, _, _, _) = traced_run(31);
    let trace = recorder.to_jsonl();
    let (meta, events) = parse_jsonl(&trace).expect("parse");
    assert_eq!(
        meta.get("schema").and_then(|v| v.as_u64()),
        Some(SCHEMA_VERSION)
    );
    assert_eq!(events, recorder.events());
}

/// Golden-file test against the checked-in sample trace
/// (`repro_results/TRACE_sample.jsonl`, regenerated with
/// `cargo run --release -p columnsgd-bench --bin repro -- trace`):
/// the schema version is supported, every line parses, all four event
/// types are present, and the summary is internally consistent.
#[test]
fn golden_sample_trace_matches_schema() {
    let path = format!(
        "{}/repro_results/TRACE_sample.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    let trace = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden trace {path}: {e}"));
    let (meta, events) = parse_jsonl(&trace).expect("golden trace must parse");

    assert_eq!(
        meta.get("schema").and_then(|v| v.as_u64()),
        Some(SCHEMA_VERSION)
    );
    let seed = meta.get("seed").and_then(|v| v.as_u64()).expect("seed");
    let workers = meta
        .get("workers")
        .and_then(|v| v.as_u64())
        .expect("workers");
    assert_eq!((seed, workers), (29, 4), "trace experiment preset");

    for ty in ["superstep", "comm", "kernel", "fault"] {
        assert!(
            events.iter().any(|e| e.type_str() == ty),
            "golden trace must contain at least one {ty} event"
        );
    }

    let s = Summary::from_events(&events, RunStamp::default());
    assert_eq!(s.iterations, 8, "trace experiment runs 8 iterations");
    assert!(s.comm_bytes > 0 && s.comm_messages > 0);
    let by_kind_bytes: u64 = s.by_kind.iter().map(|k| k.bytes).sum();
    assert_eq!(by_kind_bytes, s.comm_bytes);
    assert!(s.breakdown.total() > 0.0, "spans must carry simulated time");
    assert!(
        s.faults >= 1,
        "the scripted task failure at iteration 3 must be recorded"
    );
    let comm_spans = s.breakdown.gather_s + s.breakdown.broadcast_s;
    let modeled: f64 = events
        .iter()
        .filter_map(|e| match e {
            Event::Comm(c) => Some(c.modeled_s),
            _ => None,
        })
        .sum();
    assert!(
        modeled > 0.0 && comm_spans > 0.0,
        "comm records carry modeled latency and spans carry comm phases"
    );
}
