//! Metrics exposition end to end: attach a [`MetricsRegistry`] to a
//! traced engine, train, and scrape the blocking HTTP responder the way
//! Prometheus would — plus the file-snapshot path tests use in CI.

use std::io::{Read as _, Write as _};
#[expect(clippy::disallowed_types, reason = "scrapes the metrics responder")]
use std::net::TcpStream;

use columnsgd_cluster::telemetry::MetricsRegistry;
use columnsgd_cluster::{ClusterConfig, FailurePlan, NetworkModel, Recorder};
use columnsgd_core::{
    ColumnSgdConfig, ColumnSgdEngine, ElasticAction, ElasticConfig, ElasticEvent,
};
use columnsgd_data::synth;
use columnsgd_ml::ModelSpec;

const ITERATIONS: u64 = 8;

fn cfg() -> ColumnSgdConfig {
    ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(32)
        .with_iterations(ITERATIONS)
        .with_learning_rate(0.5)
        .with_seed(17)
}

fn trained_registry() -> MetricsRegistry {
    let ds = synth::small_test_dataset(240, 48, 9);
    let cfg = cfg();
    let metrics = MetricsRegistry::new();
    let mut engine = ColumnSgdEngine::new_clustered(
        &ds,
        2,
        cfg,
        NetworkModel::CLUSTER1,
        FailurePlan::none(),
        Recorder::new(),
        &ClusterConfig::in_proc(),
    )
    .expect("engine");
    engine.attach_metrics(metrics.clone());
    engine.train().expect("train");
    metrics
}

#[expect(clippy::disallowed_types, reason = "scrapes the metrics responder")]
fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect to metrics responder");
    let req = format!("GET {path} HTTP/1.1\r\nHost: x\r\nAccept: text/plain\r\n\r\n");
    s.write_all(req.as_bytes()).expect("send request");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    resp
}

/// A Prometheus-style scrape over live TCP after a traced run: correct
/// status line, content type, and every engine family present with the
/// values the run actually produced.
#[test]
fn live_scrape_after_traced_run() {
    let metrics = trained_registry();
    let addr = metrics.serve("127.0.0.1:0").expect("bind responder");
    let resp = scrape(addr, "/metrics");

    assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
    assert!(
        resp.contains("text/plain; version=0.0.4"),
        "missing exposition content type: {resp}"
    );
    // One superstep counter increment per iteration.
    assert!(
        resp.contains(&format!("columnsgd_supersteps_total {ITERATIONS}")),
        "{resp}"
    );
    for family in [
        "# TYPE columnsgd_supersteps_total counter",
        "# TYPE columnsgd_loss gauge",
        "# TYPE columnsgd_sim_elapsed_seconds gauge",
        "# TYPE columnsgd_worker_compute_seconds gauge",
        "# TYPE columnsgd_comm_bytes_total counter",
        "# TYPE columnsgd_comm_messages_total counter",
        "# TYPE columnsgd_superstep_compute_seconds histogram",
        "columnsgd_worker_compute_seconds{worker=\"0\"}",
        "columnsgd_worker_compute_seconds{worker=\"1\"}",
        &format!("columnsgd_superstep_compute_seconds_count {ITERATIONS}"),
    ] {
        assert!(resp.contains(family), "missing {family:?} in:\n{resp}");
    }
    // Unknown paths 404; the responder keeps serving after both.
    let missing = scrape(addr, "/flamegraph");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    let again = scrape(addr, "/metrics");
    assert!(again.starts_with("HTTP/1.1 200 OK"), "{again}");
}

/// `snapshot_to` writes the identical rendering a scrape returns.
#[test]
fn snapshot_matches_render() {
    let metrics = trained_registry();
    let dir = std::env::temp_dir().join(format!("columnsgd-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join("metrics.prom");
    metrics.snapshot_to(&path).expect("snapshot");
    let written = std::fs::read_to_string(&path).expect("read snapshot");
    assert_eq!(written, metrics.render());
    assert!(written.contains(&format!("columnsgd_supersteps_total {ITERATIONS}")));
    // Counters exported as per-superstep deltas still sum to the meter's
    // cumulative totals: a nonzero bytes counter proves the delta path.
    let bytes = written
        .lines()
        .find_map(|l| l.strip_prefix("columnsgd_comm_bytes_total "))
        .expect("comm bytes sample")
        .parse::<f64>()
        .expect("numeric sample");
    assert!(bytes > 0.0, "comm bytes counter never advanced:\n{written}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The elastic engine feeds the same registry through the shared master
/// core: every family, one counter tick per superstep, and a per-slot
/// compute gauge — including the slot that only joins mid-run.
#[test]
fn elastic_run_feeds_the_registry() {
    let ds = synth::small_test_dataset(240, 48, 9);
    let metrics = MetricsRegistry::new();
    let mut engine = ColumnSgdEngine::new_elastic_clustered(
        &ds,
        ElasticConfig::new(cfg(), 3, 2).with_schedule(vec![ElasticEvent {
            iteration: 3,
            worker: 2,
            action: ElasticAction::Join,
        }]),
        NetworkModel::CLUSTER1,
        FailurePlan::none(),
        Recorder::new(),
        &ClusterConfig::in_proc(),
    )
    .expect("elastic engine");
    engine.attach_metrics(metrics.clone());
    engine.train().expect("elastic train");

    let text = metrics.render();
    for sample in [
        &format!("columnsgd_supersteps_total {ITERATIONS}"),
        "# TYPE columnsgd_loss gauge",
        "# TYPE columnsgd_comm_bytes_total counter",
        "columnsgd_worker_compute_seconds{worker=\"0\"}",
        "columnsgd_worker_compute_seconds{worker=\"2\"}",
        &format!("columnsgd_superstep_compute_seconds_count {ITERATIONS}"),
    ] {
        assert!(text.contains(sample), "missing {sample:?} in:\n{text}");
    }
    // The byte counter is exported as deltas of the cumulative meter, so
    // after the last superstep it equals the meter (migration included).
    let bytes = text
        .lines()
        .find_map(|l| l.strip_prefix("columnsgd_comm_bytes_total "))
        .expect("comm bytes sample")
        .parse::<f64>()
        .expect("numeric sample");
    assert_eq!(bytes, engine.traffic().total().bytes as f64);
}
