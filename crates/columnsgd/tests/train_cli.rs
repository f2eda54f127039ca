//! `columnsgd-train` end to end: one binary drives all six systems —
//! ColumnSGD over a fixed worker set and over elastic membership, MLlib,
//! MLlib*, Petuum and MXNet — on a tiny LIBSVM file with in-process
//! workers, rejects elastic flags on a RowSGD system, and exports the same
//! Prometheus metrics for a baseline as for ColumnSGD.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const ITERS: u64 = 6;

/// A fresh scratch directory for one test, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("columnsgd-train-cli-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Self(dir)
    }

    /// A separable toy problem in LIBSVM text: even rows positive on
    /// features {1, 3}, odd rows negative on {2, 4}, feature 5 shared.
    fn libsvm(&self) -> PathBuf {
        let mut text = String::new();
        for i in 0..120 {
            let (label, a, b) = if i % 2 == 0 {
                ("+1", 1, 3)
            } else {
                ("-1", 2, 4)
            };
            text.push_str(&format!("{label} {a}:1 {b}:{} 5:0.5\n", 1 + i % 3));
        }
        let path = self.0.join("toy.libsvm");
        std::fs::write(&path, text).expect("write dataset");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn train(data: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_columnsgd-train"))
        .arg(data)
        .args(["--workers", "2", "--batch", "16", "--iters"])
        .arg(ITERS.to_string())
        .args(args)
        .output()
        .expect("run columnsgd-train")
}

fn assert_trained(out: &Output, what: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{what}: exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("train loss"), "{what}:\n{stdout}");
}

#[test]
fn every_system_trains() {
    let scratch = Scratch::new("systems");
    let data = scratch.libsvm();
    for system in ["columnsgd", "mllib", "mllib*", "petuum", "mxnet"] {
        assert_trained(&train(&data, &["--system", system]), system);
    }
    let elastic = train(
        &data,
        &["--elastic", "--elastic-initial", "1", "--join", "3:1"],
    );
    assert_trained(&elastic, "elastic");
    let stdout = String::from_utf8_lossy(&elastic.stdout);
    assert!(stdout.contains("membership: "), "{stdout}");
}

#[test]
fn elastic_flags_are_a_usage_error_on_a_baseline() {
    let scratch = Scratch::new("usage");
    let out = train(&scratch.libsvm(), &["--system", "mxnet", "--replicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn baseline_metrics_snapshot_counts_every_superstep() {
    let scratch = Scratch::new("metrics");
    let snapshot = scratch.0.join("metrics.prom");
    let snapshot_arg = snapshot.to_str().expect("utf-8 path");
    let out = train(
        &scratch.libsvm(),
        &["--system", "mllib", "--metrics-snapshot", snapshot_arg],
    );
    assert_trained(&out, "mllib with metrics");
    let text = std::fs::read_to_string(&snapshot).expect("read snapshot");
    let supersteps = text
        .lines()
        .find_map(|l| l.strip_prefix("columnsgd_supersteps_total "))
        .expect("superstep counter sample");
    assert_eq!(supersteps.parse::<u64>(), Ok(ITERS), "{text}");
}
