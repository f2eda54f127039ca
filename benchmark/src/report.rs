//! Everything the harness prints or writes.

use std::path::PathBuf;
use std::process::Command;

use serde_json::{json, Value};

use crate::measure::{Opts, WorkloadResult};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::span::Trace;

/// Relative to the root of the checkout, where `run.sh` starts us.
const RESULTS_DIR: &str = "benchmark/results";

/// The seed-1 outputs every run is checked against.
pub fn pins() -> Result<Value, String> {
    serde_json::from_str(include_str!("../pins.json")).map_err(|e| format!("pins.json: {e}"))
}

fn results_path(file: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    Ok(PathBuf::from(RESULTS_DIR).join(file))
}

pub fn write_trace(workload: &str, trace: &Trace) -> Result<(), String> {
    let path = results_path(&format!("trace_{workload}.json"))?;
    std::fs::write(&path, trace.to_json(workload).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The last line of a driver run.
pub fn driver_line(r: &WorkloadResult, trace: bool) -> Value {
    let mut metrics: Vec<(String, Value)> = Vec::new();
    if trace {
        for (name, unit, _) in PER_LAYER {
            let value = r.layers.get(name).copied().unwrap_or(f64::NAN);
            metrics.push((name.to_string(), json!({"value": value, "unit": unit})));
        }
    } else {
        for m in &END_TO_END {
            let value = r.e2e.get(m.name).map_or(f64::NAN, |s| s.value);
            metrics.push((m.name.to_string(), json!({"value": value, "unit": m.unit})));
        }
    }
    for (what, ok) in &r.checks {
        if !ok {
            eprintln!("check failed: {what}");
        }
    }
    for e in &r.errors {
        eprintln!("error: {e}");
    }
    let complete = metrics
        .iter()
        .all(|(_, m)| m.get("value").and_then(Value::as_f64).is_some());
    json!({
        "correct": r.correct() && complete,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": Value::Object(metrics),
    })
}

pub fn print_suite(results: &[WorkloadResult]) {
    for r in results {
        println!("\n== {} ==", r.name);
        for m in &END_TO_END {
            if let Some(s) = r.e2e.get(m.name) {
                let q = s.samples;
                println!(
                    "  {:<42} {:>14.4} {:<7} median {:.4} q1 {:.4} q3 {:.4} n {} (bound {})",
                    m.name, s.value, m.unit, q.median, q.q1, q.q3, q.n, m.bound
                );
            }
        }
        println!("  {:<42} {:>14}", "ops_attempted", r.attempted);
        println!("  {:<42} {:>14}", "ops_failed", r.failed);
        for (name, unit, _) in PER_LAYER {
            if let Some(v) = r.layers.get(name) {
                println!("  {name:<42} {v:>14.4} {unit}");
            }
        }
        if let (Some(step), Some(res), Some(share)) = (
            r.e2e.get("step_wall_ms"),
            r.layers.get("core.engine_residual_ms"),
            r.layers.get("core.engine_residual_share"),
        ) {
            println!(
                "  residual: {res:.4} ms of the {:.4} ms step ({:.1} %) is not in any layer span",
                step.value,
                share * 100.0
            );
        }
        if !r.phases.is_empty() {
            println!("  profiler phase (traced round) vs replay layer, us per superstep over all workers:");
            for p in &r.phases {
                let replay = p.replay_us.map_or("-".to_string(), |v| format!("{v:.1}"));
                println!(
                    "    {:<14} profiler {:>10.1}   replay {:>10}",
                    p.phase, p.profiler_us, replay
                );
            }
        }
        for (what, ok) in &r.checks {
            println!("  [{}] {what}", if *ok { "ok" } else { "FAILED" });
        }
        for e in &r.errors {
            println!("  [ERROR] {e}");
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn machine_stamp(opts: &Opts) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu": cpu,
        "kernel": kernel,
        "rustc": command_line("rustc", &["--version"]),
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "seed": opts.seed,
        "quick": opts.quick,
    })
}

pub fn write_latest(results: &[WorkloadResult], opts: &Opts) -> Result<(), String> {
    let workloads: Vec<(String, Value)> = results
        .iter()
        .map(|r| {
            let e2e: Vec<(String, Value)> =
                r.e2e.iter().map(|(k, s)| (k.to_string(), json!({"value": s.value, "samples": s.samples.to_json()}))).collect();
            let layers: Vec<(String, Value)> =
                r.layers.iter().map(|(k, v)| (k.to_string(), json!(*v))).collect();
            let phases: Vec<Value> = r
                .phases
                .iter()
                .map(|p| json!({"phase": p.phase, "profiler_us": p.profiler_us, "replay_us": p.replay_us}))
                .collect();
            let checks: Vec<(String, Value)> =
                r.checks.iter().map(|(k, ok)| (k.clone(), json!(*ok))).collect();
            let entry = json!({
                "end_to_end": Value::Object(e2e),
                "per_layer": Value::Object(layers),
                "profiler_vs_replay_us_per_step": phases,
                "checks": Value::Object(checks),
                "ops_attempted": r.attempted,
                "ops_failed": r.failed,
                "errors": r.errors.clone(),
            });
            (r.name.to_string(), entry)
        })
        .collect();
    let doc = json!({"machine": machine_stamp(opts), "workloads": Value::Object(workloads)});
    let path = results_path("latest.json")?;
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// Two suites of the same commit side by side. Returns whether every gap
/// between the medians stays within its metric's bound.
pub fn print_repeat_table(first: &[WorkloadResult], second: &[WorkloadResult]) -> bool {
    println!("\n== repeatability: two suites of the same commit ==");
    println!(
        "  {:<10} {:<17} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    let mut ok = true;
    for (a, b) in first.iter().zip(second) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.e2e.get(m.name), b.e2e.get(m.name)) else {
                ok = false;
                continue;
            };
            let gap = (y.value - x.value).abs() / x.value;
            let within = gap <= m.bound;
            ok &= within;
            println!(
                "  {:<10} {:<17} {:>12.4} {:>12.4} {:>7.2}% {:>6.0}%{}",
                a.name,
                m.name,
                x.value,
                y.value,
                gap * 100.0,
                m.bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
        ok &= a.layers.iter().all(|(name, v)| {
            let exact = PER_LAYER
                .iter()
                .any(|(n, unit, _)| n == name && matches!(*unit, "count" | "B" | "B/step"));
            !exact || b.layers.get(name) == Some(v)
        });
    }
    println!(
        "  every gap within its bound, every count equal: {}",
        if ok { "yes" } else { "NO" }
    );
    ok
}
