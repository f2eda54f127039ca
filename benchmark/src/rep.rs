//! One round: a fresh process that builds and trains engines back to back.
//!
//! The parent runs `sgdbench rep <workload> …` as a child so that every
//! round starts cold (allocator, page cache of the worker binaries, thread
//! pools) the way a user's job does. One JSON line comes back.

use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::adapter::{self, Bins, Data, Engine, Job};
use crate::workload::Workload;

/// FNV-1a over the bit patterns: equal hashes ⇔ bit-identical vectors
/// (up to collisions), and a hash fits in one JSON string.
pub fn hash_bits(values: &[f64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `VmHWM` of process `pid` in MB (0 if it is gone).
fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of this process plus its live children (the worker
/// processes of the tcp transport).
fn peak_rss_with_children_mb() -> f64 {
    let me = std::process::id();
    let mut total = peak_rss_mb(me);
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return total;
    };
    for pid in dir
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
    {
        // /proc/<pid>/stat: "pid (comm) state ppid …"; comm may hold spaces.
        let ppid = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .ok()
            .and_then(|s| {
                s.rsplit_once(')')?
                    .1
                    .split_whitespace()
                    .nth(1)?
                    .parse::<u32>()
                    .ok()
            });
        if ppid == Some(me) {
            total += peak_rss_mb(pid);
        }
    }
    total
}

/// What one engine of a round measured.
struct Run {
    setup_s: f64,
    train_s: f64,
    trained: adapter::Trained,
    peak_rss_mb: f64,
    engine: Engine,
}

fn run_engine(job: &Job, data: &Data, bins: &Bins, traced: bool) -> Result<Run, String> {
    let t0 = Instant::now();
    let mut engine = Engine::build(job, data, bins, traced)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let trained = engine.train()?;
    let train_s = t1.elapsed().as_secs_f64();
    // Before the engine drops: its worker processes are still alive.
    let peak_rss_mb = peak_rss_with_children_mb();
    Ok(Run {
        setup_s,
        train_s,
        trained,
        peak_rss_mb,
        engine,
    })
}

/// How many measured engines follow the cold one.
#[derive(Clone, Copy)]
pub enum Measured {
    Count(u64),
    /// As many as fit until this many seconds since the round began.
    UntilS(u64),
}

impl Measured {
    /// The `rep` command-line form.
    pub fn to_args(self) -> [String; 2] {
        match self {
            Measured::Count(n) => ["--measured".to_string(), n.to_string()],
            Measured::UntilS(s) => ["--until-s".to_string(), s.to_string()],
        }
    }
}

/// Runs one round and returns its JSON line.
///
/// The first engine trains the whole job, cold: it gives `setup_s`,
/// `peak_rss_mb` and every checked output, and its step time is dropped as
/// warm-up. The measured engines that follow train a prefix of the job
/// (`Workload::measured_job`): how fast an engine instance runs is settled
/// when it is built (where its memory lands), so a steady median needs
/// many instances, not long ones. Each must reproduce the cold engine's
/// loss curve bit for bit as far as it goes.
pub fn run(
    wl: &Workload,
    seed: u64,
    measured: Measured,
    quick: bool,
    traced: bool,
    bins: &Bins,
) -> Result<Value, String> {
    let began = Instant::now();
    let job = wl.job(seed, quick);
    let short = wl.measured_job(seed, quick);
    let data = Data::generate(seed);
    if traced {
        adapter::set_profiling(true);
    }
    let mut cold = run_engine(&job, &data, bins, traced)?;
    let losses = &cold.trained.losses;
    let model_hash = hash_bits(&cold.engine.model()?);
    let (load_objects, load_bytes) = cold.engine.load_report();
    // The profiler is process-wide and its lines cover set-up too; over
    // the whole job the load-phase frames weigh least.
    let profile = cold.engine.profile_phase_s();
    drop(cold.engine);

    let mut step_ms = Vec::new();
    let mut attempted = job.iters;
    let mut failed = cold.trained.recoveries as u64;
    let mut consistent = true;
    let mut errors: Vec<String> = Vec::new();
    while match measured {
        Measured::Count(n) => ((step_ms.len() + errors.len()) as u64) < n,
        Measured::UntilS(s) => step_ms.len() < 2 || began.elapsed() < Duration::from_secs(s),
    } {
        attempted += short.iters;
        match run_engine(&short, &data, bins, traced) {
            Ok(r) => {
                failed += r.trained.recoveries as u64;
                consistent &= same_bits(
                    &r.trained.losses,
                    &losses[..r.trained.losses.len().min(losses.len())],
                );
                step_ms.push(r.train_s * 1e3 / short.iters as f64);
            }
            // A refused or errored run is failed work, never a fast one.
            Err(e) => {
                failed += short.iters;
                errors.push(e);
                if errors.len() > 2 {
                    break;
                }
            }
        }
    }
    let iters = job.iters as f64;
    let profile = Value::Object(profile.into_iter().map(|(k, v)| (k, json!(v))).collect());
    Ok(json!({
        "workload": wl.name,
        "seed": seed,
        "setup_s": cold.setup_s,
        "peak_rss_mb": cold.peak_rss_mb,
        "cold_step_ms": cold.train_s * 1e3 / iters,
        "step_ms": step_ms,
        "losses": losses.clone(),
        "loss_hash": hash_bits(losses),
        "model_hash": model_hash,
        "bytes_per_step": cold.trained.bytes as f64 / iters,
        "msgs_per_step": cold.trained.msgs as f64 / iters,
        "load_objects": load_objects,
        "load_bytes": load_bytes,
        "recoveries": cold.trained.recoveries,
        "attempted_steps": attempted,
        "failed_steps": failed,
        "consistent": consistent,
        "errors": errors,
        "profile_phase_s": profile,
    }))
}
