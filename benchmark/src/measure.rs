//! The parent side: rounds of child processes, output checks, and the
//! per-layer pass (traced round, replay, probes).

use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::adapter::{Bins, Data, Job, WireKind, K};
use crate::rep::Measured;
use crate::replay::{self, Replayed};
use crate::span::{self, Span};
use crate::stats::{median, Quartiles};
use crate::workload::Workload;
use crate::{adapter, probes, report};

pub struct Opts {
    pub seed: u64,
    pub quick: bool,
    pub bins: Bins,
}

/// Rounds (fresh processes, so cold set-up samples) of one driver run.
const RUN_ROUNDS: u64 = 3;
const SUITE_ROUNDS: u64 = 6;
/// Seconds one round of the suite lasts.
const SUITE_ROUND_S: u64 = 6;
/// Seconds a driver run keeps back for the per-layer pass.
const LAYER_RESERVE_S: u64 = 10;

/// One profiler phase beside the replay's layer, µs per superstep summed
/// over the workers.
pub struct PhaseRow {
    pub phase: &'static str,
    pub profiler_us: f64,
    pub replay_us: Option<f64>,
}

/// An end-to-end metric: the value reported, and the samples behind it.
pub struct Stat {
    pub value: f64,
    pub samples: Quartiles,
}

impl Stat {
    fn median(samples: &[f64]) -> Stat {
        let samples = Quartiles::of(samples);
        Stat {
            value: samples.median,
            samples,
        }
    }
}

pub struct WorkloadResult {
    pub name: &'static str,
    pub e2e: BTreeMap<&'static str, Stat>,
    pub layers: BTreeMap<&'static str, f64>,
    pub phases: Vec<PhaseRow>,
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// `(loss curve, model)` hashes at the run's seed.
    pub hashes: BTreeSet<(String, String)>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.checks.iter().all(|c| c.1)
    }
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn text(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string()
}

fn numbers(v: &Value, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Runs one round as a child process and parses its JSON line. The child
/// is waited for: nothing outlives this call.
fn spawn_rep(
    wl: &Workload,
    seed: u64,
    measured: Measured,
    opts: &Opts,
    traced: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["rep", wl.name, "--seed", &seed.to_string()])
        .args(measured.to_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    if traced {
        // Worker processes inherit the profiler switch through this.
        cmd.arg("--traced").env(adapter::PROFILE_ENV, "1");
    }
    let out = cmd.output().map_err(|e| format!("spawn rep: {e}"))?;
    if !out.status.success() {
        return Err(format!("rep {} exited with {}", wl.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("rep {} printed no JSON: {e}", wl.name))
}

/// What the rounds of one workload add up to.
#[derive(Default)]
struct Acc {
    setup_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    step_ms: Vec<f64>,
    bytes_per_step: Vec<f64>,
    hashes: BTreeSet<(String, String)>,
    consistent: bool,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    first: Option<Value>,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            consistent: true,
            ..Acc::default()
        }
    }

    fn absorb(&mut self, rep: Result<Value, String>, wl: &Workload, opts: &Opts) {
        match rep {
            Ok(v) => {
                self.setup_s.push(num(&v, "setup_s"));
                self.peak_rss_mb.push(num(&v, "peak_rss_mb"));
                self.step_ms.extend(numbers(&v, "step_ms"));
                self.bytes_per_step.push(num(&v, "bytes_per_step"));
                self.hashes
                    .insert((text(&v, "loss_hash"), text(&v, "model_hash")));
                self.consistent &= v.get("consistent").and_then(Value::as_bool) == Some(true);
                self.attempted += num(&v, "attempted_steps") as u64;
                self.failed += num(&v, "failed_steps") as u64;
                if let Some(errs) = v.get("errors").and_then(Value::as_array) {
                    self.errors
                        .extend(errs.iter().filter_map(Value::as_str).map(String::from));
                }
                self.first.get_or_insert(v);
            }
            // A round that died is failed work, never a fast one.
            Err(e) => {
                let steps = wl.job(opts.seed, opts.quick).iters;
                self.attempted += steps;
                self.failed += steps;
                self.errors.push(e);
            }
        }
    }
}

/// Every workload, rounds interleaved so that slow machine drift lands on
/// all of them, then the per-layer pass of each.
pub fn suite(workloads: &[Workload], opts: &Opts) -> Result<Vec<WorkloadResult>, String> {
    let (rounds, measured) = if opts.quick {
        (1, Measured::Count(2))
    } else {
        (SUITE_ROUNDS, Measured::UntilS(SUITE_ROUND_S))
    };
    let mut accs: Vec<Acc> = workloads.iter().map(|_| Acc::new()).collect();
    for round in 0..rounds {
        for (wl, acc) in workloads.iter().zip(&mut accs) {
            eprintln!("round {}/{rounds}: {}", round + 1, wl.name);
            acc.absorb(spawn_rep(wl, opts.seed, measured, opts, false), wl, opts);
        }
    }
    let mut results = Vec::new();
    for (wl, acc) in workloads.iter().zip(accs) {
        results.push(finish(wl, opts, acc, true)?);
    }
    // The trained bits must not depend on the transport.
    let hashes = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.hashes.clone())
    };
    if let (Some(a), Some(b)) = (hashes("lr_inproc"), hashes("lr_tcp")) {
        let same = a == b && a.len() == 1;
        for r in results.iter_mut().filter(|r| r.name.starts_with("lr_")) {
            r.checks
                .push(("lr_inproc and lr_tcp bit-identical".to_string(), same));
        }
    }
    Ok(results)
}

/// One workload on its own (a driver run): `seconds` of rounds, then,
/// with `trace`, the per-layer pass, for which some of the time is kept.
pub fn workload(
    wl: &Workload,
    opts: &Opts,
    seconds: u64,
    trace: bool,
) -> Result<WorkloadResult, String> {
    let reserve = if trace { LAYER_RESERVE_S } else { 0 };
    let rounds = if trace { 1 } else { RUN_ROUNDS };
    let per_round = (seconds.saturating_sub(reserve) / rounds).max(1);
    let mut acc = Acc::new();
    for _ in 0..rounds {
        acc.absorb(
            spawn_rep(wl, opts.seed, Measured::UntilS(per_round), opts, false),
            wl,
            opts,
        );
    }
    finish(wl, opts, acc, trace)
}

/// Steps to the pinned target, measured on the pinned seed.
struct Convergence {
    steps_to_target: f64,
    recoveries: f64,
    checks: Vec<(String, bool)>,
}

/// Checks the outputs of the pinned seed against `pins.json` and finds the
/// first curve point at or below the pinned target loss.
///
/// Loss levels differ so much between generated datasets that a loss
/// target only means something on the dataset it was pinned on; so
/// convergence is always measured on the pinned seed (one extra cold
/// engine when `--seed` is another one) and speed on the run's own seed.
fn convergence(wl: &Workload, opts: &Opts, acc: &Acc) -> Result<Convergence, String> {
    let iters = wl.job(opts.seed, opts.quick).iters as f64;
    if opts.quick {
        // T is cut in smoke mode: the pinned values do not apply.
        return Ok(Convergence {
            steps_to_target: iters,
            recoveries: 0.0,
            checks: Vec::new(),
        });
    }
    let pins = report::pins()?;
    let pin_seed = num(&pins, "seed") as u64;
    let pin = pins
        .get(wl.name)
        .ok_or_else(|| format!("pins.json has no entry for {}", wl.name))?;
    let fresh;
    let rep = match &acc.first {
        Some(first) if opts.seed == pin_seed => first,
        _ => {
            fresh = spawn_rep(wl, pin_seed, Measured::Count(0), opts, false)?;
            &fresh
        }
    };
    let losses = numbers(rep, "losses");
    let target = num(pin, "target_loss");
    let reached = losses.iter().position(|&l| l <= target);
    let checks = vec![
        (
            format!("seed-{pin_seed} final_loss equals the pin"),
            losses.last().map(|l| l.to_bits()) == Some(num(pin, "final_loss").to_bits()),
        ),
        (
            format!("seed-{pin_seed} bytes_per_step equals the pin"),
            num(rep, "bytes_per_step") == num(pin, "bytes_per_step"),
        ),
        (
            format!("seed-{pin_seed} model checksum equals the pin"),
            text(rep, "model_hash") == text(pin, "model_hash"),
        ),
        (
            "target_loss reached within T".to_string(),
            reached.is_some(),
        ),
    ];
    Ok(Convergence {
        steps_to_target: reached.map_or(iters, |i| (i + 1) as f64),
        recoveries: num(rep, "recoveries"),
        checks,
    })
}

fn finish(wl: &Workload, opts: &Opts, acc: Acc, trace: bool) -> Result<WorkloadResult, String> {
    let mut result = WorkloadResult {
        name: wl.name,
        e2e: BTreeMap::new(),
        layers: BTreeMap::new(),
        phases: Vec::new(),
        checks: Vec::new(),
        attempted: acc.attempted.max(1),
        failed: acc.failed,
        errors: acc.errors.clone(),
        hashes: acc.hashes.clone(),
    };
    if acc.step_ms.is_empty() {
        result.errors.push("no round completed".to_string());
        return Ok(result);
    }
    let conv = convergence(wl, opts, &acc)?;
    result.checks.push((
        "every engine of every round trained the same bits".to_string(),
        acc.consistent && acc.hashes.len() == 1,
    ));
    result.checks.extend(conv.checks);

    let to_target: Vec<f64> = acc
        .step_ms
        .iter()
        .map(|ms| ms / 1e3 * conv.steps_to_target)
        .collect();
    result.e2e.insert("setup_s", Stat::median(&acc.setup_s));
    result
        .e2e
        .insert("step_wall_ms", Stat::median(&acc.step_ms));
    result
        .e2e
        .insert("time_to_target_s", Stat::median(&to_target));
    let bytes = Stat::median(&acc.bytes_per_step);
    result.checks.push((
        "bytes_per_step is the same in every round".to_string(),
        bytes.samples.q1 == bytes.samples.q3,
    ));
    result.e2e.insert("bytes_per_step", bytes);
    // A peak is a maximum: whether the largest frames are in flight at the
    // reading differs from round to round, and the largest reading is the
    // peak. (The median of a two-humped sample jumps between the humps.)
    result.e2e.insert(
        "peak_rss_mb",
        Stat {
            value: acc.peak_rss_mb.iter().copied().fold(0.0, f64::max),
            samples: Quartiles::of(&acc.peak_rss_mb),
        },
    );

    if trace {
        let first = acc.first.as_ref().expect("a round completed");
        let l = &mut result.layers;
        l.insert("data.transform_objects", num(first, "load_objects"));
        l.insert("data.transform_bytes", num(first, "load_bytes"));
        l.insert("cluster.msgs_per_step", num(first, "msgs_per_step"));
        l.insert("core.steps_to_target", conv.steps_to_target);
        l.insert("core.recoveries", conv.recoveries);
        let step_wall_ms = median(&acc.step_ms);
        layer_pass(wl, opts, step_wall_ms, &mut result)?;
    }
    Ok(result)
}

/// Sum of the durations of the spans called `name`, µs per superstep;
/// `None` when the replay has no such span.
fn per_step_us(spans: &[Span], name: &str, steps: f64) -> Option<f64> {
    let ns = span::durations_ns(spans, name);
    (!ns.is_empty()).then(|| ns.iter().fold(0.0, |a, b| a + b) / 1e3 / steps)
}

fn median_us(spans: &[Span], name: &str) -> f64 {
    median(&span::durations_ns(spans, name)) / 1e3
}

/// The traced round, the traced replay and the probes of one workload.
fn layer_pass(
    wl: &Workload,
    opts: &Opts,
    step_wall_ms: f64,
    result: &mut WorkloadResult,
) -> Result<(), String> {
    // 1. One extra round with the recorder and the profiler on.
    let measured = Measured::Count(if opts.quick { 1 } else { 4 });
    let traced = spawn_rep(wl, opts.seed, measured, opts, true)?;
    let traced_ms = median(&numbers(&traced, "step_ms"));
    result
        .layers
        .insert("telemetry.traced_step_wall_ms", traced_ms);
    result
        .layers
        .insert("telemetry.trace_overhead_ratio", traced_ms / step_wall_ms);

    // 2. The replay. The MLlib workload runs no ColumnSGD layer, so its
    // layer numbers come from the LR job on the same data and its critical
    // path from the wire legs of its own frames.
    let job = wl.replay_job(opts.seed, opts.quick);
    let col_job = Job { row: false, ..job };
    let data = Data::generate(opts.seed);
    let (transform_ms, blocks, worksets) = probes::transform(&data, &col_job);
    let Replayed {
        trace,
        batch_nnz,
        replica,
        identical,
    } = replay::column(&col_job, &data, &opts.bins, blocks, worksets)?;
    result
        .checks
        .push(("replay bit-identical to the engine".to_string(), identical));
    let spans = &trace.spans;
    let gather_ns = span::durations_ns(spans, replay::GATHER);
    let per_nnz: Vec<f64> = gather_ns
        .iter()
        .zip(&batch_nnz)
        .map(|(ns, nnz)| ns / nnz)
        .collect();
    let l = &mut result.layers;
    l.insert("data.transform_ms", transform_ms);
    l.insert(replay::SAMPLE, median_us(spans, replay::SAMPLE));
    l.insert("data.batch_nnz", median(&batch_nnz));
    l.insert("linalg.batch_gather_ns_per_nnz", median(&per_nnz));
    l.insert(replay::STATS, median_us(spans, replay::STATS));
    l.insert(replay::UPDATE, median_us(spans, replay::UPDATE));
    l.insert(replay::REDUCE, median_us(spans, replay::REDUCE));
    l.insert(replay::LOSS, median_us(spans, replay::LOSS));
    let mut replica = replica.expect("the column replay keeps its replica");
    l.insert(
        "linalg.partial_dots_ns_per_nnz",
        probes::partial_dots_ns_per_nnz(&mut replica, col_job.iters),
    );
    drop(replica);

    let wire = job.row.then(|| replay::row_wire(&job));
    if let Some(w) = &wire {
        result.checks.push((
            "wire replay decodes what it encoded".to_string(),
            w.identical,
        ));
    }
    let path_trace = wire.as_ref().map_or(&trace, |w| &w.trace);
    let paths = span::critical_paths(&path_trace.spans);
    let critical: Vec<f64> = paths.iter().map(|p| p.critical_ns as f64 / 1e6).collect();
    let skew: Vec<f64> = paths.iter().map(|p| p.skew_ns as f64 / 1e3).collect();
    let critical_ms = median(&critical);
    let l = &mut result.layers;
    l.insert("core.layers_critical_ms", critical_ms);
    l.insert("core.engine_residual_ms", step_wall_ms - critical_ms);
    l.insert(
        "core.engine_residual_share",
        (step_wall_ms - critical_ms) / step_wall_ms,
    );
    l.insert("core.barrier_skew_us", median(&skew));
    report::write_trace(wl.name, path_trace)?;

    // 3. The in-program profiler of the traced round beside the replay.
    let steps = path_trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .count() as f64;
    let codec_us = |encode: bool| {
        let legs: Vec<f64> = WireKind::ALL
            .iter()
            .filter_map(|&k| {
                let name = if encode {
                    replay::encode_span(k)
                } else {
                    replay::decode_span(k)
                };
                per_step_us(&path_trace.spans, name, steps)
            })
            .collect();
        (!legs.is_empty()).then(|| legs.iter().fold(0.0, |a, b| a + b))
    };
    let col_steps = col_job.iters as f64;
    // The MLlib workload runs no ColumnSGD kernel: only its wire compares.
    let kernel_us = |name: &str| per_step_us(spans, name, col_steps).filter(|_| !job.row);
    for (phase, replay_us) in [
        ("batch_sample", kernel_us(replay::SAMPLE)),
        ("kernel_stats", kernel_us(replay::STATS)),
        ("kernel_update", kernel_us(replay::UPDATE)),
        ("codec_encode", codec_us(true)),
        ("codec_decode", codec_us(false)),
        ("hub_switch", None),
    ] {
        // A phase the run never entered has no line: zero seconds.
        let wall_s = traced
            .get("profile_phase_s")
            .and_then(|p| p.get(phase))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        result.phases.push(PhaseRow {
            phase,
            profiler_us: wall_s * 1e6 / wl.job(opts.seed, opts.quick).iters as f64,
            replay_us,
        });
    }

    // 4. Probes of the wire and hop layers at this workload's frame size.
    let model = job.model;
    let main_kind = if job.row {
        WireKind::FullModelGrad
    } else {
        WireKind::StatsReply
    };
    for kind in WireKind::ALL {
        let (enc, dec, bytes) = probes::codec(kind, model);
        let l = &mut result.layers;
        l.insert(replay::encode_span(kind), enc);
        l.insert(replay::decode_span(kind), dec);
        if kind == main_kind {
            l.insert("cluster.codec_encode_ns_per_byte", enc * 1e3 / bytes as f64);
            l.insert("cluster.codec_decode_ns_per_byte", dec * 1e3 / bytes as f64);
        }
    }
    let hops = probes::hops(probes::payload_scalars(main_kind, model))?;
    let l = &mut result.layers;
    l.insert(replay::FRAME_IO, probes::frame_io(main_kind, model));
    l.insert("cluster.hop_rtt_us.channel", hops.channel_us);
    l.insert("cluster.hop_rtt_us.tcp", hops.tcp_us);
    l.insert("cluster.hop_rtt_us.tcp_switched", hops.tcp_switched_us);
    l.insert("cluster.tcp_mb_per_s", hops.tcp_mb_per_s);

    // 5. Exact byte counts where wall-clock scaling cannot be measured.
    let l = &mut result.layers;
    for (name, k) in [
        ("cluster.bytes_per_step_k4", 4),
        ("cluster.bytes_per_step_k8", 8),
    ] {
        l.insert(
            name,
            probes::lr_bytes_per_step(&data, k, opts.seed, &opts.bins)?,
        );
    }
    let small = Data::generate_dim(opts.seed, 1000);
    l.insert(
        "cluster.bytes_per_step_dim1e3",
        probes::lr_bytes_per_step(&small, K, opts.seed, &opts.bins)?,
    );
    Ok(())
}
