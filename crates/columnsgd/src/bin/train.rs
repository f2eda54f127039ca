//! `columnsgd-train` — train a model on a LIBSVM file with ColumnSGD or
//! one of the RowSGD baselines it is compared against, driven and
//! observed the same way.
//!
//! ```text
//! columnsgd-train <file.libsvm> [options]
//!
//!   --system columnsgd|mllib|mllib*|petuum|mxnet
//!                                        system to train with    [columnsgd]
//!                                        (also mllibstar, ps-dense,
//!                                        ps-sparse)
//!   --model lr|svm|lsq|fm:<F>|mlr:<C>   model to train          [lr]
//!   --workers K                          simulated workers       [4]
//!   --batch B                            mini-batch size         [1000]
//!   --iters T                            iterations              [200]
//!   --eta E                              learning rate           [0.1]
//!   --optimizer sgd|adagrad|adam         SGD variant             [sgd]
//!   --l2 LAMBDA                          L2 regularization       [0]
//!   --seed S                             experiment seed         [42]
//!   --transport inproc|tcp               transport backend       [inproc]
//!   --worker-bin PATH                    worker binary (tcp) [the
//!                                        system's columnsgd-worker or
//!                                        rowsgd-worker, next to this one]
//!   --model-out PATH                     write weights as text
//!   --trace-out PATH                     write telemetry JSONL trace
//!   --metrics-out PATH                   stream monitor snapshots (JSONL)
//!   --profile                            phase profiler on (prof events
//!                                        land in the trace; see
//!                                        `columnsgd-inspect flame`)
//!   --metrics-addr ADDR                  serve Prometheus text metrics at
//!                                        http://ADDR/metrics (e.g.
//!                                        127.0.0.1:9184)
//!   --metrics-snapshot PATH              write the final Prometheus text
//!                                        exposition to PATH
//!
//! Elastic membership (ColumnSGD only; with a RowSGD system any of these
//! is a usage error):
//!
//!   --elastic                            workers may join, leave, crash
//!   --elastic-initial N                  start with N of K slots    [K]
//!   --join T:W / --leave T:W / --crash T:W
//!                                        schedule worker W to join /
//!                                        gracefully leave / crash at
//!                                        iteration T (repeatable)
//!   --replicate                          keep one warm backup per shard
//!   --speculate                          duplicate a straggling task on
//!                                        its backup (implies --replicate)
//! ```
//!
//! Example:
//!
//! ```text
//! columnsgd-train data/a9a --model svm --workers 8 --iters 500 --eta 0.5
//! columnsgd-train data/a9a --system mxnet --workers 8 --iters 500
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::exit;

use columnsgd::cluster::telemetry::{profile, MetricsRegistry};
use columnsgd::cluster::Recorder;
use columnsgd::data::libsvm;
use columnsgd::ml::serial;
use columnsgd::prelude::*;

/// The system a run trains with.
#[derive(Clone, Copy)]
enum System {
    ColumnSgd,
    Row(RowSgdVariant),
}

struct Args {
    path: String,
    system: System,
    model: ModelSpec,
    workers: usize,
    batch: usize,
    iters: u64,
    eta: f64,
    optimizer: OptimizerKind,
    l2: f64,
    seed: u64,
    cluster: ClusterConfig,
    model_out: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    profile: bool,
    metrics_addr: Option<String>,
    metrics_snapshot: Option<String>,
    elastic: bool,
    elastic_initial: Option<usize>,
    schedule: Vec<ElasticEvent>,
    replicate: bool,
    speculate: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: columnsgd-train <file.libsvm> \
         [--system columnsgd|mllib|mllib*|petuum|mxnet] [--model lr|svm|lsq|fm:<F>|mlr:<C>] \
         [--workers K] [--batch B] [--iters T] [--eta E] \
         [--optimizer sgd|adagrad|adam] [--l2 LAMBDA] [--seed S] \
         [--transport inproc|tcp] [--worker-bin PATH] [--model-out PATH] \
         [--trace-out PATH] [--metrics-out PATH] [--profile] \
         [--metrics-addr ADDR] [--metrics-snapshot PATH] \
         [--elastic] [--elastic-initial N] [--join T:W] [--leave T:W] [--crash T:W] \
         [--replicate] [--speculate]"
    );
    exit(2)
}

fn parse_system(s: &str) -> Option<System> {
    let variant = match s {
        "columnsgd" => return Some(System::ColumnSgd),
        "mllib" => RowSgdVariant::MLlib,
        "mllib*" | "mllibstar" => RowSgdVariant::MLlibStar,
        "petuum" | "ps-dense" => RowSgdVariant::PsDense,
        "mxnet" | "ps-sparse" => RowSgdVariant::PsSparse,
        _ => return None,
    };
    Some(System::Row(variant))
}

/// Parses an `iteration:worker` schedule entry such as `--join 10:3`.
fn parse_event(s: &str, action: ElasticAction) -> Option<ElasticEvent> {
    let (t, w) = s.split_once(':')?;
    Some(ElasticEvent {
        iteration: t.parse().ok()?,
        worker: w.parse().ok()?,
        action,
    })
}

fn parse_model(s: &str) -> Option<ModelSpec> {
    match s {
        "lr" => Some(ModelSpec::Lr),
        "svm" => Some(ModelSpec::Svm),
        "lsq" => Some(ModelSpec::LeastSquares),
        _ => {
            if let Some(f) = s.strip_prefix("fm:") {
                return f.parse().ok().map(|factors| ModelSpec::Fm { factors });
            }
            if let Some(c) = s.strip_prefix("mlr:") {
                return c.parse().ok().map(|classes| ModelSpec::Mlr { classes });
            }
            None
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        path: String::new(),
        system: System::ColumnSgd,
        model: ModelSpec::Lr,
        workers: 4,
        batch: 1000,
        iters: 200,
        eta: 0.1,
        optimizer: OptimizerKind::Sgd,
        l2: 0.0,
        seed: 42,
        cluster: ClusterConfig::in_proc(),
        model_out: None,
        trace_out: None,
        metrics_out: None,
        profile: false,
        metrics_addr: None,
        metrics_snapshot: None,
        elastic: false,
        elastic_initial: None,
        schedule: Vec::new(),
        replicate: false,
        speculate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--system" => {
                let v = value("--system");
                args.system = parse_system(&v).unwrap_or_else(|| usage());
            }
            "--model" => {
                let v = value("--model");
                args.model = parse_model(&v).unwrap_or_else(|| usage());
            }
            "--workers" => args.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = value("--batch").parse().unwrap_or_else(|_| usage()),
            "--iters" => args.iters = value("--iters").parse().unwrap_or_else(|_| usage()),
            "--eta" => args.eta = value("--eta").parse().unwrap_or_else(|_| usage()),
            "--optimizer" => {
                args.optimizer = match value("--optimizer").as_str() {
                    "sgd" => OptimizerKind::Sgd,
                    "adagrad" => OptimizerKind::adagrad(),
                    "adam" => OptimizerKind::adam(),
                    _ => usage(),
                }
            }
            "--l2" => args.l2 = value("--l2").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--transport" => {
                args.cluster.transport = TransportKind::parse(&value("--transport"))
                    .unwrap_or_else(|e| {
                        eprintln!("{e}");
                        usage()
                    });
            }
            "--worker-bin" => {
                args.cluster.worker_bin = Some(value("--worker-bin").into());
            }
            "--model-out" => args.model_out = Some(value("--model-out")),
            "--trace-out" => args.trace_out = Some(value("--trace-out")),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")),
            "--profile" => args.profile = true,
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")),
            "--metrics-snapshot" => args.metrics_snapshot = Some(value("--metrics-snapshot")),
            "--elastic" => args.elastic = true,
            "--elastic-initial" => {
                args.elastic_initial = Some(
                    value("--elastic-initial")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                );
            }
            "--join" => {
                let ev =
                    parse_event(&value("--join"), ElasticAction::Join).unwrap_or_else(|| usage());
                args.schedule.push(ev);
            }
            "--leave" => {
                let ev =
                    parse_event(&value("--leave"), ElasticAction::Leave).unwrap_or_else(|| usage());
                args.schedule.push(ev);
            }
            "--crash" => {
                let ev =
                    parse_event(&value("--crash"), ElasticAction::Crash).unwrap_or_else(|| usage());
                args.schedule.push(ev);
            }
            "--replicate" => args.replicate = true,
            "--speculate" => args.speculate = true,
            "--help" | "-h" => usage(),
            other if args.path.is_empty() && !other.starts_with('-') => {
                args.path = other.to_string();
            }
            _ => usage(),
        }
    }
    if args.path.is_empty() {
        usage();
    }
    if let System::Row(variant) = args.system {
        if args.elastic() {
            eprintln!(
                "elastic membership is ColumnSGD's; {} has none",
                variant.label()
            );
            usage();
        }
    }
    args
}

impl Args {
    /// Whether elastic membership is asked for: any elastic option
    /// implies it.
    fn elastic(&self) -> bool {
        self.elastic
            || self.elastic_initial.is_some()
            || !self.schedule.is_empty()
            || self.replicate
            || self.speculate
    }
}

/// Unwraps `result`, or reports `what` failed with the error's advice and
/// exits with its code.
fn or_exit<T>(what: &str, result: Result<T, TrainError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{what} failed: {e}");
        eprintln!("hint: {}", e.advice());
        exit(e.exit_code())
    })
}

fn main() {
    let args = parse_args();

    let file = File::open(&args.path).unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", args.path);
        exit(1)
    });
    let reader = BufReader::new(file);
    let dataset = match args.model {
        ModelSpec::Mlr { .. } => libsvm::read_multiclass(reader),
        _ => libsvm::read_binary(reader),
    }
    .unwrap_or_else(|e| {
        eprintln!("parse error: {e}");
        exit(1)
    });
    if dataset.is_empty() {
        eprintln!("{} contains no examples", args.path);
        exit(1);
    }
    eprintln!(
        "loaded {}: {} rows x {} features ({:.1} nnz/row)",
        args.path,
        dataset.len(),
        dataset.dimension(),
        dataset.avg_nnz()
    );

    let mut update = UpdateParams::plain(args.eta);
    if args.l2 > 0.0 {
        update.regularizer = Regularizer::L2(args.l2);
    }
    let batch = args.batch.min(dataset.len() * 4);

    if args.profile {
        // Enable the phase profiler in this process and export the opt-in
        // through the environment so spawned TCP worker processes inherit
        // it (the shared worker host calls `profile::enable_from_env`).
        profile::set_enabled(true);
        std::env::set_var(profile::PROFILE_ENV, "1");
        if args.trace_out.is_none() {
            eprintln!("note: --profile without --trace-out records samples nobody collects");
        }
    }
    let metrics = if args.metrics_addr.is_some() || args.metrics_snapshot.is_some() {
        Some(MetricsRegistry::new())
    } else {
        None
    };
    if let (Some(addr), Some(m)) = (&args.metrics_addr, &metrics) {
        match m.serve(addr) {
            Ok(bound) => eprintln!("metrics: http://{bound}/metrics"),
            Err(e) => {
                eprintln!("cannot serve metrics on {addr}: {e}");
                exit(1)
            }
        }
    }

    let recorder = if args.trace_out.is_some() {
        Recorder::new()
    } else {
        Recorder::disabled()
    };
    // Live tail: append merged events to the trace file as the run
    // progresses so `columnsgd-inspect follow` can watch it. The final
    // write_jsonl below rewrites the file once more so late-arriving
    // metadata (clock offsets, final meter totals) lands in the meta line.
    if let Some(path) = &args.trace_out {
        recorder
            .attach_trace_out(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("cannot open trace sink {path}: {e}");
                exit(1)
            });
    }
    let monitor = Monitor::new(MonitorConfig::default());
    if let Some(path) = &args.metrics_out {
        monitor
            .attach_metrics_out(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("cannot open metrics sink {path}: {e}");
                exit(1)
            });
    }

    if args.cluster.transport == TransportKind::Tcp {
        eprintln!("transport: loopback tcp, one worker process per worker");
    }
    let net = NetworkModel::CLUSTER1;
    let (outcome, model) = match args.system {
        System::ColumnSgd => {
            let mut config = ColumnSgdConfig::new(args.model)
                .with_batch_size(batch)
                .with_iterations(args.iters)
                .with_seed(args.seed);
            config.update = update;
            config.optimizer = args.optimizer;
            let engine = if args.elastic() {
                let initial = args.elastic_initial.unwrap_or(args.workers);
                let mut ecfg = ElasticConfig::new(config, args.workers, initial)
                    .with_schedule(args.schedule.clone());
                if args.replicate {
                    ecfg = ecfg.with_replication();
                }
                if args.speculate {
                    ecfg = ecfg.with_speculation();
                }
                ColumnSgdEngine::new_elastic_clustered(
                    &dataset,
                    ecfg,
                    net,
                    FailurePlan::none(),
                    recorder.clone(),
                    &args.cluster,
                )
            } else {
                ColumnSgdEngine::new_clustered(
                    &dataset,
                    args.workers,
                    config,
                    net,
                    FailurePlan::none(),
                    recorder.clone(),
                    &args.cluster,
                )
            };
            let mut engine = or_exit("engine setup", engine);
            engine.attach_monitor(monitor);
            if let Some(m) = &metrics {
                engine.attach_metrics(m.clone());
            }
            let outcome = or_exit("training", engine.train());
            (outcome, or_exit("model collection", engine.collect_model()))
        }
        System::Row(variant) => {
            let mut config = RowSgdConfig::new(args.model, variant)
                .with_batch_size(batch)
                .with_iterations(args.iters)
                .with_seed(args.seed);
            config.update = update;
            config.optimizer = args.optimizer;
            let engine = RowSgdEngine::new_clustered(
                &dataset,
                args.workers,
                config,
                net,
                recorder.clone(),
                &args.cluster,
            );
            let mut engine = or_exit("engine setup", engine);
            engine.attach_monitor(monitor);
            if let Some(m) = &metrics {
                engine.attach_metrics(m.clone());
            }
            let outcome = or_exit("training", engine.train());
            (outcome, or_exit("model collection", engine.collect_model()))
        }
    };
    if let Some(ledger) = &outcome.elastic {
        println!(
            "membership: {} events, {} shard migrations ({:.1} KiB over the wire), \
             speculation {} wins / {} losses",
            ledger.membership_log.len(),
            ledger.migrations,
            ledger.migration_bytes as f64 / 1024.0,
            ledger.speculative_wins,
            ledger.speculative_losses
        );
        for ev in &ledger.membership_log {
            println!(
                "  epoch {} worker {} {} ({} moves)",
                ev.epoch, ev.worker, ev.action, ev.moves
            );
        }
    }

    if let Some(path) = &args.metrics_out {
        eprintln!("metrics streamed to {path}");
    }
    if let (Some(path), Some(m)) = (&args.metrics_snapshot, &metrics) {
        m.snapshot_to(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("cannot write metrics snapshot {path}: {e}");
                exit(1)
            });
        eprintln!("metrics snapshot written to {path}");
    }
    if let Some(path) = &args.trace_out {
        recorder
            .write_jsonl(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("cannot write trace {path}: {e}");
                exit(1)
            });
        eprintln!("trace written to {path} (run {})", outcome.run.run_id_hex());
    }

    let rows: Vec<_> = dataset.iter().cloned().collect();
    let loss = serial::full_loss(args.model, &model, &rows);
    let acc = serial::full_accuracy(args.model, &model, &rows);
    println!(
        "trained {:?} with {} in {} iterations ({:.4} s/iter simulated on Cluster 1)",
        args.model,
        outcome.curve.label,
        args.iters,
        outcome.mean_iteration_s(args.iters as usize)
    );
    println!("train loss {loss:.6} | train accuracy {:.2}%", acc * 100.0);

    let diag = &outcome.diagnostics;
    if diag.total() > 0 || diag.halted.is_some() {
        println!(
            "diagnostics: {} alarms (straggler {}, divergence {}, nan {}, comm {}, skew {})",
            diag.total(),
            diag.straggler_alarms,
            diag.divergence_alarms,
            diag.nan_alarms,
            diag.comm_alarms,
            diag.skew_alarms
        );
        for ev in &diag.events {
            println!("  [{}] iter {} {}", ev.kind, ev.iteration, ev.detail);
        }
        if let Some(reason) = &diag.halted {
            println!("  run halted early: {reason}");
        }
    } else {
        println!("diagnostics: clean run, no detector firings");
    }

    if let Some(path) = args.model_out {
        let f = File::create(&path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            exit(1)
        });
        let mut w = BufWriter::new(f);
        for (b, block) in model.blocks.iter().enumerate() {
            for (i, v) in block.as_slice().iter().enumerate() {
                if *v != 0.0 {
                    writeln!(w, "{b} {i} {v}").expect("write model");
                }
            }
        }
        eprintln!("model written to {path}");
    }
}
