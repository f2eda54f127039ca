//! The ColumnSGD boot codec: what a `columnsgd-worker` process is told on
//! its stdin line, beyond the envelope every worker binary shares.
//!
//! Where workers live and how they are started, respawned and stopped is
//! [`columnsgd_cluster::host`]; it also owns the envelope ([`Boot`]: hub
//! address, worker id, cluster shape, version byte, hex armor). This file
//! is the ColumnSGD job inside it — the training config, the worker's
//! failure script and the tracing flag — plus the config-enum codecs the
//! RowSGD boot reuses.

use columnsgd_cluster::Sink;
use columnsgd_cluster::{Boot, BootJob, ChaosSpec, CodecError, WireReader};
use columnsgd_ml::{ModelSpec, OptimizerKind, Regularizer, UpdateParams};

use crate::config::{ColumnSgdConfig, PartitionScheme, StaleStats};
use crate::worker::WorkerScript;

/// The ColumnSGD job of a boot line: the full (deterministic) config and
/// this worker's slice of the failure plan.
#[derive(Debug, Clone)]
pub struct ColBoot {
    /// The training configuration (identical on every node).
    pub cfg: ColumnSgdConfig,
    /// This worker's scripted-failure schedule.
    pub script: WorkerScript,
    /// Whether the master is recording a trace: when set, the worker
    /// ships its local telemetry events back over the hub connection.
    /// The worker installs a live `Recorder` either way so its
    /// NaN/divergence guards still fire (the events just stay local).
    pub traced: bool,
}

/// Everything a `columnsgd-worker` process needs to join a training run.
pub type BootSpec = Boot<ColBoot>;

/// Encodes a [`ModelSpec`] (tag + payload, variant-declaration order).
pub fn put_model(out: &mut Vec<u8>, m: &ModelSpec) {
    match m {
        ModelSpec::Lr => out.put_u8(0),
        ModelSpec::Svm => out.put_u8(1),
        ModelSpec::LeastSquares => out.put_u8(2),
        ModelSpec::Mlr { classes } => {
            out.put_u8(3);
            out.put_usize(*classes);
        }
        ModelSpec::Fm { factors } => {
            out.put_u8(4);
            out.put_usize(*factors);
        }
    }
}

/// Decodes a [`ModelSpec`] written by [`put_model`].
pub fn read_model(r: &mut WireReader<'_>) -> Result<ModelSpec, CodecError> {
    Ok(match r.u8("model tag")? {
        0 => ModelSpec::Lr,
        1 => ModelSpec::Svm,
        2 => ModelSpec::LeastSquares,
        3 => ModelSpec::Mlr {
            classes: r.usize("mlr classes")?,
        },
        4 => ModelSpec::Fm {
            factors: r.usize("fm factors")?,
        },
        t => return Err(CodecError::Malformed(format!("unknown model tag {t}"))),
    })
}

/// Encodes an [`OptimizerKind`] (tag + payload).
pub fn put_optimizer(out: &mut Vec<u8>, o: &OptimizerKind) {
    match o {
        OptimizerKind::Sgd => out.put_u8(0),
        OptimizerKind::AdaGrad { eps } => {
            out.put_u8(1);
            out.put_f64(*eps);
        }
        OptimizerKind::Adam { beta1, beta2, eps } => {
            out.put_u8(2);
            out.put_f64(*beta1);
            out.put_f64(*beta2);
            out.put_f64(*eps);
        }
    }
}

/// Decodes an [`OptimizerKind`] written by [`put_optimizer`].
pub fn read_optimizer(r: &mut WireReader<'_>) -> Result<OptimizerKind, CodecError> {
    Ok(match r.u8("optimizer tag")? {
        0 => OptimizerKind::Sgd,
        1 => OptimizerKind::AdaGrad {
            eps: r.f64("adagrad eps")?,
        },
        2 => OptimizerKind::Adam {
            beta1: r.f64("adam beta1")?,
            beta2: r.f64("adam beta2")?,
            eps: r.f64("adam eps")?,
        },
        t => return Err(CodecError::Malformed(format!("unknown optimizer tag {t}"))),
    })
}

/// Encodes a [`Regularizer`] (tag + payload).
pub fn put_regularizer(out: &mut Vec<u8>, reg: &Regularizer) {
    match reg {
        Regularizer::None => out.put_u8(0),
        Regularizer::L2(l) => {
            out.put_u8(1);
            out.put_f64(*l);
        }
        Regularizer::L1(l) => {
            out.put_u8(2);
            out.put_f64(*l);
        }
    }
}

/// Decodes a [`Regularizer`] written by [`put_regularizer`].
pub fn read_regularizer(r: &mut WireReader<'_>) -> Result<Regularizer, CodecError> {
    Ok(match r.u8("regularizer tag")? {
        0 => Regularizer::None,
        1 => Regularizer::L2(r.f64("l2 lambda")?),
        2 => Regularizer::L1(r.f64("l1 lambda")?),
        t => {
            return Err(CodecError::Malformed(format!(
                "unknown regularizer tag {t}"
            )))
        }
    })
}

/// Encodes an optional [`ChaosSpec`] (presence tag + fields).
pub fn put_chaos(out: &mut Vec<u8>, c: &Option<ChaosSpec>) {
    match c {
        None => out.put_u8(0),
        Some(c) => {
            out.put_u8(1);
            out.put_u64(c.seed);
            out.put_f64(c.drop_p);
            out.put_f64(c.dup_p);
            out.put_f64(c.delay_p);
            out.put_f64(c.crash_p);
        }
    }
}

/// Decodes an optional [`ChaosSpec`] written by [`put_chaos`].
pub fn read_chaos(r: &mut WireReader<'_>) -> Result<Option<ChaosSpec>, CodecError> {
    Ok(match r.u8("chaos tag")? {
        0 => None,
        1 => Some(ChaosSpec {
            seed: r.u64("chaos seed")?,
            drop_p: r.f64("chaos drop_p")?,
            dup_p: r.f64("chaos dup_p")?,
            delay_p: r.f64("chaos delay_p")?,
            crash_p: r.f64("chaos crash_p")?,
        }),
        t => return Err(CodecError::Malformed(format!("unknown chaos tag {t}"))),
    })
}

impl BootJob for ColBoot {
    const VERSION: u8 = 2;

    /// Field order is the struct declaration order; enums are `u8` tags
    /// in variant order.
    fn put(&self, out: &mut Vec<u8>) {
        let cfg = &self.cfg;
        put_model(out, &cfg.model);
        out.put_usize(cfg.batch_size);
        out.put_u64(cfg.iterations);
        out.put_f64(cfg.update.learning_rate);
        put_regularizer(out, &cfg.update.regularizer);
        put_optimizer(out, &cfg.optimizer);
        out.put_u64(cfg.seed);
        out.put_usize(cfg.block_size);
        out.put_usize(cfg.backup_s);
        out.put_u8(match cfg.scheme {
            PartitionScheme::RoundRobin => 0,
            PartitionScheme::Range => 1,
        });
        out.put_u64(cfg.max_task_retries);
        out.put_u64(cfg.deadline_ms);
        out.put_u8(match cfg.staleness {
            None => 0,
            Some(StaleStats::Drop) => 1,
            Some(StaleStats::DropRescaled) => 2,
        });
        out.put_usize(cfg.threads_per_worker);
        out.put_u64s(&self.script.task_failures);
        out.put_u64s(&self.script.crashes);
        put_chaos(out, &self.script.chaos);
        out.put_bool(self.traced);
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let cfg = ColumnSgdConfig {
            model: read_model(r)?,
            batch_size: r.usize("batch_size")?,
            iterations: r.u64("iterations")?,
            update: UpdateParams {
                learning_rate: r.f64("learning_rate")?,
                regularizer: read_regularizer(r)?,
            },
            optimizer: read_optimizer(r)?,
            seed: r.u64("seed")?,
            block_size: r.usize("block_size")?,
            backup_s: r.usize("backup_s")?,
            scheme: match r.u8("scheme tag")? {
                0 => PartitionScheme::RoundRobin,
                1 => PartitionScheme::Range,
                t => return Err(CodecError::Malformed(format!("unknown scheme tag {t}"))),
            },
            max_task_retries: r.u64("max_task_retries")?,
            deadline_ms: r.u64("deadline_ms")?,
            staleness: match r.u8("staleness tag")? {
                0 => None,
                1 => Some(StaleStats::Drop),
                2 => Some(StaleStats::DropRescaled),
                t => return Err(CodecError::Malformed(format!("unknown staleness tag {t}"))),
            },
            threads_per_worker: r.usize("threads_per_worker")?,
        };
        let script = WorkerScript {
            task_failures: r.u64s("task_failures")?,
            crashes: r.u64s("crashes")?,
            chaos: read_chaos(r)?,
        };
        Ok(ColBoot {
            cfg,
            script,
            traced: r.bool("traced")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_cluster::{FailureEvent, FailurePlan};

    fn full_cfg() -> ColumnSgdConfig {
        ColumnSgdConfig {
            model: ModelSpec::Mlr { classes: 5 },
            batch_size: 37,
            iterations: 11,
            update: UpdateParams {
                learning_rate: 0.125,
                regularizer: Regularizer::L2(0.03125),
            },
            optimizer: OptimizerKind::Adam {
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
            },
            seed: 0xDEAD_BEEF,
            block_size: 64,
            backup_s: 1,
            scheme: PartitionScheme::Range,
            max_task_retries: 3,
            deadline_ms: 1500,
            staleness: Some(StaleStats::DropRescaled),
            threads_per_worker: 2,
        }
    }

    #[test]
    fn bootstrap_roundtrips_through_the_hex_line() {
        let plan = FailurePlan {
            straggler: None,
            events: vec![
                FailureEvent::TaskFailure {
                    iteration: 2,
                    worker: 1,
                },
                FailureEvent::WorkerFailure {
                    iteration: 4,
                    worker: 1,
                },
            ],
            chaos: Some(ChaosSpec {
                seed: 7,
                drop_p: 0.1,
                dup_p: 0.0,
                delay_p: 0.25,
                crash_p: 0.0,
            }),
        };
        let boot = BootSpec {
            addr: "127.0.0.1:45123".into(),
            worker: 1,
            k: 4,
            dim: 1000,
            job: ColBoot {
                cfg: full_cfg(),
                script: WorkerScript::from_plan(&plan, 1),
                traced: true,
            },
        };
        let back = BootSpec::from_hex_line(boot.to_hex_line()).expect("roundtrip");
        assert_eq!(back.addr, boot.addr);
        assert_eq!(back.worker, 1);
        assert_eq!(back.k, 4);
        assert_eq!(back.dim, 1000);
        assert_eq!(back.job.cfg, boot.job.cfg);
        assert_eq!(back.job.script.task_failures, vec![2]);
        assert_eq!(back.job.script.crashes, vec![4]);
        assert_eq!(back.job.script.chaos, plan.chaos);
        assert!(back.job.traced);
    }

    #[test]
    fn bootstrap_rejects_corruption() {
        let boot = BootSpec {
            addr: "127.0.0.1:1".into(),
            worker: 0,
            k: 1,
            dim: 4,
            job: ColBoot {
                cfg: ColumnSgdConfig::new(ModelSpec::Lr),
                script: WorkerScript::default(),
                traced: false,
            },
        };
        let mut line = boot.to_hex_line();
        line.pop();
        assert!(BootSpec::from_hex_line(&line).is_err());
        assert!(BootSpec::from_hex_line("zz00").is_err());
        // Regression: the decoder used to slice the line as a `&str` by
        // byte offset, a panic when a multi-byte character straddles a pair.
        assert!(BootSpec::from_hex_line("a\u{e9}b").is_err());
        let mut bytes = boot.encode();
        bytes[0] = 99; // bad version
        assert!(BootSpec::decode(&bytes).is_err());
        bytes[0] = ColBoot::VERSION;
        bytes.push(0); // trailing garbage
        assert!(BootSpec::decode(&bytes).is_err());
    }
}
