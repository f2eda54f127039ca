//! The RowSGD boot codec: the job a `rowsgd-worker` process is told on its
//! stdin line — the baseline's training config — inside the envelope and
//! hex armor every worker binary shares ([`columnsgd_cluster::host`]).
//! The config-enum codecs are ColumnSGD's.

use columnsgd_cluster::Sink;
use columnsgd_cluster::{Boot, BootJob, CodecError, WireReader};
use columnsgd_core::host::{
    put_model, put_optimizer, put_regularizer, read_model, read_optimizer, read_regularizer,
};
use columnsgd_ml::UpdateParams;

use crate::config::{RowSgdConfig, RowSgdVariant};

/// Everything a `rowsgd-worker` process needs to join the run; the job is
/// the training configuration (identical on every node).
pub type RowBootSpec = Boot<RowSgdConfig>;

fn put_variant(out: &mut Vec<u8>, v: RowSgdVariant) {
    out.put_u8(match v {
        RowSgdVariant::MLlib => 0,
        RowSgdVariant::MLlibStar => 1,
        RowSgdVariant::PsDense => 2,
        RowSgdVariant::PsSparse => 3,
    });
}

fn read_variant(r: &mut WireReader<'_>) -> Result<RowSgdVariant, CodecError> {
    Ok(match r.u8("variant tag")? {
        0 => RowSgdVariant::MLlib,
        1 => RowSgdVariant::MLlibStar,
        2 => RowSgdVariant::PsDense,
        3 => RowSgdVariant::PsSparse,
        t => return Err(CodecError::Malformed(format!("unknown variant tag {t}"))),
    })
}

impl BootJob for RowSgdConfig {
    const VERSION: u8 = 2;

    /// Fields in declaration order.
    fn put(&self, out: &mut Vec<u8>) {
        put_model(out, &self.model);
        out.put_usize(self.batch_size);
        out.put_u64(self.iterations);
        out.put_f64(self.update.learning_rate);
        put_regularizer(out, &self.update.regularizer);
        put_optimizer(out, &self.optimizer);
        out.put_u64(self.seed);
        put_variant(out, self.variant);
        out.put_u64(self.deadline_ms);
    }

    fn read(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(RowSgdConfig {
            model: read_model(r)?,
            batch_size: r.usize("batch_size")?,
            iterations: r.u64("iterations")?,
            update: UpdateParams {
                learning_rate: r.f64("learning_rate")?,
                regularizer: read_regularizer(r)?,
            },
            optimizer: read_optimizer(r)?,
            seed: r.u64("seed")?,
            variant: read_variant(r)?,
            deadline_ms: r.u64("deadline_ms")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_ml::{ModelSpec, OptimizerKind, Regularizer};

    #[test]
    fn bootstrap_roundtrips_through_the_hex_line() {
        let mut cfg = RowSgdConfig::new(ModelSpec::Mlr { classes: 3 }, RowSgdVariant::PsSparse)
            .with_batch_size(64)
            .with_iterations(12)
            .with_learning_rate(0.05)
            .with_seed(77)
            .with_deadline_ms(1234);
        cfg.update.regularizer = Regularizer::L2(0.01);
        cfg.optimizer = OptimizerKind::AdaGrad { eps: 1e-8 };
        let boot = RowBootSpec {
            addr: "127.0.0.1:40123".to_string(),
            worker: 1,
            k: 4,
            dim: 100,
            job: cfg,
        };
        let back = RowBootSpec::from_hex_line(boot.to_hex_line()).expect("roundtrip");
        assert_eq!(back.addr, boot.addr);
        assert_eq!(back.worker, boot.worker);
        assert_eq!(back.k, boot.k);
        assert_eq!(back.dim, boot.dim);
        assert_eq!(back.job, boot.job);
    }

    #[test]
    fn bootstrap_rejects_corruption() {
        let boot = RowBootSpec {
            addr: "127.0.0.1:1".to_string(),
            worker: 0,
            k: 1,
            dim: 4,
            job: RowSgdConfig::new(ModelSpec::Lr, RowSgdVariant::MLlib),
        };
        let line = boot.to_hex_line();
        assert!(RowBootSpec::from_hex_line(&line[..line.len() - 1]).is_err());
        assert!(RowBootSpec::from_hex_line("zz").is_err());
        let mut bad = line.clone();
        bad.replace_range(0..2, "07");
        assert!(RowBootSpec::from_hex_line(&bad).is_err());
        assert!(RowBootSpec::from_hex_line(format!("{line}00")).is_err());
    }
}
