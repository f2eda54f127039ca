//! The boot line is read from stdin, so its decoder must not trust it:
//! whatever bytes arrive — raw, or after a lossy UTF-8 conversion — the
//! answer is a typed `CodecError`, never a panic, and every boot an
//! engine can write still round-trips. Checked for both worker binaries'
//! boots (`columnsgd-worker`'s `ColBoot`, `rowsgd-worker`'s
//! `RowSgdConfig`) through the envelope they share,
//! `columnsgd_cluster::host::Boot`.

use columnsgd_cluster::host::{hex_armor, Boot, BootJob};
use columnsgd_cluster::ChaosSpec;
use columnsgd_core::config::{PartitionScheme, StaleStats};
use columnsgd_core::host::ColBoot;
use columnsgd_core::worker::WorkerScript;
use columnsgd_core::ColumnSgdConfig;
use columnsgd_ml::{ModelSpec, OptimizerKind, Regularizer, UpdateParams};
use columnsgd_rowsgd::{RowSgdConfig, RowSgdVariant};
use proptest::prelude::*;

fn model(seed: u64) -> ModelSpec {
    match seed % 5 {
        0 => ModelSpec::Lr,
        1 => ModelSpec::Svm,
        2 => ModelSpec::LeastSquares,
        3 => ModelSpec::Mlr {
            classes: 2 + (seed % 9) as usize,
        },
        _ => ModelSpec::Fm {
            factors: 1 + (seed % 12) as usize,
        },
    }
}

fn update(seed: u64, x: f64) -> UpdateParams {
    UpdateParams {
        learning_rate: x,
        regularizer: match seed % 3 {
            0 => Regularizer::None,
            1 => Regularizer::L2(x / 8.0),
            _ => Regularizer::L1(x / 16.0),
        },
    }
}

fn optimizer(seed: u64, x: f64) -> OptimizerKind {
    match seed % 3 {
        0 => OptimizerKind::Sgd,
        1 => OptimizerKind::AdaGrad { eps: x * 1e-8 },
        _ => OptimizerKind::Adam {
            beta1: 0.9,
            beta2: 0.999,
            eps: x * 1e-8,
        },
    }
}

fn col_boot(seed: u64, x: f64, iterations: Vec<u64>) -> Boot<ColBoot> {
    let cfg = ColumnSgdConfig {
        model: model(seed),
        batch_size: 1 + (seed % 4096) as usize,
        iterations: seed % 100_000,
        update: update(seed / 5, x),
        optimizer: optimizer(seed / 7, x),
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        block_size: 1 + (seed % 1000) as usize,
        backup_s: (seed % 3) as usize,
        scheme: [PartitionScheme::RoundRobin, PartitionScheme::Range][(seed % 2) as usize],
        max_task_retries: seed % 9,
        deadline_ms: seed % 60_000,
        staleness: [None, Some(StaleStats::Drop), Some(StaleStats::DropRescaled)]
            [(seed % 3) as usize],
        threads_per_worker: (seed % 17) as usize,
    };
    let split = iterations.len() / 2;
    let script = WorkerScript {
        task_failures: iterations[..split].to_vec(),
        crashes: iterations[split..].to_vec(),
        chaos: seed.is_multiple_of(2).then_some(ChaosSpec {
            seed,
            drop_p: x / 4.0,
            dup_p: x / 8.0,
            delay_p: x / 16.0,
            crash_p: x / 32.0,
        }),
    };
    Boot {
        addr: format!("127.0.0.1:{}", 1024 + seed % 60_000),
        worker: (seed % 64) as usize,
        k: 1 + (seed % 64) as usize,
        dim: seed,
        job: ColBoot {
            cfg,
            script,
            traced: seed % 2 == 1,
        },
    }
}

fn row_boot(seed: u64, x: f64) -> Boot<RowSgdConfig> {
    let variant = [
        RowSgdVariant::MLlib,
        RowSgdVariant::MLlibStar,
        RowSgdVariant::PsDense,
        RowSgdVariant::PsSparse,
    ][(seed % 4) as usize];
    let mut cfg = RowSgdConfig::new(model(seed), variant)
        .with_batch_size(1 + (seed % 4096) as usize)
        .with_iterations(seed % 100_000)
        .with_seed(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .with_deadline_ms(seed % 60_000);
    cfg.update = update(seed / 5, x);
    cfg.optimizer = optimizer(seed / 7, x);
    Boot {
        addr: format!("127.0.0.1:{}", 1024 + seed % 60_000),
        worker: (seed % 64) as usize,
        k: 1 + (seed % 64) as usize,
        dim: seed,
        job: cfg,
    }
}

/// `bytes` as a boot body and as a stdin line (raw, and the way a
/// `String` reader would have mangled it): a typed error, or — should the
/// bytes happen to be a boot — one that encodes back to them.
fn decodes_or_errs<J: BootJob>(bytes: &[u8]) -> Result<(), String> {
    if let Ok(boot) = Boot::<J>::decode(bytes) {
        prop_assert_eq!(boot.encode(), bytes);
    }
    let lossy = String::from_utf8_lossy(bytes).into_owned().into_bytes();
    for line in [bytes, &lossy] {
        if let Ok(boot) = Boot::<J>::from_hex_line(line) {
            let canonical = line.trim_ascii().to_ascii_lowercase();
            prop_assert_eq!(boot.to_hex_line().into_bytes(), canonical);
        }
    }
    Ok(())
}

/// A written boot survives its trip, byte for byte, also through a line
/// as stdin delivers it; damaged, it is refused or is a different boot,
/// but the decoder does not panic.
fn round_trips_and_survives_damage<J: BootJob>(
    boot: &Boot<J>,
    at: usize,
    flip: u8,
) -> Result<(), String> {
    let bytes = boot.encode();
    let back = Boot::<J>::decode(&bytes).map_err(|e| format!("decode: {e}"))?;
    prop_assert_eq!(back.encode(), bytes.clone());
    let line = format!("  {}\r\n", boot.to_hex_line().to_ascii_uppercase());
    let back = Boot::<J>::from_hex_line(&line).map_err(|e| format!("hex line: {e}"))?;
    prop_assert_eq!(back.encode(), bytes.clone());

    let at = at % bytes.len();
    let mut flipped = bytes.clone();
    flipped[at] ^= flip;
    let mut extended = bytes.clone();
    extended.push(flip);
    prop_assert!(Boot::<J>::decode(&extended).is_err(), "trailing byte");
    prop_assert!(Boot::<J>::decode(&bytes[..at]).is_err(), "truncation");
    for damaged in [&flipped[..], &bytes[..at], &extended[..]] {
        decodes_or_errs::<J>(damaged)?;
        decodes_or_errs::<J>(hex_armor(damaged).as_bytes())?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn arbitrary_input_is_a_typed_error_never_a_panic(
        bytes in prop::collection::vec(0u8..=255, 0..160),
        hexish in prop::collection::vec(0usize..24, 0..160),
    ) {
        decodes_or_errs::<ColBoot>(&bytes)?;
        decodes_or_errs::<RowSgdConfig>(&bytes)?;
        // Mostly hex digits, so the de-armoring gets past the first pair:
        // both cases, signs, whitespace and a multi-byte character.
        let alphabet = "0123456789abcdefABCDEF+ \u{e9}";
        let line: String = hexish
            .iter()
            .filter_map(|&i| alphabet.chars().nth(i))
            .collect();
        decodes_or_errs::<ColBoot>(line.as_bytes())?;
        decodes_or_errs::<RowSgdConfig>(line.as_bytes())?;
    }

    #[test]
    fn written_boots_round_trip_and_damaged_ones_never_panic(
        seed in 0u64..u64::MAX,
        x in 0.0f64..1.0,
        iterations in prop::collection::vec(0u64..10_000, 0..8),
        at in 0usize..4096,
        flip in 1u8..=255,
    ) {
        round_trips_and_survives_damage(&col_boot(seed, x, iterations), at, flip)?;
        round_trips_and_survives_damage(&row_boot(seed, x), at, flip)?;
    }
}
