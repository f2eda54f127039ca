//! **Extension** — elastic membership: crash promotion, live scale-up /
//! scale-down with shard migration, speculative backup execution, and the
//! gauge-driven scale policy.
//!
//! The paper's cluster is static: K workers for the whole run (§V). This
//! extension runs the same training loop on the elastic engine and shows
//! the tentpole claim from three angles:
//!
//! 1. **membership changes are invisible to the trained bits** — per-
//!    partition tasks keep the master's aggregation fold the per-pid
//!    sorted sum no matter which worker owns which shard, so crash
//!    promotion, join, leave, and even a chaos soak reproduce the static
//!    engine's loss curve bit-for-bit;
//! 2. **migration is priced by construction** — shards move as metered
//!    `ShardData` messages through the same router every gradient
//!    statistic uses, so the byte meter and the telemetry trace reconcile
//!    exactly;
//! 3. **speculation collapses the straggler barrier** — under a pinned
//!    SL5 straggler the BSP barrier eats the full 5x inflation every
//!    iteration; with the monitor's alarm arming duplicates on the warm
//!    replica, the race winner caps the iteration near the straggler-free
//!    cost while the loss bits stay exactly those of the canonical cover.

use columnsgd::cluster::{ChaosSpec, FailurePlan, Monitor, MonitorConfig, NetworkModel};
use columnsgd::core::{
    ColumnSgdConfig, ColumnSgdEngine, ElasticAction, ElasticConfig, ElasticEvent, ScalePolicy,
    TrainOutcome,
};
use columnsgd::data::{Dataset, DatasetPreset};
use columnsgd::ml::ModelSpec;
use serde_json::json;

use crate::datasets;
use crate::report::Report;

const ITERS: u64 = 40;
/// Tail window for the per-iteration mean: late enough that the monitor
/// has armed speculation / the policy has replaced the straggler.
const TAIL: usize = 20;

fn cfg() -> ColumnSgdConfig {
    ColumnSgdConfig::new(ModelSpec::Lr)
        .with_batch_size(256)
        .with_iterations(ITERS)
        .with_learning_rate(0.5)
        .with_seed(87)
}

fn losses(out: &TrainOutcome) -> Vec<f64> {
    out.curve.points.iter().map(|p| p.loss).collect()
}

fn sensitive_monitor() -> Monitor {
    Monitor::new(MonitorConfig {
        straggler_window: 4,
        straggler_min_s: 1e-9,
        ..MonitorConfig::default()
    })
}

struct Row {
    scenario: &'static str,
    out: TrainOutcome,
    baseline: usize, // row index whose mean time is the slowdown reference
}

fn run(
    ds: &Dataset,
    ecfg: ElasticConfig,
    net: NetworkModel,
    plan: FailurePlan,
    monitor: Option<Monitor>,
) -> TrainOutcome {
    let mut e = ColumnSgdEngine::new_elastic(ds, ecfg, net, plan).expect("elastic engine");
    if let Some(m) = monitor {
        e.attach_monitor(m);
    }
    e.train()
        .expect("elastic training must survive every scenario")
}

/// Runs the elastic membership sweep.
pub fn sweep(scale: f64) -> Report {
    let ds = datasets::build(DatasetPreset::Kdd12, scale * 0.1, 6_000, 87);
    let base = cfg();
    let sl5 = || FailurePlan::with_pinned_straggler(5.0, 1);

    // The canonical reference: the static PR-5 engine, 4 workers. Every
    // elastic run below must reproduce these bits.
    let mut stat = ColumnSgdEngine::new(&ds, 4, base, NetworkModel::CLUSTER1, FailurePlan::none())
        .expect("static engine");
    let stat_out = stat.train().expect("static train");
    let canon: Vec<f64> = stat_out.curve.points.iter().map(|p| p.loss).collect();

    let mut rows: Vec<Row> = Vec::new();
    // 0: full cluster, no events — the elastic engine as the static one.
    rows.push(Row {
        scenario: "static 4/4",
        out: run(
            &ds,
            ElasticConfig::new(base, 4, 4),
            NetworkModel::CLUSTER1,
            FailurePlan::none(),
            None,
        ),
        baseline: 0,
    });
    // 1: crash mid-run with S=1 replication — promotion from the warm
    // replica plus a deferred re-replication repair.
    rows.push(Row {
        scenario: "crash@15 (S=1)",
        out: run(
            &ds,
            ElasticConfig::new(base.with_deadline_ms(500), 4, 4)
                .with_replication()
                .with_schedule(vec![ElasticEvent {
                    iteration: 15,
                    worker: 1,
                    action: ElasticAction::Crash,
                }]),
            NetworkModel::CLUSTER1,
            FailurePlan::none(),
            None,
        ),
        baseline: 0,
    });
    // 2: scale-up — a spare joins at t=10 and a shard migrates to it.
    rows.push(Row {
        scenario: "join@10 (3->4)",
        out: run(
            &ds,
            ElasticConfig::new(base, 4, 3).with_schedule(vec![ElasticEvent {
                iteration: 10,
                worker: 3,
                action: ElasticAction::Join,
            }]),
            NetworkModel::CLUSTER1,
            FailurePlan::none(),
            None,
        ),
        baseline: 0,
    });
    // 3: graceful scale-down — the leaver's shards migrate away first.
    rows.push(Row {
        scenario: "leave@10 (4->3)",
        out: run(
            &ds,
            ElasticConfig::new(base, 4, 4).with_schedule(vec![ElasticEvent {
                iteration: 10,
                worker: 2,
                action: ElasticAction::Leave,
            }]),
            NetworkModel::CLUSTER1,
            FailurePlan::none(),
            None,
        ),
        baseline: 0,
    });
    // 4: seeded chaos soak — wire faults on the data plane while a
    // replicated cluster takes a crash *and* a late join.
    rows.push(Row {
        scenario: "chaos crash+join",
        out: run(
            &ds,
            ElasticConfig::new(base.with_deadline_ms(400), 4, 3)
                .with_replication()
                .with_schedule(vec![
                    ElasticEvent {
                        iteration: 4,
                        worker: 1,
                        action: ElasticAction::Crash,
                    },
                    ElasticEvent {
                        iteration: 8,
                        worker: 3,
                        action: ElasticAction::Join,
                    },
                ]),
            NetworkModel::CLUSTER1,
            FailurePlan {
                chaos: Some(ChaosSpec {
                    seed: 99,
                    drop_p: 0.01,
                    dup_p: 0.02,
                    delay_p: 0.02,
                    crash_p: 0.0,
                }),
                ..FailurePlan::none()
            },
            None,
        ),
        baseline: 0,
    });
    // 5: the straggler-free reference for the speculation story — same
    // replication overhead, INSTANT net so compute dominates (§V-C runs
    // the straggler methodology compute-bound).
    rows.push(Row {
        scenario: "replicated clean",
        out: run(
            &ds,
            ElasticConfig::new(base, 4, 4).with_replication(),
            NetworkModel::INSTANT,
            FailurePlan::none(),
            None,
        ),
        baseline: 5,
    });
    // 6: pinned SL5 straggler, no speculation — the barrier eats the
    // full inflation every iteration.
    rows.push(Row {
        scenario: "SL5 straggler",
        out: run(
            &ds,
            ElasticConfig::new(base, 4, 4).with_replication(),
            NetworkModel::INSTANT,
            sl5(),
            None,
        ),
        baseline: 5,
    });
    // 7: same straggler, speculation armed by the monitor's alarm.
    rows.push(Row {
        scenario: "SL5 + speculation",
        out: run(
            &ds,
            ElasticConfig::new(base, 4, 4).with_speculation(),
            NetworkModel::INSTANT,
            sl5(),
            Some(sensitive_monitor()),
        ),
        baseline: 5,
    });
    // 8: same straggler, gauge-driven rolling replacement — the policy
    // drains the flagged worker onto an admitted spare.
    rows.push(Row {
        scenario: "SL5 + policy swap",
        out: {
            let mut ecfg = ElasticConfig::new(base, 4, 3);
            ecfg.policy = ScalePolicy {
                replace_flagged_after: Some(3),
            };
            run(
                &ds,
                ecfg,
                NetworkModel::INSTANT,
                sl5(),
                Some(sensitive_monitor()),
            )
        },
        baseline: 5,
    });

    let mut r = Report::new(
        "ext_elastic",
        "Extension: elastic membership — crash promotion, live migration, speculation (LR, K<=4)",
        &[
            "scenario",
            "net",
            "migr",
            "migr KB",
            "faults",
            "spec w/l",
            "iter ms (tail)",
            "slowdown",
            "final loss",
            "bits",
        ],
    );
    let means: Vec<f64> = rows
        .iter()
        .map(|row| row.out.mean_iteration_s(TAIL))
        .collect();
    let mut rows_json = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let out = &row.out;
        let ledger = out.elastic.as_ref().expect("an elastic run keeps a ledger");
        let mean_ms = means[i] * 1e3;
        let slowdown = means[i] / means[row.baseline];
        let net = if row.baseline == 0 {
            "cluster1"
        } else {
            "instant"
        };
        let bits = if losses(out) == canon { "=" } else { "!=" };
        let loss = out.curve.final_loss().unwrap();
        r.row(vec![
            row.scenario.to_string(),
            net.to_string(),
            ledger.migrations.to_string(),
            format!("{:.1}", ledger.migration_bytes as f64 / 1024.0),
            out.recovery.len().to_string(),
            format!("{}/{}", ledger.speculative_wins, ledger.speculative_losses),
            format!("{mean_ms:.1}"),
            format!("{slowdown:.2}x"),
            format!("{loss:.4}"),
            bits.to_string(),
        ]);
        rows_json.push(json!({
            "scenario": row.scenario,
            "net": net,
            "migrations": ledger.migrations,
            "migration_bytes": ledger.migration_bytes,
            "faults": out.recovery.len(),
            "speculative_wins": ledger.speculative_wins,
            "speculative_losses": ledger.speculative_losses,
            "mean_iteration_s_tail": means[i],
            "slowdown": slowdown,
            "final_loss": loss,
            "bit_identical_to_static": losses(out) == canon,
            "membership_log": ledger.membership_log.iter().map(|ev| json!({
                "epoch": ev.epoch, "worker": ev.worker,
                "action": ev.action, "moves": ev.moves,
            })).collect::<Vec<_>>(),
        }));
    }
    r.note(
        "`bits` compares the full loss curve against the static PR-5 engine bit-for-bit: \
         per-partition tasks make the aggregation fold independent of shard ownership, so crash \
         promotion, join, leave, and the chaos soak are all invisible to the trained bits",
    );
    r.note(
        "`migr KB` is the router's byte meter over the shard-migration delta; the engine asserts \
         at the end of every traced run that telemetry comm records reconcile with it exactly",
    );
    r.note(
        "speculation rows use INSTANT so compute dominates (the §V-C straggler methodology): the \
         pinned SL5 straggler costs ~5x per iteration at the BSP barrier, the armed duplicate on \
         the warm replica caps it near the straggler-free cost, and the policy row swaps the \
         flagged worker out entirely after 3 alarms",
    );
    r.json = json!({
        "iterations": ITERS,
        "tail": TAIL,
        "seed": 87,
        "static_final_loss": stat_out.curve.final_loss(),
        "rows": rows_json,
    });
    r
}
