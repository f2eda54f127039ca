//! `columnsgd-worker`: one ColumnSGD worker as an OS process.
//!
//! Spawned by the engine's TCP backend, one process per worker. Reading
//! the boot line, connecting to the master's hub, reporting a panic and
//! the exit codes are `columnsgd_cluster::host::worker_main`; what is
//! ColumnSGD's own is the job below: the ordinary `run_worker` mailbox
//! loop over the partitions this worker holds, a worker-local recorder,
//! and a `ColMsg::WorkerPanic` report — the contract `spawn_guarded`
//! gives thread-hosted workers.

use columnsgd_cluster::{worker_main, Recorder, WorkerJob};
use columnsgd_core::host::ColBoot;
use columnsgd_core::msg::ColMsg;
use columnsgd_core::worker::run_worker;

fn main() {
    worker_main::<ColMsg, ColBoot>("columnsgd-worker", |boot, telemetry_tx| {
        let (w, k, dim) = (boot.worker, boot.k, boot.dim);
        let ColBoot {
            cfg,
            script,
            traced,
        } = boot.job;
        // The recorder is live even when the master is not tracing, so the
        // worker-side NaN/divergence guards still fire in TCP mode;
        // shipping the events home is what `traced` gates.
        let recorder = Recorder::new();
        let ship = traced.then(|| telemetry_tx.clone());
        let dying = recorder.clone();
        WorkerJob {
            body: Box::new(move |ep| {
                let held = cfg.partitions_of(w);
                run_worker(ep, w, k, &held, dim, cfg, script, recorder, ship)
            }),
            on_panic: Some(Box::new(move |info| {
                if traced {
                    // Ship whatever the dying worker recorded before the
                    // panic report; the master's trace keeps the evidence.
                    telemetry_tx.flush(&dying);
                }
                ColMsg::WorkerPanic { worker: w, info }
            })),
        }
    });
}
