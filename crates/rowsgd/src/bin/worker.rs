//! `rowsgd-worker`: one RowSGD baseline worker as an OS process.
//!
//! Spawned by the baseline engine's TCP backend, one process per worker.
//! Reading the boot line, connecting to the master's hub and the exit
//! codes are `columnsgd_cluster::host::worker_main`; the job is the
//! ordinary `run_row_worker` mailbox loop. RowSGD workers never panic by
//! contract — protocol trouble logs and exits the loop, and the master's
//! deadline converts the silence into a typed error — so no panic report
//! is sent.

use columnsgd_cluster::{worker_main, Recorder, WorkerJob};
use columnsgd_rowsgd::config::RowSgdConfig;
use columnsgd_rowsgd::msg::RowMsg;
use columnsgd_rowsgd::worker::run_row_worker;

fn main() {
    worker_main::<RowMsg, RowSgdConfig>("rowsgd-worker", |boot, _telemetry_tx| WorkerJob {
        // A live worker-local recorder even though the baseline ships
        // nothing home: the NaN/divergence guards fire (and log) in TCP
        // mode exactly as they do for thread-hosted workers.
        body: Box::new(move |ep| {
            run_row_worker(ep, boot.worker, boot.k, boot.dim, boot.job, Recorder::new())
        }),
        on_panic: None,
    });
}
