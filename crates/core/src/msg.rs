//! The ColumnSGD wire protocol.
//!
//! A message's size is what its encoder (`crate::codec`) writes: 8 bytes
//! per scalar, 8-byte length headers, plus the router's fixed envelope.
//! Control messages are tiny; the only payloads that matter
//! quantitatively are [`ColMsg::Workset`] during loading and the
//! statistics vectors during training — exactly the two traffic classes
//! the paper analyzes.

use columnsgd_data::block::{Block, BlockId};
use columnsgd_data::Workset;
use columnsgd_ml::ParamSet;

/// Messages exchanged between the ColumnSGD master and workers.
#[derive(Debug, Clone)]
pub enum ColMsg {
    /// Master → worker: transform this row block (§IV-A step 2; carrying
    /// the block body models the HDFS read of the assigned block ID).
    LoadBlock(Block),
    /// Worker → worker: a column-partitioned workset for partition `pid`
    /// (§IV-A step 3).
    Workset {
        /// Logical partition the workset belongs to.
        pid: usize,
        /// The CSR-encoded workset.
        ws: Workset,
    },
    /// Master → worker: the block stream ended after `blocks_total` blocks;
    /// finalize once all expected worksets arrived.
    LoadDone {
        /// Total number of blocks dispatched.
        blocks_total: usize,
    },
    /// Worker → master: loading finished; reports the (block, rows) layout
    /// of one held partition so the master can sanity-check alignment.
    LoadAck {
        /// Reporting worker.
        worker: usize,
        /// `(block id, rows)` pairs of the worker's first partition.
        layout: Vec<(BlockId, usize)>,
    },
    /// Master → worker: run `computeStatistics` for this iteration
    /// (Algorithm 3 line 5).
    ComputeStats {
        /// Iteration number (doubles as the shared sampling seed input).
        iteration: u64,
        /// Global batch size B.
        batch_size: usize,
        /// Attempt number (0 = original task, >0 = re-issue after a
        /// detected failure). Injection scripts key off it so a retried
        /// task is not doomed to fail forever.
        attempt: u64,
    },
    /// Worker → master: partial statistics (Algorithm 3 step 2).
    StatsReply {
        /// Iteration these statistics belong to.
        iteration: u64,
        /// Reporting worker.
        worker: usize,
        /// Partial statistics, length `B × stats_width` (the group
        /// aggregate when the worker holds backup partitions).
        partial: Vec<f64>,
        /// Measured local compute seconds.
        compute_s: f64,
        /// Measured batch sampling/assembly seconds — a telemetry-visible
        /// *subset* of `compute_s` (the batch is drawn inside the timed
        /// statistics task).
        sample_s: f64,
        /// The task threw (fault-injection); statistics are absent.
        task_failed: bool,
    },
    /// Master → workers: the aggregated statistics (Algorithm 3 line 7).
    Update {
        /// Iteration number.
        iteration: u64,
        /// Complete statistics, length `B × stats_width`.
        stats: Vec<f64>,
    },
    /// Worker → master: local model updated.
    UpdateAck {
        /// Iteration number.
        iteration: u64,
        /// Reporting worker.
        worker: usize,
        /// Measured local compute seconds.
        compute_s: f64,
    },
    /// Master → worker: die (worker-failure injection, §X). The worker
    /// wipes all partitions, models, and optimizer state.
    Die,
    /// Master → worker: recovery stream — re-split this block and keep
    /// only your own partitions' worksets.
    ReloadBlock(Block),
    /// Master → worker: recovery stream finished.
    ReloadDone {
        /// Total number of blocks in the recovery stream.
        blocks_total: usize,
    },
    /// Worker → master: recovery finished.
    ReloadAck {
        /// Reporting worker.
        worker: usize,
    },
    /// Master → worker: send back your model partitions (test/inspection
    /// path; not part of the paper's protocol).
    FetchModel,
    /// Worker → master: the requested model partitions.
    ModelReply {
        /// Reporting worker.
        worker: usize,
        /// `(partition id, parameters)` for every held partition.
        parts: Vec<(usize, ParamSet)>,
    },
    /// Master → worker (reliable): are you alive, and is your data loaded?
    /// Sent when the iteration deadline expires to classify a missing
    /// reply as a task failure (alive + loaded) or a worker failure.
    Probe {
        /// Iteration the master is trying to complete.
        iteration: u64,
    },
    /// Worker → master (reliable): probe response.
    ProbeAck {
        /// Responding worker.
        worker: usize,
        /// Echoed iteration tag.
        iteration: u64,
        /// Whether the worker's partitions are loaded and trainable.
        loaded: bool,
    },
    /// Supervisor → master (reliable): the worker's thread panicked; the
    /// node runtime caught it and reports the panic message.
    WorkerPanic {
        /// The worker that died.
        worker: usize,
        /// The panic message.
        info: String,
    },
    /// Master → worker: shut down the mailbox loop.
    Shutdown,
    /// Master → worker (reliable): overwrite the parameters of the listed
    /// held partitions. Used after a crash respawn to restore the current
    /// model from a surviving replica, so the respawned worker does not
    /// rejoin with stale init-time parameters.
    InstallParams {
        /// `(partition id, parameters)` to install.
        parts: Vec<(usize, ParamSet)>,
    },
    /// Master → worker: run `computeStatistics` over an explicit partition
    /// subset (elastic membership). The primary request names the worker's own
    /// primaries; a speculative duplicate names a straggler's primaries
    /// that this worker holds as backups.
    ComputeStatsFor {
        /// Iteration number (shared sampling seed input).
        iteration: u64,
        /// Global batch size B.
        batch_size: usize,
        /// Attempt number (0 = original, >0 = re-issue or speculation).
        attempt: u64,
        /// Partitions to compute; intersected with what the worker holds.
        pids: Vec<usize>,
    },
    /// Worker → master: partial statistics for an explicit partition set
    /// (elastic membership; mirrors [`ColMsg::StatsReply`]).
    StatsReplyFor {
        /// Iteration these statistics belong to.
        iteration: u64,
        /// Reporting worker.
        worker: usize,
        /// Partitions actually covered (requested ∩ held, in pid order) —
        /// or, when `task_failed`, the partitions that were *requested*,
        /// echoed verbatim so the master can match the failure to its task.
        pids: Vec<usize>,
        /// Partial statistics summed over `pids`.
        partial: Vec<f64>,
        /// Measured local compute seconds.
        compute_s: f64,
        /// Measured batch sampling/assembly seconds.
        sample_s: f64,
        /// The task threw (fault-injection); statistics are absent.
        task_failed: bool,
    },
    /// Master → worker: stream your copy of shard `pid` (worksets + current
    /// parameters) to worker `to` over the data plane (shard migration).
    ShardRequest {
        /// Partition to migrate.
        pid: usize,
        /// Membership epoch stamping the migration.
        epoch: u64,
        /// Destination worker.
        to: usize,
    },
    /// Worker → worker (or master → worker on rebuild): one full column
    /// shard — the migration payload, priced like any other data traffic.
    ShardData {
        /// Partition being installed.
        pid: usize,
        /// Membership epoch stamping the migration.
        epoch: u64,
        /// The shard's worksets, sorted by block id.
        worksets: Vec<Workset>,
        /// Current parameters of the shard's model partition.
        params: ParamSet,
    },
    /// Worker → master (reliable): shard installed and trainable.
    ShardInstalled {
        /// Partition installed.
        pid: usize,
        /// Echoed membership epoch.
        epoch: u64,
        /// Reporting worker.
        worker: usize,
    },
    /// Master → worker: drop shard `pid` (it moved elsewhere).
    DropShard {
        /// Partition to drop.
        pid: usize,
        /// Membership epoch of the drop decision.
        epoch: u64,
    },
}

impl ColMsg {
    /// Short variant name for log lines (avoids dumping block payloads).
    pub fn name(&self) -> &'static str {
        match self {
            ColMsg::LoadBlock(_) => "LoadBlock",
            ColMsg::Workset { .. } => "Workset",
            ColMsg::LoadDone { .. } => "LoadDone",
            ColMsg::LoadAck { .. } => "LoadAck",
            ColMsg::ComputeStats { .. } => "ComputeStats",
            ColMsg::StatsReply { .. } => "StatsReply",
            ColMsg::Update { .. } => "Update",
            ColMsg::UpdateAck { .. } => "UpdateAck",
            ColMsg::Die => "Die",
            ColMsg::ReloadBlock(_) => "ReloadBlock",
            ColMsg::ReloadDone { .. } => "ReloadDone",
            ColMsg::ReloadAck { .. } => "ReloadAck",
            ColMsg::FetchModel => "FetchModel",
            ColMsg::ModelReply { .. } => "ModelReply",
            ColMsg::Probe { .. } => "Probe",
            ColMsg::ProbeAck { .. } => "ProbeAck",
            ColMsg::WorkerPanic { .. } => "WorkerPanic",
            ColMsg::Shutdown => "Shutdown",
            ColMsg::InstallParams { .. } => "InstallParams",
            ColMsg::ComputeStatsFor { .. } => "ComputeStatsFor",
            ColMsg::StatsReplyFor { .. } => "StatsReplyFor",
            ColMsg::ShardRequest { .. } => "ShardRequest",
            ColMsg::ShardData { .. } => "ShardData",
            ColMsg::ShardInstalled { .. } => "ShardInstalled",
            ColMsg::DropShard { .. } => "DropShard",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd_cluster::wire_size;
    use columnsgd_linalg::SparseVector;

    fn size(m: &ColMsg) -> usize {
        wire_size(m).expect("encodable")
    }

    #[test]
    fn statistics_sizes_are_pinned() {
        // The two messages of the paper's per-iteration cost: a reply of
        // n statistics is 42 + 8n bytes, the update broadcast 17 + 8n.
        for n in [0usize, 1, 10, 1_000] {
            let reply = ColMsg::StatsReply {
                iteration: 7,
                worker: 3,
                partial: vec![1.5; n],
                compute_s: 0.25,
                sample_s: 0.05,
                task_failed: false,
            };
            assert_eq!(size(&reply), 42 + 8 * n);
            let update = ColMsg::Update {
                iteration: 7,
                stats: vec![1.5; n],
            };
            assert_eq!(size(&update), 17 + 8 * n);
        }
    }

    #[test]
    fn control_messages_are_tiny() {
        assert!(size(&ColMsg::Shutdown) < 8);
        assert!(size(&ColMsg::Die) < 8);
        let stats = ColMsg::ComputeStats {
            iteration: 9,
            batch_size: 1000,
            attempt: 0,
        };
        assert!(size(&stats) < 32);
        assert!(size(&ColMsg::Probe { iteration: 9 }) < 16);
        let ack = ColMsg::ProbeAck {
            worker: 3,
            iteration: 9,
            loaded: true,
        };
        assert!(size(&ack) < 32);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ColMsg::Shutdown.name(), "Shutdown");
        assert_eq!(
            ColMsg::WorkerPanic {
                worker: 0,
                info: "boom".into()
            }
            .name(),
            "WorkerPanic"
        );
    }

    #[test]
    fn elastic_message_sizes_are_pinned() {
        let m = ColMsg::ComputeStatsFor {
            iteration: 3,
            batch_size: 64,
            attempt: 0,
            pids: vec![1, 5],
        };
        assert_eq!(size(&m), 49);
        let request = ColMsg::ShardRequest {
            pid: 1,
            epoch: 2,
            to: 3,
        };
        assert_eq!(size(&request), 25);
        assert_eq!(size(&ColMsg::DropShard { pid: 1, epoch: 2 }), 17);
        // ShardData's size = headers + worksets + params, so migration bytes
        // scale with the shard payload like any other data traffic.
        let rows: Vec<(f64, SparseVector)> = (0..20)
            .map(|i| (1.0, SparseVector::from_pairs(vec![(i, 1.0)])))
            .collect();
        let block = Block::from_rows(0, &rows);
        let parts = columnsgd_data::workset::split_block(
            &block,
            &columnsgd_data::ColumnPartitioner::round_robin(2),
        );
        let params = ParamSet::zeros(4, &[1]);
        let small = ColMsg::ShardData {
            pid: 0,
            epoch: 1,
            worksets: vec![],
            params: params.clone(),
        };
        let full = ColMsg::ShardData {
            pid: 0,
            epoch: 1,
            worksets: vec![parts[0].clone()],
            params,
        };
        assert_eq!(size(&full) - size(&small), wire_size(&parts[0]).unwrap());
    }

    #[test]
    fn workset_size_dominated_by_csr() {
        let rows: Vec<(f64, SparseVector)> = (0..100)
            .map(|i| (1.0, SparseVector::from_pairs(vec![(i, 1.0)])))
            .collect();
        let block = Block::from_rows(0, &rows);
        let parts = columnsgd_data::workset::split_block(
            &block,
            &columnsgd_data::ColumnPartitioner::round_robin(2),
        );
        let msg = ColMsg::Workset {
            pid: 0,
            ws: parts[0].clone(),
        };
        let ws = wire_size(&parts[0]).unwrap();
        assert!(size(&msg) > ws);
        assert!(size(&msg) < ws + 32);
    }
}
