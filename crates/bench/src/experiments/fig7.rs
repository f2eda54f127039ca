//! Figure 7: data-loading (row-to-column transformation) time across
//! Naive-ColumnSGD, ColumnSGD, MLlib, and MLlib-Repartition.

use columnsgd::cluster::{wire_size, FailurePlan, NetworkModel, WireCodec};
use columnsgd::core::{ColumnSgdConfig, ColumnSgdEngine};
use columnsgd::data::{Block, ColumnPartitioner};
use columnsgd::ml::ModelSpec;
use columnsgd::rowsgd::{RowSgdConfig, RowSgdEngine, RowSgdVariant};
use serde_json::json;

use crate::datasets;
use crate::report::{fmt_s, Report};

/// Metering counts for a dispatch strategy: how many discrete objects
/// were serialized and shipped, and how many payload bytes they carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct DispatchStats {
    objects: u64,
    bytes: u64,
}

impl DispatchStats {
    /// Counts one shipped object, at its encoder's size.
    fn ship(&mut self, object: &impl WireCodec) {
        self.objects += 1;
        self.bytes += wire_size(object).expect("dispatched objects encode") as u64;
    }

    /// Naive dispatch of one block: each *row* is split and its K pieces
    /// are sent as individual objects ("Naive-ColumnSGD", §IV-A1:
    /// partitioning each row "on the fly" transfers K× more objects
    /// through the network). Every piece pays its own block id, offset,
    /// label and length header — the serialization overhead Figure 7
    /// measures.
    fn ship_naive(&mut self, block: &Block, part: &ColumnPartitioner) {
        for r in 0..block.nrows() {
            let (label, row) = block.row(r);
            for piece in row.split_by(part.num_workers(), |i| part.owner(i)) {
                self.ship(&((block.id(), r as u64), (label, piece)));
            }
        }
    }
}

/// Runs the loading-time comparison over the three public datasets.
pub fn run(scale: f64) -> Report {
    let k = 8;
    let net = NetworkModel::CLUSTER1;
    let rows = 50_000;
    let mut r = Report::new(
        "fig7",
        "Figure 7: time cost of data loading (seconds; Cluster 1, K=8)",
        &[
            "dataset",
            "Naive-ColumnSGD",
            "ColumnSGD",
            "MLlib",
            "MLlib-Repartition",
        ],
    );
    let mut out = Vec::new();
    for preset in datasets::MAIN_TRIO {
        let ds = datasets::build(preset, scale, rows, 11);
        let cfg = ColumnSgdConfig::new(ModelSpec::Lr).with_batch_size(100);

        // ColumnSGD: the engine's metered block-based dispatch.
        let col_engine =
            ColumnSgdEngine::new(&ds, k, cfg, net, FailurePlan::none()).expect("engine");
        let col = col_engine.load_report();
        drop(col_engine);

        // Naive-ColumnSGD: the same blocks dispatched row-at-a-time
        // (analytic; the protocol is identical except for the granularity,
        // which is exactly what DispatchStats captures).
        let queue = ds.into_block_queue(cfg.block_size);
        let part = cfg.partitioner(k, ds.dimension());
        let mut naive = DispatchStats::default();
        for block in queue.iter() {
            naive.ship_naive(block, &part);
            // The block itself still travels master → worker first.
            naive.ship(block);
        }
        // The work spreads over K worker lanes.
        let naive_s = net.spread_lane_time(naive.bytes, naive.objects, k);

        // MLlib / MLlib-Repartition: row-partition loading on the RowSGD
        // engine (row-by-row pipeline pricing inside).
        let row_cfg = RowSgdConfig::new(ModelSpec::Lr, RowSgdVariant::MLlib);
        let mllib = RowSgdEngine::new(&ds, k, row_cfg, net)
            .expect("engine")
            .load_report();
        let repart = RowSgdEngine::with_repartition(&ds, k, row_cfg, net, true)
            .expect("engine")
            .load_report();

        r.row(vec![
            preset.meta().name,
            fmt_s(naive_s),
            fmt_s(col.sim_time_s),
            fmt_s(mllib.sim_time_s),
            fmt_s(repart.sim_time_s),
        ]);
        out.push(json!({
            "dataset": preset.meta().name,
            "naive_s": naive_s, "naive_objects": naive.objects,
            "columnsgd_s": col.sim_time_s, "columnsgd_objects": col.objects,
            "mllib_s": mllib.sim_time_s, "mllib_objects": mllib.objects,
            "repartition_s": repart.sim_time_s,
        }));
    }
    r.note("paper shape: Naive slowest (K x objects), ColumnSGD fastest (block-granular CSR), MLlib-Repartition > MLlib");
    r.json = json!({ "rows": out, "rows_generated": rows, "scale": scale });
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use columnsgd::data::workset::split_block;
    use columnsgd::linalg::SparseVector;
    use proptest::prelude::*;

    proptest! {
        /// Naive dispatch always ships K× the objects of block dispatch
        /// (one CSR workset per worker) and at least as many bytes.
        #[test]
        fn naive_dispatch_dominates_block_dispatch(
            rows in prop::collection::vec(
                (prop::bool::ANY, prop::collection::vec((0..100u64, 0.1f64..10.0), 1..20)),
                1..30,
            ),
            k in 1usize..8,
        ) {
            let rows: Vec<(f64, SparseVector)> = rows
                .into_iter()
                .map(|(pos, pairs)| (if pos { 1.0 } else { -1.0 }, SparseVector::from_pairs(pairs)))
                .collect();
            let block = Block::from_rows(0, &rows);
            let p = ColumnPartitioner::round_robin(k);
            let mut naive = DispatchStats::default();
            naive.ship_naive(&block, &p);
            let mut blocked = DispatchStats::default();
            for ws in split_block(&block, &p) {
                blocked.ship(&ws);
            }
            prop_assert_eq!(naive.objects, (block.nrows() * k) as u64);
            prop_assert_eq!(blocked.objects, k as u64);
            prop_assert!(naive.bytes >= blocked.bytes || block.nrows() == 1);
        }
    }
}
