//! Extension experiment: ColumnSGD for FC layers (§III-C) — the per-layer
//! synchronisation volume from the closed form in `costmodel`, priced by
//! the network model. No dataset, no training: the claim is a float count.

use columnsgd::cluster::{LinkStats, NetworkModel, ENVELOPE_BYTES};
use columnsgd::costmodel::fc_layer_sync_floats;
use serde_json::json;

use crate::report::{fmt_s, Report};

/// Per-iteration statistics volume and communication time of the FC-layer
/// protocol vs hidden width and input dimension (K = 4, B = 1000).
pub fn run() -> Report {
    let (k, b, net) = (4, 1000, NetworkModel::CLUSTER1);
    let mut r = Report::new(
        "ext_dnn",
        "Extension: ColumnSGD for FC layers (§III-C) — per-iteration cost vs width and input dim",
        &["input dim m", "hidden", "stats floats/iter", "comm s/iter"],
    );
    // Each round's gather and broadcast serialise K copies on the master's
    // link.
    let round_s = |floats: u64| {
        let msg = LinkStats::message(8 * floats + ENVELOPE_BYTES as u64);
        2.0 * net.serial_time(std::iter::repeat_n(msg, k))
    };
    let mut out = Vec::new();
    let cases: [(u64, &[usize]); 5] = [
        (100_000, &[16]),
        (100_000, &[128]),
        (100_000, &[1024]),
        (10_000, &[128]),
        (1_000_000, &[128]),
    ];
    for (dim, hidden) in cases {
        let rounds = fc_layer_sync_floats(b, hidden);
        let floats = 2 * rounds.iter().sum::<u64>();
        let comm: f64 = rounds.into_iter().map(round_s).sum();
        r.row(vec![
            dim.to_string(),
            format!("{hidden:?}"),
            floats.to_string(),
            fmt_s(comm),
        ]);
        out.push(json!({ "dim": dim, "hidden": hidden, "stats_floats": floats, "comm_s": comm }));
    }
    r.note("statistics volume is 2B·(Σ forward + Σ backward widths): independent of m (rows 2/4/5) but proportional to hidden width (rows 1-3) — the paper's caveat that per-layer synchronization makes ColumnSGD 'not very beneficial' for narrow DNNs, quantified");
    r.json = json!({ "rows": out });
    r
}
