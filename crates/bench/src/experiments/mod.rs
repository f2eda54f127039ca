//! One module per paper table/figure. See DESIGN.md §3 for the index.

pub mod diagnose;
pub mod ext;
pub mod ext_chaos;
pub mod ext_dnn;
pub mod ext_elastic;
pub mod fig10;
pub mod fig11;
pub mod fig13;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod profile;
pub mod table1;
pub mod table4;
pub mod table5;
pub mod tables23;
pub mod trace;
pub mod trace_tcp;
pub mod transport_xval;

use crate::Report;

/// All experiment ids, in paper order, followed by the extensions.
pub const ALL_IDS: [&str; 26] = [
    "table1",
    "table2",
    "table3",
    "fig4a",
    "fig4b",
    "fig7",
    "fig8",
    "table4",
    "table5",
    "fig9",
    "fig10",
    "fig11",
    "fig13",
    "ext_stale",
    "ext_backup",
    "ext_partition",
    "ext_optimizer",
    "ext_mlr",
    "ext_dnn",
    "ext_chaos",
    "ext_elastic",
    "trace",
    "trace_tcp",
    "profile",
    "transport_xval",
    "diagnose",
];

/// Runs one experiment by id at the given feature-dimension scale.
/// Returns `None` for an unknown id.
pub fn run(id: &str, scale: f64) -> Option<Vec<Report>> {
    let reports = match id {
        "table1" => vec![table1::run(scale)],
        "table2" => vec![tables23::table2()],
        "table3" => vec![tables23::table3()],
        "fig4a" => vec![fig4::fig4a(scale)],
        "fig4b" => vec![fig4::fig4b(scale)],
        "fig7" => vec![fig7::run(scale)],
        "fig8" => vec![fig8::run(scale)],
        "table4" => vec![table4::run(scale)],
        "table5" => vec![table5::run(scale)],
        "fig9" => vec![fig9::run(scale)],
        "fig10" => vec![fig10::run()],
        "fig11" => vec![fig11::run(scale)],
        "fig13" => fig13::run(scale),
        "ext_stale" => vec![ext::stale(scale)],
        "ext_backup" => vec![ext::backup_sweep(scale)],
        "ext_partition" => vec![ext::partition_skew(scale)],
        "ext_optimizer" => vec![ext::optimizers(scale)],
        "ext_mlr" => vec![ext::mlr(scale)],
        "ext_dnn" => vec![ext_dnn::run()],
        "ext_chaos" => vec![ext_chaos::run(scale)],
        "ext_elastic" => vec![ext_elastic::sweep(scale)],
        "trace" => vec![trace::run(scale)],
        "trace_tcp" => vec![trace_tcp::run(scale)],
        "profile" => vec![profile::run(scale)],
        "transport_xval" => vec![transport_xval::run(scale)],
        "diagnose" => vec![diagnose::run(scale)],
        _ => return None,
    };
    Some(reports)
}
