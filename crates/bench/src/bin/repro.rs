//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment> [scale]     # one experiment (e.g. `repro table4`)
//! repro all [scale]              # every experiment, in paper order
//! repro list                     # available experiment ids
//! repro trace --trace-out PATH   # traced run, JSONL trace to PATH
//! ```
//!
//! `scale` is the feature-dimension scale factor for the synthetic
//! datasets (default 0.02 → kdd12-synth has ~1.1M features). JSON results
//! are written to `repro_results/<id>.json`; the `trace` experiment
//! additionally writes a telemetry JSONL trace (default
//! `repro_results/TRACE_sample.jsonl`, overridable with `--trace-out`).

use std::io::Write;

use columnsgd_bench::datasets::DEFAULT_SCALE;
use columnsgd_bench::experiments;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--trace-out") {
        if i + 1 >= args.len() {
            eprintln!("--trace-out needs a path");
            std::process::exit(2);
        }
        let path = args.remove(i + 1);
        args.remove(i);
        // The trace experiment reads the override from the environment so
        // the experiments::run signature stays uniform across ids.
        std::env::set_var(experiments::trace::TRACE_OUT_ENV, path);
    }
    let id = args.first().map(String::as_str).unwrap_or("list");
    let scale: f64 = args
        .get(1)
        .map(|s| s.parse().expect("scale must be a float"))
        .unwrap_or(DEFAULT_SCALE);

    match id {
        "list" => {
            println!("available experiments:");
            for id in experiments::ALL_IDS {
                println!("  {id}");
            }
            println!("usage: repro <id|all> [scale (default {DEFAULT_SCALE})]");
        }
        "all" => {
            for id in experiments::ALL_IDS {
                run_one(id, scale);
            }
        }
        id => {
            if !experiments::ALL_IDS.contains(&id) {
                eprintln!("unknown experiment {id:?}; try `repro list`");
                std::process::exit(2);
            }
            run_one(id, scale);
        }
    }
}

fn run_one(id: &str, scale: f64) {
    eprintln!(">>> running {id} (scale {scale}) …");
    #[expect(clippy::disallowed_methods, reason = "the harness reports wall time")]
    let start = std::time::Instant::now();
    let reports = experiments::run(id, scale).expect("known experiment id");
    for report in &reports {
        println!("{}", report.render());
        if let Err(e) = write_json(report) {
            eprintln!("warning: could not write JSON for {}: {e}", report.id);
        }
    }
    eprintln!(
        "<<< {id} finished in {:.1}s\n",
        start.elapsed().as_secs_f64()
    );
}

fn write_json(report: &columnsgd_bench::Report) -> std::io::Result<()> {
    std::fs::create_dir_all("repro_results")?;
    let path = format!("repro_results/{}.json", report.id);
    let mut f = std::fs::File::create(path)?;
    let doc = serde_json::json!({
        "id": report.id,
        "title": report.title,
        "header": report.header,
        "rows": report.rows,
        "notes": report.notes,
        "data": report.json,
    });
    writeln!(
        f,
        "{}",
        serde_json::to_string_pretty(&doc).expect("serializable")
    )
}
