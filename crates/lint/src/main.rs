//! `columnsgd-lint` CLI.
//!
//! ```text
//! columnsgd-lint [--root <path>] [--json <path>]
//! ```
//!
//! `--json` additionally writes the machine-readable report (same
//! findings as the text output, deterministic ordering) to the given
//! path. Exits 0 when the tree is clean, 1 on any finding, 2 on usage
//! errors.

use std::path::PathBuf;
use std::process::ExitCode;

use columnsgd_lint as lint;

const USAGE: &str = "usage: columnsgd-lint [--root <path>] [--json <path>]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a path"),
            },
            "--json" => match args.next() {
                Some(v) => json_path = Some(PathBuf::from(v)),
                None => return usage("--json needs a path"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    match lint::run_lint(&root) {
        Ok(report) => {
            print!("{}", report.render());
            if let Some(path) = json_path {
                if let Err(e) = std::fs::write(&path, report.to_json()) {
                    return fail(&format!("writing {}: {e}", path.display()));
                }
            }
            if report.failed() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => fail(&e),
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("columnsgd-lint: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("columnsgd-lint: {msg}");
    ExitCode::from(2)
}
