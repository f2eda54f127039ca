//! `sgdbench`: end-to-end and per-layer benchmark of the superstep path.
//!
//! * `sgdbench run --workload W --seed N --seconds S --trace 0|1` — one
//!   driver run: one JSON object on the last line of stdout.
//! * `sgdbench suite [--seed N] [--workload W] [--quick] [--repeat N]` —
//!   every workload, interleaved, with probes and traced replays; prints
//!   every metric and writes `benchmark/results/latest.json`.
//! * `sgdbench rep <workload> …` — one round in a fresh process (internal).
//! * `sgdbench manifest` — prints `BENCHMARK.json`.
//!
//! `run.sh` builds everything and dispatches here; see `README.md`.

mod adapter;
mod measure;
mod metrics;
mod probes;
mod rep;
mod replay;
mod report;
mod span;
mod stats;
mod workload;

use std::process::ExitCode;

use measure::Opts;
use rep::Measured;
use workload::Workload;

/// `--key value` pairs and bare `--flag`s after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn number(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} wants a number, got {v:?}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.value("--workload") {
            None => Ok(workload::ALL.to_vec()),
            Some(name) => Workload::by_name(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload {name:?}")),
        }
    }
}

fn real_main() -> Result<bool, String> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let opts = Opts {
        seed: args.number("--seed", 1)?,
        quick: args.flag("--quick"),
        bins: adapter::Bins(
            std::env::current_exe()
                .ok()
                .and_then(|p| p.parent().map(|d| d.to_path_buf()))
                .ok_or("cannot locate the directory of this executable")?,
        ),
    };
    match cmd.as_str() {
        "manifest" => {
            let text =
                serde_json::to_string_pretty(&metrics::manifest()).map_err(|e| e.to_string())?;
            println!("{text}");
            Ok(true)
        }
        "rep" => {
            let name = args.0.first().map(String::as_str).unwrap_or_default();
            let wl = Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            let measured = match args.value("--until-s") {
                Some(_) => Measured::UntilS(args.number("--until-s", 0)?),
                None => Measured::Count(args.number("--measured", 3)?),
            };
            let line = rep::run(
                &wl,
                opts.seed,
                measured,
                opts.quick,
                args.flag("--traced"),
                &opts.bins,
            )?;
            println!("{line}");
            Ok(true)
        }
        "run" => {
            let wl = args.workloads()?;
            let [wl] = wl.as_slice() else {
                return Err("run wants --workload".to_string());
            };
            let seconds = args.number("--seconds", metrics::RUN_SECONDS)?;
            let trace = args.number("--trace", 0)? == 1;
            let result = measure::workload(wl, &opts, seconds, trace)?;
            println!("{}", report::driver_line(&result, trace));
            Ok(true)
        }
        "suite" => {
            let workloads = args.workloads()?;
            let repeat = args.number("--repeat", 1)?;
            let mut suites = Vec::new();
            for _ in 0..repeat {
                let results = measure::suite(&workloads, &opts)?;
                report::print_suite(&results);
                suites.push(results);
            }
            report::write_latest(&suites[suites.len() - 1], &opts)?;
            let mut ok = suites.iter().flatten().all(|r| r.correct());
            if let [first, second] = suites.as_slice() {
                ok &= report::print_repeat_table(first, second);
            }
            Ok(ok)
        }
        other => Err(format!(
            "unknown command {other:?}: expected run, suite, rep or manifest"
        )),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sgdbench: {e}");
            ExitCode::from(2)
        }
    }
}
