//! The repository benchmark: four workloads over the public APIs of the
//! pulp-energy crates, each reporting end-to-end metrics (`--trace 0`) or
//! per-layer metrics from a separately traced run (`--trace 1`).
//!
//! ```text
//! perfbench --workload <label_sweep|train_eval|serve_features|serve_kernel_batch>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--work-dir DIR] [--expected-dir DIR]
//! perfbench --generate-expected [--work-dir DIR] [--expected-dir DIR]
//! ```
//!
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it carries the
//! sample count behind every metric. A run whose outputs disagree with the
//! committed expectations prints `"correct": false` and exits 1.

mod client;
mod expected;
mod label_sweep;
mod report;
mod serve;
mod stats;
mod train_eval;
mod work;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub expected_dir: PathBuf,
    pub generate: bool,
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
[--work-dir DIR] [--expected-dir DIR] | perfbench --generate-expected";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        expected_dir: PathBuf::from("perfbench/expected"),
        generate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--expected-dir" => args.expected_dir = PathBuf::from(value()?),
            "--generate-expected" => args.generate = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.generate && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.work_dir.display());
        return ExitCode::FAILURE;
    }
    if args.generate {
        return match expected::generate(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result: Result<Report, String> = match (args.workload.as_str(), args.trace) {
        ("label_sweep", false) => label_sweep::run(&args),
        ("label_sweep", true) => label_sweep::run_traced(&args),
        ("train_eval", false) => train_eval::run(&args),
        ("train_eval", true) => train_eval::run_traced(&args),
        ("serve_features" | "serve_kernel_batch", false) => serve::run(&args),
        ("serve_features" | "serve_kernel_batch", true) => serve::run_traced(&args),
        (other, _) => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(mut report) => {
            if args.trace {
                report.complete_per_layer();
            } else {
                report.check_end_to_end();
            }
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
