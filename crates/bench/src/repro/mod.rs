//! `pulp_cli repro <name>` — every table and figure of the paper (E1–E6),
//! the extensions (E7, E9–E12) and the dataset and profiling utilities,
//! one [`EXPERIMENTS`] entry each — and `pulp_cli bench sim|serve|models`,
//! one [`BENCHES`] entry each.
//!
//! One runner does the steps every entry of both tables shares, once: it
//! starts the timer, builds the pipeline options and protocol from
//! [`Args`], opens the run journal, loads the dataset for the entries that
//! read it, writes the `--json` dump and the run manifest, and writes the
//! bench record of the entries that produce one, stamped with the
//! manifest hash and journalled as the `bench_record` tail. It then
//! checks the record on its own ([`BenchRecord::breaches`]: its limits,
//! and no non-finite value) and prints each breach. A breach or a failed
//! record write is an error exit. An entry's body keeps only its
//! computation, its printing and its extra artifacts. It prints through
//! [`Run::out`], the writer `pulp_cli`'s `main` hands the runner, so a
//! closed stdout ends the run as an [`io::Error`] for `main` to judge,
//! not as a panic.
//!
//! Each experiment name is also the manifest and journal `tool` string,
//! and a bench runs as `bench_<name>`, so a manifest hash or journal run
//! id depends only on the entry and its inputs. Cross-validated entries
//! ([`Experiment::Evaluation`]) also record their evaluation protocol,
//! and a bench records the options its body reads ([`BenchOptions`]).

mod benches;
mod extensions;
mod paper;
mod tools;

use crate::{load_or_build_dataset, Args, BenchRecord};
use pulp_energy::pipeline::{LabeledDataset, PipelineOptions};
use pulp_energy::Protocol;
use pulp_obs::{append_or_warn, JournalWriter};
use serde::{Serialize, Value};
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use Experiment::{Dataset, Evaluation, Standalone};

/// An experiment body, by what the shared steps prepare for it.
pub enum Experiment {
    /// Needs no dataset.
    Standalone(fn(&mut Run) -> Result<Output, Stop>),
    /// Reads the labelled dataset.
    Dataset(fn(&mut Run, &LabeledDataset) -> Result<Output, Stop>),
    /// Cross-validates on the labelled dataset: the evaluation protocol
    /// is part of the run's provenance (manifest and journal run id).
    Evaluation(fn(&mut Run, &LabeledDataset) -> Result<Output, Stop>),
}

/// Why an experiment body stopped before producing its [`Output`].
pub enum Stop {
    /// Writing to [`Run::out`] failed; the runner hands the error on.
    Write(io::Error),
    /// The experiment failed; the runner prints the message and exits 1.
    Failed(String),
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Self {
        Self::Write(e)
    }
}

impl From<String> for Stop {
    fn from(message: String) -> Self {
        Self::Failed(message)
    }
}

/// What the shared steps hand an experiment body.
pub struct Run<'a> {
    /// The command line.
    pub(crate) args: &'a Args,
    /// When the run started.
    pub(crate) start: Instant,
    /// Pipeline options implied by `args`.
    pub(crate) opts: PipelineOptions,
    /// Evaluation protocol implied by `args`.
    pub(crate) protocol: Protocol,
    /// The run journal (`--journal`), if one is open.
    pub(crate) journal: Option<JournalWriter>,
    /// Where the body prints its tables: `pulp_cli`'s stdout.
    pub(crate) out: &'a mut dyn Write,
}

/// What an experiment body returns to the shared steps.
pub struct Output {
    /// The `--json` record.
    json: Value,
    /// The bench record to journal, write (`--out`) and check.
    bench: Option<BenchRecord>,
}

impl Output {
    /// An output whose `--json` record is `record`.
    fn json(record: &(impl Serialize + ?Sized)) -> Self {
        Self {
            json: record.to_value(),
            bench: None,
        }
    }

    /// An output whose `--json` record is `report`, writing `bench`.
    fn bench(report: &impl Serialize, bench: BenchRecord) -> Self {
        Self {
            json: report.to_value(),
            bench: Some(bench),
        }
    }
}

/// The registry, in DESIGN.md §5 order. Each name is also the manifest
/// and journal `tool` string.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    (
        "table1_energy_model",
        Standalone(paper::table1_energy_model),
    ),
    ("dataset_stats", Dataset(paper::dataset_stats)),
    ("fig2_left", Evaluation(paper::fig2_left)),
    ("fig2_right", Evaluation(paper::fig2_right)),
    ("table4_importance", Evaluation(paper::table4_importance)),
    ("headline", Evaluation(paper::headline)),
    (
        "ablation_platform",
        Standalone(extensions::ablation_platform),
    ),
    ("unroll_ablation", Dataset(extensions::unroll_ablation)),
    ("learning_curve", Evaluation(extensions::learning_curve)),
    ("cluster_sweep", Standalone(extensions::cluster_sweep)),
    ("dataset_export", Dataset(tools::dataset_export)),
    (
        "suite_generalization",
        Dataset(extensions::suite_generalization),
    ),
    ("profile_report", Standalone(tools::profile_report)),
];

/// The options a bench body reads from [`Args`] beyond the pipeline
/// options and the protocol, resolved against the profile's defaults, as
/// manifest extras.
pub type BenchOptions = fn(&Args) -> Vec<(&'static str, String)>;

/// The benches behind `pulp_cli bench <name>`; each runs under the tool
/// string `bench_<name>`.
pub const BENCHES: &[(&str, Experiment, BenchOptions)] = &[
    ("sim", Standalone(benches::sim), benches::sim_provenance),
    ("serve", Dataset(benches::serve), benches::serve_provenance),
    ("models", Evaluation(benches::models), |_| Vec::new()),
];

/// Runs the experiment called `name` with `args`, printing to `out`. A
/// failed write to `out` ends the run as its error.
pub fn run(name: &str, args: &Args, out: &mut dyn Write) -> io::Result<ExitCode> {
    match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        Some((tool, exp)) => execute(tool, exp, &[], args, out),
        None => {
            eprintln!("error: unknown experiment `{name}`; `pulp_cli repro` lists them");
            Ok(ExitCode::from(2))
        }
    }
}

/// Runs the bench called `name` with `args`, printing to `out`. A failed
/// write to `out` ends the run as its error.
pub fn bench(name: &str, args: &Args, out: &mut dyn Write) -> io::Result<ExitCode> {
    match BENCHES.iter().find(|(n, ..)| *n == name) {
        Some((_, exp, options)) => {
            execute(&format!("bench_{name}"), exp, &options(args), args, out)
        }
        None => {
            eprintln!("error: unknown bench `{name}`; want sim, serve or models");
            Ok(ExitCode::from(2))
        }
    }
}

/// The one runner: runs `exp` under the manifest and journal tool string
/// `tool`, with `options` as manifest extras, printing to `out`.
fn execute(
    tool: &str,
    exp: &Experiment,
    options: &[(&str, String)],
    args: &Args,
    out: &mut dyn Write,
) -> io::Result<ExitCode> {
    let start = Instant::now();
    let opts = args.pipeline_options();
    let protocol = args.protocol();
    let provenance = matches!(exp, Evaluation(_)).then_some(&protocol);
    let mut manifest = args.pre_run_manifest(tool, &opts, provenance);
    for (key, value) in options {
        manifest = manifest.with_extra(key, value);
    }
    let journal = args.journal_writer(&manifest);
    let mut run = Run {
        args,
        start,
        opts,
        protocol,
        journal,
        out,
    };
    let outcome = match exp {
        Standalone(body) => body(&mut run),
        Dataset(body) | Evaluation(body) => {
            match load_or_build_dataset(&run.opts, args, run.journal.as_mut()) {
                Ok(data) => body(&mut run, &data),
                Err(e) => Err(Stop::Failed(format!("dataset build failed: {e}"))),
            }
        }
    };
    let out = match outcome {
        Ok(out) => out,
        Err(Stop::Write(e)) => return Err(e),
        Err(Stop::Failed(e)) => {
            eprintln!("{tool}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    args.dump_json(&out.json);
    let Run {
        opts, mut journal, ..
    } = run;
    // Every figure of the bench record lands in the journal tail, so
    // `pulp_cli bench history` can read trajectories from journals alone.
    if let Some(record) = &out.bench {
        append_or_warn(journal.as_mut(), record.journal_events());
    }
    args.finish_journal(journal);
    let manifest = args.write_manifest(manifest, &opts, start);
    let mut ok = true;
    if let Some(mut record) = out.bench {
        record.manifest_hash = manifest.manifest_hash();
        let path = args
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", record.bench)));
        match record.write(&path) {
            Err(e) => {
                eprintln!("{tool}: {e}");
                ok = false;
            }
            Ok(()) if !args.quiet => args.logger().info(
                "bench",
                &format!("{} record written", record.bench),
                &[("path", path.display().to_string())],
            ),
            Ok(()) => {}
        }
        let breaches = record.breaches();
        if !breaches.is_empty() {
            eprintln!(
                "{tool}: {} breach(es) of the record's limits:",
                breaches.len()
            );
            for b in &breaches {
                eprintln!("  {b}");
            }
            ok = false;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bench body's output that measures nothing: one metric, `x`, with
    /// a limit of 1.
    fn stub(x: f64) -> Result<Output, Stop> {
        let mut record = BenchRecord::new("stub", true);
        let limit = Some(crate::Tolerance::Limit(1.0));
        record.push("x", x, ("count", crate::Better::Lower, limit));
        Ok(Output::bench(&"stub", record))
    }

    /// A fresh scratch directory for one test.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pulp-repro-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn registry_names_are_unique_and_unknown_names_are_usage_errors() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 13);
        names.extend(BENCHES.iter().map(|(n, ..)| *n));
        assert_eq!(names.len(), 16);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16, "duplicate registry name");
        let mut out = io::sink();
        assert_eq!(
            run("nope", &Args::default(), &mut out).ok(),
            Some(ExitCode::from(2))
        );
        assert_eq!(
            bench("nope", &Args::default(), &mut out).ok(),
            Some(ExitCode::from(2))
        );
        // A record that cannot be written (`--out` names a directory) is an
        // error exit, for every entry of either table.
        let dir = scratch("unwritable");
        let args = Args {
            out: Some(dir.clone()),
            no_manifest: true,
            quiet: true,
            ..Args::default()
        };
        let body = Standalone(|_| stub(1.0));
        let code = execute("stub", &body, &[], &args, &mut out).ok();
        assert_eq!(code, Some(ExitCode::FAILURE));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_runner_journals_stamps_and_gates_every_bench_record() {
        let dir = scratch("record");
        let args = Args {
            out: Some(dir.join("BENCH_stub.json")),
            manifest: Some(dir.join("manifest.json")),
            journal: Some(dir.join("run.jsonl")),
            quiet: true,
            ..Args::default()
        };
        let body = Standalone(|_| stub(1.0));
        let mut out = io::sink();
        let code = execute("stub", &body, &[], &args, &mut out).ok();
        assert_eq!(code, Some(ExitCode::SUCCESS));
        let record = BenchRecord::load(&dir.join("BENCH_stub.json")).expect("record written");
        assert!(
            !record.manifest_hash.is_empty(),
            "stamped with the manifest"
        );
        let tail = || {
            let journal =
                pulp_obs::JournalReader::read_file(&dir.join("run.jsonl")).expect("journal");
            journal
                .events
                .iter()
                .filter_map(|e| match e {
                    pulp_obs::JournalEvent::BenchRecord { name, value, .. } => {
                        Some((name.clone(), *value))
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(tail(), [("x".to_string(), 1.0)]);
        // A breached limit fails the run, but the record is still written
        // and journalled.
        for file in ["BENCH_stub.json", "run.jsonl"] {
            std::fs::remove_file(dir.join(file)).expect("remove");
        }
        let body = Standalone(|_| stub(2.0));
        let code = execute("stub", &body, &[], &args, &mut out).ok();
        assert_eq!(code, Some(ExitCode::FAILURE));
        let record = BenchRecord::load(&dir.join("BENCH_stub.json")).expect("record written");
        assert_eq!(record.get("x").map(|m| m.value), Some(2.0));
        assert_eq!(tail(), [("x".to_string(), 2.0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bench_manifests_hash_the_options_the_bench_reads() {
        let dir = scratch("options");
        let (_, _, sim_options) = BENCHES.iter().find(|(n, ..)| *n == "sim").expect("sim");
        let hash = |iters: Option<u32>| {
            let args = Args {
                quick: true,
                iters,
                out: Some(dir.join("BENCH_stub.json")),
                manifest: Some(dir.join("manifest.json")),
                quiet: true,
                ..Args::default()
            };
            let body = Standalone(|_| stub(1.0));
            let options = sim_options(&args);
            let code = execute("bench_sim", &body, &options, &args, &mut io::sink()).ok();
            assert_eq!(code, Some(ExitCode::SUCCESS));
            let record = BenchRecord::load(&dir.join("BENCH_stub.json")).expect("record");
            record.manifest_hash
        };
        assert_ne!(hash(Some(1)), hash(None), "--iters must reach the manifest");
        // The resolved value is recorded, not the flag as typed.
        let quick_iters = crate::SimBenchOptions::quick().iters;
        assert_eq!(hash(Some(quick_iters)), hash(None));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_writes_the_json_record_and_the_manifest_under_the_tool_name() {
        let dir = std::env::temp_dir().join(format!("pulp-repro-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let args = Args {
            json: Some(dir.join("t1.json")),
            manifest: Some(dir.join("manifest.json")),
            quiet: true,
            ..Args::default()
        };
        let mut out = Vec::new();
        let code = run("table1_energy_model", &args, &mut out).ok();
        assert_eq!(code, Some(ExitCode::SUCCESS));
        let table = String::from_utf8(out).expect("utf-8");
        assert!(table.starts_with("E1 / Table I"), "{table}");
        let rows: serde::Value = serde_json::from_str(
            &std::fs::read_to_string(dir.join("t1.json")).expect("json written"),
        )
        .expect("json parses");
        assert_eq!(rows.as_seq().expect("one row per class").len(), 6);
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
        assert!(manifest.contains("\"table1_energy_model\""), "{manifest}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_dataset_build_is_an_error_exit_not_a_panic() {
        // 1982 cycles is below what `polybench/gemm/i32/512` needs, so the
        // cold build fails on that sample's cycle budget.
        let dir = std::env::temp_dir().join(format!("pulp-repro-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = Args {
            quick: true,
            max_cycles: Some(1982),
            cache_dir: Some(dir.clone()),
            no_manifest: true,
            quiet: true,
            ..Args::default()
        };
        let code = run("headline", &args, &mut io::sink()).ok();
        assert_eq!(code, Some(ExitCode::FAILURE));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
