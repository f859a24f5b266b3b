//! `pulp_cli repro <name>` — every table and figure of the paper (E1–E6),
//! the extensions (E7, E9–E12) and the dataset and profiling utilities,
//! one [`EXPERIMENTS`] entry each.
//!
//! [`run`] does the steps every experiment shares, once: it starts the
//! timer, builds the pipeline options and protocol from [`Args`], opens
//! the run journal, loads the dataset for the experiments that read it,
//! writes the `--json` dump and the run manifest, and writes the bench
//! record of the experiments that produce one. An experiment body keeps
//! only its computation and its printing.
//!
//! Each registry name is also the manifest and journal `tool` string, so
//! a manifest hash or journal run id depends only on the experiment and
//! its inputs. Cross-validated experiments ([`Experiment::Evaluation`])
//! also record their evaluation protocol.

mod extensions;
mod paper;
mod tools;

use crate::{load_or_build_dataset, Args, BenchRecord};
use pulp_energy::pipeline::{LabeledDataset, PipelineOptions};
use pulp_energy::Protocol;
use pulp_obs::{JournalEvent, JournalWriter};
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use Experiment::{Dataset, Evaluation, Standalone};

/// An experiment body, by what the shared steps prepare for it.
pub enum Experiment {
    /// Needs no dataset.
    Standalone(fn(&mut Run) -> Result<Output, String>),
    /// Reads the labelled dataset.
    Dataset(fn(&mut Run, &LabeledDataset) -> Result<Output, String>),
    /// Cross-validates on the labelled dataset: the evaluation protocol
    /// is part of the run's provenance (manifest and journal run id).
    Evaluation(fn(&mut Run, &LabeledDataset) -> Result<Output, String>),
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
}

impl Run<'_> {
    /// Appends `ev` to the run journal, if any. A failed write warns and
    /// never fails the experiment.
    pub(crate) fn journal_event(&mut self, ev: JournalEvent) {
        if let Some(j) = &mut self.journal {
            if let Err(e) = j.event(ev) {
                eprintln!("[journal] warning: journal write failed: {e}");
            }
        }
    }
}

/// What an experiment body returns to the shared steps.
pub struct Output {
    /// The `--json` record.
    json: Value,
    /// The bench record to journal and write (`--out`).
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

/// Runs the experiment called `name` with `args`.
pub fn run(name: &str, args: &Args) -> ExitCode {
    let Some((tool, exp)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
        eprintln!("error: unknown experiment `{name}`; `pulp_cli repro` lists them");
        return ExitCode::from(2);
    };
    let start = Instant::now();
    let opts = args.pipeline_options();
    let protocol = args.protocol();
    let provenance = matches!(exp, Evaluation(_)).then_some(&protocol);
    let journal = args.journal_writer(tool, &opts, provenance);
    let mut run = Run {
        args,
        start,
        opts,
        protocol,
        journal,
    };
    let outcome = match exp {
        Standalone(body) => body(&mut run),
        Dataset(body) | Evaluation(body) => {
            match load_or_build_dataset(&run.opts, args, run.journal.as_mut()) {
                Ok(data) => body(&mut run, &data),
                Err(e) => Err(format!("dataset build failed: {e}")),
            }
        }
    };
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    args.dump_json(&out.json);
    let Run {
        opts, mut journal, ..
    } = run;
    // Every figure of the bench record lands in the journal tail, so
    // `pulp_cli bench history` can read trajectories from journals alone.
    if let (Some(record), Some(j)) = (&out.bench, journal.as_mut()) {
        if let Err(e) = record.journal(j) {
            eprintln!("[journal] warning: journal write failed: {e}");
        }
    }
    args.finish_journal(journal);
    let manifest = args.write_manifest(tool, &opts, provenance, start);
    if let Some(mut record) = out.bench {
        record.manifest_hash = manifest.manifest_hash();
        let path = args
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", record.bench)));
        match record.write(&path) {
            Err(e) => eprintln!("warning: {e}"),
            Ok(()) if !args.quiet => args.logger().info(
                "bench",
                &format!("{} record written", record.bench),
                &[("path", path.display().to_string())],
            ),
            Ok(()) => {}
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_unknown_names_are_usage_errors() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 13);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13, "duplicate registry name");
        assert_eq!(run("nope", &Args::default()), ExitCode::from(2));
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
        assert_eq!(run("table1_energy_model", &args), ExitCode::SUCCESS);
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
        assert_eq!(run("headline", &args), ExitCode::FAILURE);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
