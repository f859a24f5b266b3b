//! # pulp-bench — experiment harness
//!
//! Everything runs through one binary, `pulp_cli`. Each table and figure
//! of the paper (see DESIGN.md §5 and EXPERIMENTS.md) is one entry of the
//! [`repro`] registry, run as `pulp_cli repro <name>`; the benches behind
//! `pulp_cli bench sim|serve|models` write [`BenchRecord`]s. [`Args`] is
//! the one command line they all share. Every experiment accepts:
//!
//! * `--quick` — reduced dataset (subset of kernels, 2 payload sizes) and
//!   reduced CV protocol; for smoke-testing the harness.
//! * `--json <path>` — dump the machine-readable record next to the text
//!   report.
//! * `--threads <n>` — simulation worker threads (default: all cores).
//! * `--cv-threads <n>` — cross-validation worker threads (default: all
//!   cores; predictions are bit-identical at any value).
//! * `--cache-dir <dir>` — content-addressed sweep cache; repeat runs skip
//!   every previously simulated sample.
//! * `--progress` — per-sample progress lines on stderr during the sweep.
//! * `--quiet` — suppress informational stderr chatter.
//! * `--journal <path>`, `--manifest <path>`, `--no-manifest` — run
//!   journal and run manifest (see [`Args`]).
//!
//! Without `--cache-dir` the full dataset build (448 samples × 8 team
//! sizes) is cached wholesale on disk (`target/pulp-dataset-*.json`) so
//! consecutive experiments reuse it; with `--cache-dir` that coarse cache
//! is bypassed in favour of the per-sample sweep cache.

pub mod cli;
pub mod models_bench;
pub mod net;
pub mod profiling;
pub mod record;
pub mod repro;
pub mod serve;
pub mod serve_bench;
pub mod sim_bench;

pub use cli::Args;
pub use models_bench::{run_models_bench, ModelsBenchReport, ModelsBenchRow, MODELS};
pub use profiling::{
    chrome_trace_of_run, profile_run, recorder_of_run, CauseRun, CoreTimeline, ProfiledRun,
};
pub use record::{BenchRecord, Better, Tolerance};
pub use serve_bench::{
    run_serve_bench, OpenLoopReport, ServeBenchMixRow, ServeBenchOptions, ServeBenchReport,
    ServeBenchRun,
};
pub use sim_bench::{basket_program, run_sim_bench, SimBenchOptions, SimBenchReport, SimBenchRow};

use pulp_energy::pipeline::{BuildObserver, LabeledDataset, PipelineOptions};
use pulp_obs::{JournalEvent, JournalWriter, Recorder};
use std::path::{Path, PathBuf};

/// Kernel subset used by `--quick` runs: one representative per behaviour
/// class.
pub const QUICK_KERNELS: &[&str] = &[
    "gemm",
    "fir",
    "vec_scale",
    "fpu_storm",
    "bank_hammer",
    "reduction_critical",
    "compute_dense",
    "l2_stream",
];

/// Builds the dataset, reusing an on-disk cache when the options match.
/// `--quiet` suppresses the stderr chatter; `--progress` (already folded
/// into `opts` by [`Args::pipeline_options`]) adds per-sample lines.
///
/// With a run journal, the build's stage events, per-shard heartbeats,
/// slow kernels and cache attribution are appended to `journal`, and the
/// `--progress` line (with ETA and straggler flags) goes through the
/// [`Args::logger`] — so `--log-json` yields machine-readable progress
/// too. A dataset reused from the coarse JSON cache journals a
/// `dataset_load` stage instead of a build.
///
/// # Panics
///
/// Panics when the dataset cannot be built — experiments cannot proceed
/// without it.
pub fn load_or_build_dataset(
    opts: &PipelineOptions,
    args: &Args,
    mut journal: Option<&mut JournalWriter>,
) -> LabeledDataset {
    let quiet = args.quiet;
    let log = args.logger();
    let journal_stage = |journal: &mut Option<&mut JournalWriter>, ev: JournalEvent| {
        if let Some(j) = journal {
            if let Err(e) = j.event(ev) {
                eprintln!("[dataset] warning: journal write failed: {e}");
            }
        }
    };
    // With a sweep cache the per-sample entries are the source of truth:
    // the coarse whole-dataset JSON cache is bypassed so every sample goes
    // through (and populates) the content-addressed store.
    let dataset_cache = if opts.cache.is_none() {
        Some(cache_path(args.quick))
    } else {
        None
    };
    if let Some(cache) = &dataset_cache {
        let load_t0 = std::time::Instant::now();
        if let Ok(text) = std::fs::read_to_string(cache) {
            if let Ok(data) = serde_json::from_str::<LabeledDataset>(&text) {
                if !quiet {
                    log.info(
                        "dataset",
                        "reusing cache",
                        &[("path", cache.display().to_string())],
                    );
                }
                journal_stage(
                    &mut journal,
                    JournalEvent::StageStart {
                        stage: "dataset_load".into(),
                    },
                );
                journal_stage(
                    &mut journal,
                    JournalEvent::StageEnd {
                        stage: "dataset_load".into(),
                        wall_ms: load_t0.elapsed().as_secs_f64() * 1e3,
                    },
                );
                return data;
            }
        }
    }
    if !quiet {
        log.info(
            "dataset",
            "building (this simulates every sample at 1..=8 cores)",
            &[(
                "kernels",
                opts.kernel_filter.as_ref().map_or(59, Vec::len).to_string(),
            )],
        );
    }
    let start = std::time::Instant::now();
    let mut rec = Recorder::new();
    let data = LabeledDataset::build_observed(
        opts,
        &mut rec,
        BuildObserver {
            journal,
            logger: Some(&log),
        },
    )
    .expect("dataset build failed");
    if !quiet {
        log.info(
            "dataset",
            "built",
            &[
                ("samples", data.len().to_string()),
                ("elapsed", format!("{:.1?}", start.elapsed())),
            ],
        );
    }
    if let Some(sweep) = &opts.cache {
        // In text mode this renders exactly as the historical
        // `[cache] N hits, ...` line the CI warm-cache check asserts on: a
        // warm run must report a 100% hit rate (zero simulator
        // invocations).
        log.info("cache", &sweep.stats().to_string(), &[]);
    }
    if let Some(cache) = &dataset_cache {
        if let Ok(s) = serde_json::to_string(&data) {
            if std::fs::write(cache, s).is_ok() && !quiet {
                log.info(
                    "dataset",
                    "cached",
                    &[("path", cache.display().to_string())],
                );
            }
        }
    }
    data
}

fn cache_path(quick: bool) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(find_target_dir);
    dir.join(if quick {
        "pulp-dataset-quick.json"
    } else {
        "pulp-dataset-full.json"
    })
}

fn find_target_dir() -> PathBuf {
    // Walk up from the executable towards a `target` directory; fall back
    // to the current directory.
    if let Ok(exe) = std::env::current_exe() {
        let mut p: &Path = exe.as_path();
        while let Some(parent) = p.parent() {
            if parent.file_name().is_some_and(|n| n == "target") {
                return parent.to_path_buf();
            }
            p = parent;
        }
    }
    PathBuf::from(".")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_kernels_exist_in_registry() {
        let names: Vec<&str> = pulp_kernels::registry().iter().map(|d| d.name).collect();
        for k in QUICK_KERNELS {
            assert!(names.contains(k), "unknown quick kernel {k}");
        }
    }

    #[test]
    fn pipeline_options_respect_quick() {
        let args = Args {
            quick: true,
            threads: 2,
            progress: true,
            ..Args::default()
        };
        let opts = args.pipeline_options();
        assert_eq!(opts.threads, 2);
        assert!(opts.progress);
        assert!(opts.cache.is_none());
        assert_eq!(
            opts.kernel_filter.as_ref().map(Vec::len),
            Some(QUICK_KERNELS.len())
        );
        assert_eq!(
            args.protocol().repeats,
            pulp_energy::Protocol::quick().repeats
        );
    }

    /// `repro fig2_left` with `flags` appended, parsed.
    fn parse(flags: &str) -> Result<Args, String> {
        let line = format!("repro fig2_left {flags}");
        Args::parse_from(line.split_whitespace().map(str::to_string))
    }

    /// `repro fig2_left` with `edit` applied: the expected parse of one
    /// parser-table row.
    fn repro(edit: fn(&mut Args)) -> Result<Args, &'static str> {
        let mut a = Args {
            command: "repro".into(),
            operands: vec!["fig2_left".into()],
            ..Args::default()
        };
        edit(&mut a);
        Ok(a)
    }

    /// Parser-table rows: the flags of a `repro fig2_left` command line and
    /// either the expected [`Args`] or a substring of the error.
    fn check_rows(rows: Vec<(&str, Result<Args, &str>)>) {
        for (flags, expect) in rows {
            match (parse(flags), expect) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{flags:?}"),
                (Err(err), Err(want)) => assert!(err.contains(want), "{flags:?}: {err}"),
                (got, want) => panic!("{flags:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn parser_accepts_the_new_flags() {
        check_rows(vec![
            (
                "--quick --threads 3 --cv-threads 4 --cache-dir /tmp/sweeps --quiet",
                repro(|a| {
                    a.quick = true;
                    a.quiet = true;
                    a.threads = 3;
                    a.cv_threads = 4;
                    a.cache_dir = Some("/tmp/sweeps".into());
                }),
            ),
            // 0 = all cores, as everywhere else.
            ("--cv-threads 0", repro(|_| {})),
        ]);
        let args = parse("--cv-threads 4").expect("valid");
        assert_eq!(args.protocol().cv_threads, 4);
    }

    #[test]
    fn parser_rejects_malformed_numeric_values() {
        check_rows(vec![
            // Regression: `--threads banana` used to silently become 0.
            ("--threads banana", Err("--threads expects")),
            ("--threads banana", Err("`banana`")),
            ("--cv-threads -1", Err("--cv-threads")),
            ("--threads", Err("--threads requires a value")),
            ("--cache-dir --quick", Err("--cache-dir requires a value")),
            ("--json", Err("--json requires a value")),
            // Foreign flags no longer pass through: one parser, one set.
            (
                "--iters 31 --threshold 2",
                Err("unknown flag `--threshold`"),
            ),
        ]);
    }

    #[test]
    fn max_cycles_parses_strictly_and_reaches_the_pipeline() {
        check_rows(vec![
            ("--max-cycles 5000", repro(|a| a.max_cycles = Some(5000))),
            ("--max-cycles 0", Err("--max-cycles expects")),
            ("--max-cycles -5", Err("--max-cycles expects")),
            ("--max-cycles many", Err("--max-cycles expects")),
            ("--max-cycles", Err("--max-cycles requires a value")),
        ]);
        let args = parse("--max-cycles 5000").expect("valid");
        assert_eq!(args.pipeline_options().max_cycles, 5000);
        // Unset: the simulator default flows through.
        assert_eq!(
            Args::default().pipeline_options().max_cycles,
            pulp_sim::DEFAULT_MAX_CYCLES
        );
    }

    #[test]
    fn journal_flag_parses_and_quiet_wins_over_progress() {
        check_rows(vec![
            (
                "--journal /tmp/run.jsonl --progress --quiet",
                repro(|a| {
                    a.journal = Some("/tmp/run.jsonl".into());
                    a.progress = true;
                    a.quiet = true;
                }),
            ),
            ("--journal", Err("--journal")),
        ]);
        let quiet = parse("--progress --quiet").expect("valid");
        assert!(
            !quiet.pipeline_options().progress,
            "--quiet must suppress --progress"
        );
        let loud = parse("--progress").expect("valid");
        assert!(loud.pipeline_options().progress);
    }

    #[test]
    fn journal_writer_opens_seeded_and_finalizes() {
        let path =
            std::env::temp_dir().join(format!("pulp-bench-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let args = Args {
            quick: true,
            journal: Some(path.clone()),
            quiet: true,
            ..Args::default()
        };
        let opts = args.pipeline_options();
        let protocol = args.protocol();
        let w = args
            .journal_writer("test_tool", &opts, Some(&protocol))
            .expect("journal opens");
        // Run id derives from the pre-run manifest: stable across calls.
        let run_id = w.run_id().to_string();
        args.finish_journal(Some(w));
        let journal = pulp_obs::JournalReader::read_file(&path).expect("valid journal");
        assert_eq!(journal.run_id, run_id);
        assert!(journal.ok());
        let (tool, _, seed) = journal.run_start();
        assert_eq!(tool, "test_tool");
        assert_eq!(seed, protocol.seed);
        let again = args
            .journal_writer("test_tool", &opts, Some(&protocol))
            .expect("journal reopens");
        assert_eq!(again.run_id(), run_id, "run id is deterministic");
        drop(again);
        // No journal flag → no writer.
        assert!(Args::default().journal_writer("t", &opts, None).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_dir_opens_a_sweep_cache() {
        let dir = std::env::temp_dir().join(format!("pulp-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = Args {
            cache_dir: Some(dir.clone()),
            ..Args::default()
        };
        let opts = args.pipeline_options();
        assert!(opts.cache.is_some());
        assert!(dir.is_dir(), "cache dir must be created eagerly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
