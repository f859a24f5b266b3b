//! # pulp-bench — experiment harness
//!
//! Everything runs through one binary, `pulp_cli`. Each table and figure
//! of the paper (see DESIGN.md §5 and EXPERIMENTS.md) is one entry of the
//! [`repro`] registry, run as `pulp_cli repro <name>`; the benches behind
//! `pulp_cli bench sim|serve|models` are entries of its bench table, run
//! by the same runner, and write [`BenchRecord`]s. [`Args`] is the one
//! command line they all share. Every experiment accepts:
//!
//! * `--quick` — reduced dataset (subset of kernels, 2 payload sizes) and
//!   reduced CV protocol; for smoke-testing the harness.
//! * `--json <path>` — dump the machine-readable record next to the text
//!   report.
//! * `--threads <n>` — simulation worker threads (default: all cores).
//! * `--cv-threads <n>` — cross-validation worker threads (default: all
//!   cores; predictions are bit-identical at any value).
//! * `--cache-dir <dir>` — content-addressed sweep cache directory
//!   (default: `pulp-sweep-cache` in the cargo target directory, see
//!   [`Args::sweep_cache_dir`]); repeat runs skip every previously
//!   simulated sample.
//! * `--progress` — per-sample progress lines on stderr during the sweep.
//! * `--quiet` — suppress informational stderr chatter.
//! * `--journal <path>`, `--manifest <path>`, `--no-manifest` — run
//!   journal and run manifest (see [`Args`]).
//!
//! The sweep cache is the only dataset cache: its entries are keyed by
//! sample, cluster config, energy model and the simulator, model and
//! format versions, so a version bump re-simulates instead of reusing
//! stale labels.

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
pub use profiling::{profile_run, recorder_of_run, CauseRun, CoreTimeline, ProfiledRun};
pub use record::{BenchRecord, Better, Tolerance};
pub use serve_bench::{
    run_serve_bench, OpenLoopReport, ServeBenchMixRow, ServeBenchOptions, ServeBenchReport,
    ServeBenchRun,
};
pub use sim_bench::{basket_program, run_sim_bench, SimBenchOptions, SimBenchReport, SimBenchRow};

use pulp_energy::pipeline::{BuildDatasetError, BuildObserver, LabeledDataset, PipelineOptions};
use pulp_obs::{JournalWriter, Recorder};

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

/// Builds the dataset through the sweep cache of `opts` (see
/// [`Args::pipeline_options`]). `--quiet` suppresses the stderr chatter;
/// `--progress` (already folded into `opts`) adds per-sample lines.
///
/// With a run journal, the build's stage events, per-shard heartbeats,
/// slow kernels and cache attribution are appended to `journal`, and the
/// `--progress` line (with rate and ETA) goes through the
/// [`Args::logger`] — so `--log-json` yields machine-readable progress
/// too.
///
/// # Errors
///
/// Returns the build error, which names the failing sample.
pub fn load_or_build_dataset(
    opts: &PipelineOptions,
    args: &Args,
    journal: Option<&mut JournalWriter>,
) -> Result<LabeledDataset, BuildDatasetError> {
    let quiet = args.quiet;
    let log = args.logger();
    if !quiet {
        log.info(
            "dataset",
            "building (simulates at 1..=8 cores every sample the sweep cache lacks)",
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
    )?;
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
    Ok(data)
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
    fn the_default_cache_is_the_sweep_cache_under_the_target_dir() {
        // No `--cache-dir`: every command still reads the dataset through
        // the content-addressed sweep cache.
        let opts = Args::default().pipeline_options();
        let cache = opts.cache.expect("a default sweep cache");
        assert!(
            cache.dir().ends_with("pulp-sweep-cache"),
            "{:?}",
            cache.dir()
        );
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
