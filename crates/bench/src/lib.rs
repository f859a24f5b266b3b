//! # pulp-bench — experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §5 and
//! EXPERIMENTS.md), plus Criterion micro-benchmarks of the substrates.
//!
//! All experiment binaries accept:
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
//!
//! Without `--cache-dir` the full dataset build (448 samples × 8 team
//! sizes) is cached wholesale on disk (`target/pulp-dataset-*.json`) so
//! consecutive experiments reuse it; with `--cache-dir` that coarse cache
//! is bypassed in favour of the per-sample sweep cache.

pub mod models_bench;
pub mod net;
pub mod profiling;
pub mod record;
pub mod serve;
pub mod serve_bench;
pub mod sim_bench;

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
use pulp_energy::{Protocol, RunManifest, SweepCache};
use pulp_obs::{JournalEvent, JournalWriter, LogFormat, Logger, Recorder};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Usage text printed when a common flag is given an invalid value.
pub const COMMON_USAGE: &str = "common options:
  --quick             reduced dataset + reduced CV protocol
  --json <path>       dump the machine-readable record to <path>
  --threads <n>       simulation worker threads (0 = all cores)
  --cv-threads <n>    cross-validation worker threads (0 = all cores)
  --cache-dir <dir>   content-addressed sweep cache directory
  --progress          per-sample progress lines on stderr
  --quiet             suppress informational stderr chatter
  --log-json          JSON-lines structured logs on stderr (default: text)
  --manifest <path>   run-manifest output path (default: manifest.json)
  --no-manifest       skip writing the run manifest
  --max-cycles <n>    per-run simulation cycle budget (positive integer)
  --journal <path>    append-only JSONL run journal (read with `pulp_cli report`)";

/// Parsed common command-line options.
#[derive(Debug, Clone, Default)]
pub struct CommonArgs {
    /// Reduced dataset + protocol.
    pub quick: bool,
    /// Optional JSON dump path.
    pub json: Option<PathBuf>,
    /// Simulation threads (0 = all).
    pub threads: usize,
    /// Cross-validation threads (0 = all).
    pub cv_threads: usize,
    /// Sweep-cache directory (`--cache-dir`).
    pub cache_dir: Option<PathBuf>,
    /// Per-sample progress on stderr (`--progress`).
    pub progress: bool,
    /// Suppress informational stderr chatter (`--quiet`).
    pub quiet: bool,
    /// Structured JSON-lines logs instead of `[stage] message` text
    /// (`--log-json`).
    pub log_json: bool,
    /// Run-manifest output path (`--manifest`; default `manifest.json`).
    pub manifest: Option<PathBuf>,
    /// Skip the run manifest entirely (`--no-manifest`).
    pub no_manifest: bool,
    /// Per-run simulation cycle budget (`--max-cycles`; `None` = the
    /// simulator default).
    pub max_cycles: Option<u64>,
    /// Run-journal output path (`--journal`); `None` = no journal.
    pub journal: Option<PathBuf>,
}

fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    match args.next() {
        Some(v) if !v.starts_with("--") => Ok(v),
        _ => Err(format!("{flag} requires a value")),
    }
}

fn numeric_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    let v = flag_value(args, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} expects a non-negative integer, got `{v}`"))
}

fn positive_u64_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<u64, String> {
    let v = flag_value(args, flag)?;
    match v.parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} expects a positive integer, got `{v}`")),
    }
}

impl CommonArgs {
    /// Parses `std::env::args`; invalid values for known flags print the
    /// usage message and exit with status 2 instead of panicking or being
    /// silently replaced by a default.
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}\n\n{COMMON_USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// [`parse`](Self::parse) over an explicit argument list (testable).
    ///
    /// Unknown flags and bare tokens are ignored — binaries with extra
    /// options (e.g. `telemetry_guard --iters 31`) share this parser — but
    /// a known flag with a missing or malformed value is an error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending flag.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Self::default();
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => out.quick = true,
                "--json" => out.json = Some(PathBuf::from(flag_value(&mut args, "--json")?)),
                "--threads" => out.threads = numeric_value(&mut args, "--threads")?,
                "--cv-threads" => out.cv_threads = numeric_value(&mut args, "--cv-threads")?,
                "--cache-dir" => {
                    out.cache_dir = Some(PathBuf::from(flag_value(&mut args, "--cache-dir")?));
                }
                "--progress" => out.progress = true,
                "--quiet" => out.quiet = true,
                "--log-json" => out.log_json = true,
                "--manifest" => {
                    out.manifest = Some(PathBuf::from(flag_value(&mut args, "--manifest")?));
                }
                "--no-manifest" => out.no_manifest = true,
                "--max-cycles" => {
                    out.max_cycles = Some(positive_u64_value(&mut args, "--max-cycles")?);
                }
                "--journal" => {
                    out.journal = Some(PathBuf::from(flag_value(&mut args, "--journal")?));
                }
                _ => {}
            }
        }
        Ok(out)
    }

    /// The pipeline options implied by these arguments. Opens the sweep
    /// cache when `--cache-dir` was given (an unopenable directory warns
    /// and degrades to uncached simulation).
    pub fn pipeline_options(&self) -> PipelineOptions {
        let mut opts = if self.quick {
            PipelineOptions::quick(QUICK_KERNELS)
        } else {
            PipelineOptions::default()
        };
        opts.threads = self.threads;
        // `--quiet` wins over `--progress`: a quiet run emits no live
        // progress/ETA lines even when both flags are given.
        opts.progress = self.progress && !self.quiet;
        if let Some(max_cycles) = self.max_cycles {
            opts.max_cycles = max_cycles;
        }
        if let Some(dir) = &self.cache_dir {
            match SweepCache::new(dir) {
                Ok(cache) => opts.cache = Some(Arc::new(cache)),
                Err(e) => eprintln!(
                    "warning: cannot open cache dir {}: {e}; continuing uncached",
                    dir.display()
                ),
            }
        }
        opts
    }

    /// The evaluation protocol implied by these arguments.
    pub fn protocol(&self) -> Protocol {
        let base = if self.quick {
            Protocol::quick()
        } else {
            Protocol::default()
        };
        Protocol {
            cv_threads: self.cv_threads,
            ..base
        }
    }

    /// The structured logger implied by these arguments: JSON-lines under
    /// `--log-json`, the historical `[stage] message` text otherwise.
    pub fn logger(&self) -> Logger {
        Logger::new(if self.log_json {
            LogFormat::Json
        } else {
            LogFormat::Text
        })
    }

    /// Writes the run manifest for `tool` (unless `--no-manifest`):
    /// versions, config/model hashes (sweep-cache keying), protocol, seed,
    /// cache counters and wall time since `start`. The default path is
    /// `manifest.json` in the working directory — next to the binary's
    /// report output — overridable with `--manifest <path>`.
    ///
    /// Returns the manifest written (also when writing was skipped or
    /// failed), so binaries can embed its hash in their own reports.
    pub fn write_manifest(
        &self,
        tool: &str,
        opts: &PipelineOptions,
        protocol: Option<&Protocol>,
        start: Instant,
    ) -> RunManifest {
        let mut m = RunManifest::new(tool, &opts.config, &opts.model)
            .with_extra("quick", self.quick)
            .with_wall_time_ms(start.elapsed().as_millis() as u64);
        if let Some(p) = protocol {
            m = m.with_protocol(*p);
        }
        if let Some(cache) = &opts.cache {
            m = m.with_cache_stats(cache.stats());
        }
        if self.no_manifest {
            return m;
        }
        let path = self
            .manifest
            .clone()
            .unwrap_or_else(|| PathBuf::from("manifest.json"));
        if let Err(e) = m.write(&path) {
            self.logger().warn(
                "manifest",
                "cannot write manifest",
                &[
                    ("path", path.display().to_string()),
                    ("error", e.to_string()),
                ],
            );
        } else if !self.quiet {
            self.logger().info(
                "manifest",
                "written",
                &[
                    ("path", path.display().to_string()),
                    ("hash", m.manifest_hash()),
                ],
            );
        }
        m
    }

    /// Opens the run journal when `--journal` was given. The run id is
    /// seeded from the **pre-run** manifest hash — the same provenance
    /// [`write_manifest`](Self::write_manifest) records minus the fields
    /// only known at exit (wall time, cache counters) — so the id is
    /// stable for identical inputs and computable before the run starts.
    ///
    /// An unopenable path warns and degrades to no journal; observability
    /// must never fail the experiment.
    pub fn journal_writer(
        &self,
        tool: &str,
        opts: &PipelineOptions,
        protocol: Option<&Protocol>,
    ) -> Option<JournalWriter> {
        let path = self.journal.as_ref()?;
        let mut pre =
            RunManifest::new(tool, &opts.config, &opts.model).with_extra("quick", self.quick);
        if let Some(p) = protocol {
            pre = pre.with_protocol(*p);
        }
        match JournalWriter::create(path, tool, &pre.manifest_hash(), pre.seed) {
            Ok(w) => Some(w),
            Err(e) => {
                self.logger().warn(
                    "journal",
                    "cannot open journal; continuing without one",
                    &[
                        ("path", path.display().to_string()),
                        ("error", e.to_string()),
                    ],
                );
                None
            }
        }
    }

    /// Finalizes `journal` (writing the `run_end` record) and, unless
    /// `--quiet`, logs where it landed.
    pub fn finish_journal(&self, journal: Option<JournalWriter>) {
        let Some(journal) = journal else { return };
        let run_id = journal.run_id().to_string();
        if let Err(e) = journal.finalize() {
            self.logger()
                .warn("journal", "finalize failed", &[("error", e.to_string())]);
        } else if !self.quiet {
            if let Some(path) = &self.journal {
                self.logger().info(
                    "journal",
                    "written",
                    &[("path", path.display().to_string()), ("run", run_id)],
                );
            }
        }
    }

    /// Writes `record` as pretty JSON if `--json` was given.
    pub fn dump_json<T: serde::Serialize>(&self, record: &T) {
        if let Some(path) = &self.json {
            match serde_json::to_string_pretty(record) {
                Ok(s) => {
                    if let Err(e) = std::fs::write(path, s) {
                        eprintln!("warning: cannot write {}: {e}", path.display());
                    }
                }
                Err(e) => eprintln!("warning: cannot serialise record: {e}"),
            }
        }
    }
}

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
/// into `opts` by [`CommonArgs::pipeline_options`]) adds per-sample lines.
///
/// # Panics
///
/// Panics when the dataset cannot be built — experiments cannot proceed
/// without it.
pub fn load_or_build_dataset(opts: &PipelineOptions, args: &CommonArgs) -> LabeledDataset {
    load_or_build_dataset_observed(opts, args, None)
}

/// [`load_or_build_dataset`] with an optional run journal: the build's
/// stage events, per-shard heartbeats, slow kernels and cache attribution
/// are appended to `journal`, and the `--progress` line (with ETA and
/// straggler flags) goes through the binary's [`Logger`] — so `--log-json`
/// yields machine-readable progress too. A dataset reused from the coarse
/// JSON cache journals a `dataset_load` stage instead of a build.
///
/// # Panics
///
/// See [`load_or_build_dataset`].
pub fn load_or_build_dataset_observed(
    opts: &PipelineOptions,
    args: &CommonArgs,
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
        let args = CommonArgs {
            quick: true,
            threads: 2,
            progress: true,
            ..CommonArgs::default()
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

    fn parse(tokens: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::parse_from(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parser_accepts_the_new_flags() {
        let args = parse(&[
            "--quick",
            "--threads",
            "3",
            "--cv-threads",
            "4",
            "--cache-dir",
            "/tmp/sweeps",
            "--quiet",
        ])
        .expect("valid");
        assert!(args.quick && args.quiet);
        assert_eq!(args.threads, 3);
        assert_eq!(args.cv_threads, 4);
        assert_eq!(args.cache_dir.as_deref(), Some(Path::new("/tmp/sweeps")));
        assert_eq!(args.protocol().cv_threads, 4);
    }

    #[test]
    fn parser_rejects_malformed_numeric_values() {
        // Regression: `--threads banana` used to silently become 0.
        let err = parse(&["--threads", "banana"]).unwrap_err();
        assert!(err.contains("--threads") && err.contains("banana"), "{err}");
        let err = parse(&["--cv-threads", "-1"]).unwrap_err();
        assert!(err.contains("--cv-threads"), "{err}");
        let err = parse(&["--threads"]).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let err = parse(&["--cache-dir", "--quick"]).unwrap_err();
        assert!(err.contains("--cache-dir"), "{err}");
        let err = parse(&["--json"]).unwrap_err();
        assert!(err.contains("--json"), "{err}");
    }

    #[test]
    fn parser_still_ignores_foreign_flags() {
        // telemetry_guard shares this parser and adds its own options.
        let args = parse(&["--iters", "31", "--threshold", "2", "--strict", "--quick"])
            .expect("foreign flags pass through");
        assert!(args.quick);
        assert_eq!(args.threads, 0);
    }

    #[test]
    fn max_cycles_parses_strictly_and_reaches_the_pipeline() {
        let args = parse(&["--max-cycles", "5000"]).expect("valid");
        assert_eq!(args.max_cycles, Some(5000));
        assert_eq!(args.pipeline_options().max_cycles, 5000);
        // Unset: the simulator default flows through.
        let args = parse(&[]).expect("valid");
        assert_eq!(args.max_cycles, None);
        assert_eq!(
            args.pipeline_options().max_cycles,
            pulp_sim::DEFAULT_MAX_CYCLES
        );
        // Strict parsing: zero, negatives and garbage are rejected.
        for bad in [
            &["--max-cycles", "0"][..],
            &["--max-cycles", "-5"],
            &["--max-cycles", "many"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("--max-cycles"), "{err}");
        }
        let err = parse(&["--max-cycles"]).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn journal_flag_parses_and_quiet_wins_over_progress() {
        let args = parse(&["--journal", "/tmp/run.jsonl", "--progress", "--quiet"]).expect("valid");
        assert_eq!(args.journal.as_deref(), Some(Path::new("/tmp/run.jsonl")));
        assert!(
            !args.pipeline_options().progress,
            "--quiet must suppress --progress"
        );
        let loud = parse(&["--progress"]).expect("valid");
        assert!(loud.pipeline_options().progress);
        let err = parse(&["--journal"]).unwrap_err();
        assert!(err.contains("--journal"), "{err}");
        assert!(parse(&[]).expect("valid").journal.is_none());
    }

    #[test]
    fn journal_writer_opens_seeded_and_finalizes() {
        let path =
            std::env::temp_dir().join(format!("pulp-bench-journal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let args = CommonArgs {
            quick: true,
            journal: Some(path.clone()),
            quiet: true,
            ..CommonArgs::default()
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
        assert!(CommonArgs::default()
            .journal_writer("t", &opts, None)
            .is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_dir_opens_a_sweep_cache() {
        let dir = std::env::temp_dir().join(format!("pulp-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let args = CommonArgs {
            cache_dir: Some(dir.clone()),
            ..CommonArgs::default()
        };
        let opts = args.pipeline_options();
        assert!(opts.cache.is_some());
        assert!(dir.is_dir(), "cache dir must be created eagerly");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
