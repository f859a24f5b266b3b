//! The command line of `pulp_cli`: one [`Args`] struct and one strict
//! parser for every subcommand, every `repro` experiment and every bench.
//!
//! A flag means the same thing wherever it appears. An unknown flag, a
//! flag without its value or a malformed value is an error that names the
//! flag; `pulp_cli` prints it with [`USAGE`] and exits with status 2.

use crate::QUICK_KERNELS;
use kernel_ir::DType;
use pulp_energy::pipeline::PipelineOptions;
use pulp_energy::{Protocol, RunManifest, SweepCache};
use pulp_obs::{JournalWriter, LogFormat, Logger};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

/// Usage text printed with every command-line error.
pub const USAGE: &str =
    "usage: pulp_cli <list|pretty|features|disasm|measure|classify|mca|profile|trace> \
[kernel] [--dtype i32|f32] [--size BYTES] [--team N] [--chrome OUT.json] [--max-cycles N]
   or: pulp_cli repro [NAME] [experiment options]      (no NAME: list the experiments)
   or: pulp_cli cache <stats|clear> [--cache-dir DIR]
   or: pulp_cli serve [--addr HOST:PORT] [--quick] [--cache-dir DIR] [--workers N]
          [--queue-depth N] [--timeout-ms N] [--max-body-bytes N] [--keepalive-max N]
          [--slow-ms N] [--flight-capacity N] [--retry-after-secs N] [--log-json]
   or: pulp_cli bench diff OLD.json NEW.json
   or: pulp_cli bench sim [experiment options] [--iters N]
   or: pulp_cli bench serve [experiment options] [--trace-out PATH] [--rate RPS] [--hist-out PATH]
   or: pulp_cli bench models [experiment options]
   or: pulp_cli bench history DIR
   or: pulp_cli report RUN.jsonl
   or: pulp_cli journal validate RUN.jsonl [RUN2.jsonl ...]

experiment options (repro, bench sim|serve|models; classify and serve read the dataset ones).
Every record-writing command (repro headline, bench sim|serve|models) writes the manifest,
stamps its hash into the record and exits 1 when the record cannot be written:
  --quick             reduced dataset + reduced CV protocol
  --json <path>       dump the machine-readable record to <path>
  --out <path>        bench record path (default: BENCH_<bench>.json)
  --threads <n>       simulation worker threads (0 = all cores)
  --cv-threads <n>    cross-validation worker threads (0 = all cores)
  --cache-dir <dir>   sweep cache directory (default: <target dir>/pulp-sweep-cache)
  --progress          per-sample progress lines on stderr
  --quiet             suppress informational stderr chatter
  --log-json          JSON-lines structured logs on stderr (default: text)
  --manifest <path>   run-manifest output path (default: manifest.json)
  --no-manifest       skip writing the run manifest
  --max-cycles <n>    per-run simulation cycle budget (positive integer)
  --journal <path>    append-only JSONL run journal (read with `pulp_cli report`)
  --size <bytes>      payload size (repro profile_report; default 2048)
  --detail            per-core stall table + energy waterfall (repro profile_report)";

/// Every option `pulp_cli` understands, parsed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// The subcommand (`list`, `measure`, `repro`, `bench`, …).
    pub command: String,
    /// Positional arguments after the subcommand: a kernel, an experiment
    /// name, or a sub-subcommand and its operands (`diff OLD NEW`).
    pub operands: Vec<String>,
    /// Kernel element type (`--dtype`); `None` = the kernel's default.
    pub dtype: Option<DType>,
    /// Payload size in bytes (`--size`); see [`Args::size`].
    pub size: Option<usize>,
    /// Team size (`--team`); see [`Args::team`].
    pub team: Option<usize>,
    /// Chrome trace-event output path (`trace --chrome`).
    pub chrome: Option<PathBuf>,
    /// Reduced dataset + protocol (`--quick`).
    pub quick: bool,
    /// `--json` dump path.
    pub json: Option<PathBuf>,
    /// Bench-record output path (`--out`).
    pub out: Option<PathBuf>,
    /// Simulation threads (`--threads`; 0 = all cores).
    pub threads: usize,
    /// Cross-validation threads (`--cv-threads`; 0 = all cores).
    pub cv_threads: usize,
    /// Sweep-cache directory (`--cache-dir`); see
    /// [`Args::sweep_cache_dir`].
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
    /// command's default).
    pub max_cycles: Option<u64>,
    /// Run-journal output path (`--journal`); `None` = no journal.
    pub journal: Option<PathBuf>,
    /// `bench sim` timing rounds (`--iters`).
    pub iters: Option<u32>,
    /// Full per-core detail (`repro profile_report --detail`).
    pub detail: bool,
    /// `serve` listen address (`--addr`).
    pub addr: Option<String>,
    /// `serve` worker threads (`--workers`).
    pub workers: Option<usize>,
    /// `serve` accept-queue depth (`--queue-depth`).
    pub queue_depth: Option<usize>,
    /// `serve` per-connection deadline (`--timeout-ms`).
    pub timeout_ms: Option<u64>,
    /// `serve` request-body cap (`--max-body-bytes`).
    pub max_body_bytes: Option<usize>,
    /// `serve` requests per keep-alive connection (`--keepalive-max`).
    pub keepalive_max: Option<usize>,
    /// `serve` slow-request log threshold (`--slow-ms`; 0 logs all).
    pub slow_ms: Option<u64>,
    /// `serve` flight-recorder capacity (`--flight-capacity`).
    pub flight_capacity: Option<usize>,
    /// `serve` `Retry-After` on shed responses (`--retry-after-secs`).
    pub retry_after_secs: Option<u64>,
    /// `bench serve` open-loop rate (`--rate`).
    pub rate: Option<f64>,
    /// `bench serve` open-loop histogram path (`--hist-out`).
    pub hist_out: Option<PathBuf>,
    /// `bench serve` flight-recorder trace path (`--trace-out`).
    pub trace_out: Option<PathBuf>,
}

/// The token stream being parsed, with typed accessors for flag values.
struct Tokens<I>(I);

impl<I: Iterator<Item = String>> Tokens<I> {
    /// The value after `flag`; a missing value or another flag is an error.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        match self.0.next() {
            Some(v) if !v.starts_with("--") => Ok(v),
            _ => Err(format!("{flag} requires a value")),
        }
    }

    fn path(&mut self, flag: &str) -> Result<PathBuf, String> {
        self.value(flag).map(PathBuf::from)
    }

    /// An integer no smaller than `min` (0 or 1).
    fn int<T: FromStr + PartialOrd + From<u8>>(
        &mut self,
        flag: &str,
        min: u8,
    ) -> Result<T, String> {
        let raw = self.value(flag)?;
        match raw.parse::<T>() {
            Ok(n) if n >= T::from(min) => Ok(n),
            _ => Err(format!(
                "{flag} expects a {} integer, got `{raw}`",
                if min == 0 { "non-negative" } else { "positive" }
            )),
        }
    }
}

impl Args {
    /// Parses a command line (without the program name): the subcommand,
    /// then flags and positional operands in any order.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag for an unknown flag, a
    /// missing value or a malformed one, and for an empty command line.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut t = Tokens(args.into_iter());
        let mut a = Self::default();
        while let Some(tok) = t.0.next() {
            let flag = tok.as_str();
            match flag {
                "--quick" => a.quick = true,
                "--progress" => a.progress = true,
                "--quiet" => a.quiet = true,
                "--log-json" => a.log_json = true,
                "--no-manifest" => a.no_manifest = true,
                "--detail" => a.detail = true,
                "--json" => a.json = Some(t.path(flag)?),
                "--out" => a.out = Some(t.path(flag)?),
                "--chrome" => a.chrome = Some(t.path(flag)?),
                "--cache-dir" => a.cache_dir = Some(t.path(flag)?),
                "--manifest" => a.manifest = Some(t.path(flag)?),
                "--journal" => a.journal = Some(t.path(flag)?),
                "--hist-out" => a.hist_out = Some(t.path(flag)?),
                "--trace-out" => a.trace_out = Some(t.path(flag)?),
                "--addr" => a.addr = Some(t.value(flag)?),
                "--threads" => a.threads = t.int(flag, 0)?,
                "--cv-threads" => a.cv_threads = t.int(flag, 0)?,
                // Zero is meaningful: log every request.
                "--slow-ms" => a.slow_ms = Some(t.int(flag, 0)?),
                "--size" => a.size = Some(t.int(flag, 1)?),
                "--team" => a.team = Some(t.int(flag, 1)?),
                "--max-cycles" => a.max_cycles = Some(t.int(flag, 1)?),
                "--iters" => a.iters = Some(t.int(flag, 1)?),
                "--workers" => a.workers = Some(t.int(flag, 1)?),
                "--queue-depth" => a.queue_depth = Some(t.int(flag, 1)?),
                "--timeout-ms" => a.timeout_ms = Some(t.int(flag, 1)?),
                "--max-body-bytes" => a.max_body_bytes = Some(t.int(flag, 1)?),
                "--keepalive-max" => a.keepalive_max = Some(t.int(flag, 1)?),
                "--flight-capacity" => a.flight_capacity = Some(t.int(flag, 1)?),
                "--retry-after-secs" => a.retry_after_secs = Some(t.int(flag, 1)?),
                "--rate" => {
                    let raw = t.value(flag)?;
                    match raw.parse::<f64>() {
                        Ok(x) if x > 0.0 && x.is_finite() => a.rate = Some(x),
                        _ => {
                            return Err(format!(
                                "{flag} expects a positive requests/second, got `{raw}`"
                            ))
                        }
                    }
                }
                "--dtype" => {
                    a.dtype = Some(match t.value(flag)?.as_str() {
                        "i32" => DType::I32,
                        "f32" => DType::F32,
                        other => return Err(format!("{flag} expects i32 or f32, got `{other}`")),
                    });
                }
                _ if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                _ if a.command.is_empty() => a.command = tok,
                _ => a.operands.push(tok),
            }
        }
        if a.command.is_empty() {
            return Err("missing command".to_string());
        }
        Ok(a)
    }

    /// Payload size in bytes: `--size`, 2048 by default.
    pub fn size(&self) -> usize {
        self.size.unwrap_or(2048)
    }

    /// Team size: `--team`, 4 by default.
    pub fn team(&self) -> usize {
        self.team.unwrap_or(4)
    }

    /// The dataset profile `--quick` selects: `quick` or `full`.
    pub fn profile(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    /// The sweep-cache directory: `--cache-dir`, else `pulp-sweep-cache`
    /// in the cargo target directory (`CARGO_TARGET_DIR`, else the
    /// `target` directory above the running executable, else the working
    /// directory). Every dataset-reading command and `cache stats|clear`
    /// use this one directory.
    pub fn sweep_cache_dir(&self) -> PathBuf {
        self.cache_dir.clone().unwrap_or_else(|| {
            std::env::var_os("CARGO_TARGET_DIR")
                .map_or_else(find_target_dir, PathBuf::from)
                .join("pulp-sweep-cache")
        })
    }

    /// The pipeline options implied by these arguments — the one source of
    /// every command's dataset options. Opens the sweep cache at
    /// [`sweep_cache_dir`](Self::sweep_cache_dir) (an unopenable directory
    /// warns and degrades to uncached simulation).
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
        let dir = self.sweep_cache_dir();
        match SweepCache::new(&dir) {
            Ok(cache) => opts.cache = Some(Arc::new(cache)),
            Err(e) => eprintln!(
                "warning: cannot open cache dir {}: {e}; continuing uncached",
                dir.display()
            ),
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

    /// The run manifest of `tool` before the run starts: versions,
    /// config/model hashes (sweep-cache keying), the `quick` flag and the
    /// protocol. A bench adds its own options as extras.
    pub fn pre_run_manifest(
        &self,
        tool: &str,
        opts: &PipelineOptions,
        protocol: Option<&Protocol>,
    ) -> RunManifest {
        let m = RunManifest::new(tool, &opts.config, &opts.model).with_extra("quick", self.quick);
        match protocol {
            Some(p) => m.with_protocol(*p),
            None => m,
        }
    }

    /// Writes the run manifest (unless `--no-manifest`): the pre-run
    /// manifest `pre` plus cache counters and wall time since `start`.
    /// The default path is `manifest.json` in the working directory,
    /// overridable with `--manifest <path>`.
    ///
    /// Returns the manifest written (also when writing was skipped or
    /// failed), so callers can embed its hash in their own reports.
    pub fn write_manifest(
        &self,
        pre: RunManifest,
        opts: &PipelineOptions,
        start: Instant,
    ) -> RunManifest {
        let mut m = pre.with_wall_time_ms(start.elapsed().as_millis() as u64);
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
    /// seeded from the hash of the **pre-run** manifest `pre` — the
    /// provenance [`write_manifest`](Self::write_manifest) records minus
    /// the fields only known at exit (wall time, cache counters) — so the
    /// id is stable for identical inputs and computable before the run
    /// starts.
    ///
    /// An unopenable path warns and degrades to no journal; observability
    /// must never fail the experiment.
    pub fn journal_writer(&self, pre: &RunManifest) -> Option<JournalWriter> {
        let path = self.journal.as_ref()?;
        match JournalWriter::create(path, &pre.tool, &pre.manifest_hash(), pre.seed) {
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
    pub fn dump_json<T: serde::Serialize + ?Sized>(&self, record: &T) {
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

/// The `target` directory above the running executable, or the working
/// directory when there is none.
fn find_target_dir() -> PathBuf {
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
