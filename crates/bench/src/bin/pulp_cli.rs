//! `pulp_cli` — command-line front end to the whole stack.
//!
//! ```text
//! pulp_cli list                                   # dataset kernels
//! pulp_cli pretty   <kernel> [--dtype d] [--size n]   # pseudo-C source
//! pulp_cli features <kernel> [--dtype d] [--size n]   # static features
//! pulp_cli disasm   <kernel> [--team t] [...]         # lowered program
//! pulp_cli measure  <kernel> [...]                    # energy at 1..=8 cores
//! pulp_cli classify <kernel> [...]                    # train + predict
//! pulp_cli mca      <kernel> [...]                    # LLVM-MCA-style report
//! pulp_cli profile  <kernel> [...]                    # stall causes + energy, 1..=8 cores
//! pulp_cli trace    <kernel> [--team t] [...]         # GVSOC-style trace
//! pulp_cli trace    <kernel> --chrome out.json [...]  # Chrome trace-event JSON
//! pulp_cli cache    stats --cache-dir DIR             # sweep-cache usage
//! pulp_cli cache    clear --cache-dir DIR             # delete cached sweeps
//! pulp_cli serve    [--addr HOST:PORT] [--full]       # HTTP prediction service
//! pulp_cli bench    diff OLD.json NEW.json            # regression gate over two BENCH_*.json records
//! pulp_cli bench    sim [--quick] [--out PATH]        # simulator perf benchmark
//! pulp_cli bench    serve [--quick] [--out PATH]      # serving-layer load benchmark
//! pulp_cli bench    models [--quick] [--out PATH]     # model-zoo accuracy + flat-parity benchmark
//! pulp_cli bench    history DIR                       # benchmark trajectory over committed records
//! pulp_cli report   RUN.jsonl                         # deterministic report from a run journal
//! pulp_cli journal  validate RUN.jsonl [...]          # structural check of run journals
//! ```
//!
//! Defaults: `--dtype f32` (or the kernel's only supported type),
//! `--size 2048`, `--team 4`, `--addr 127.0.0.1:7878`,
//! `--max-cycles 100000000` for profile/trace runs.
//!
//! `serve` capacity knobs: `--workers N` (worker threads), `--queue-depth N`
//! (bounded accept queue; overflow sheds with 503 + `Retry-After`),
//! `--timeout-ms N` (per-connection read/write deadline), `--max-body-bytes
//! N` (413 above this), `--keepalive-max N` (requests per keep-alive
//! connection). SIGTERM/ctrl-c or `POST /admin/shutdown` drain gracefully.
//! Observability knobs: `--slow-ms N` (structured log line for requests
//! slower than N ms; 0 logs everything), `--flight-capacity N` (completed
//! traces retained for `GET /debug/requests` / `GET /debug/slow`),
//! `--log-json` (JSON-lines on stderr instead of `[serve]` text).
//!
//! `bench sim` runs the fixed kernel basket (ALU-bound, TCDM-conflict,
//! barrier/DMA-heavy, FP-contended) at 1/2/4/8 cores with the event-horizon
//! fast-forward and the single-step oracle, verifies the two agree
//! bit-for-bit, and writes `BENCH_sim.json` (override with `--out`).
//!
//! `bench serve` boots the prediction server in-process and drives it with
//! concurrent keep-alive clients over kernel-name, raw-feature and batch
//! request mixes, reporting throughput, per-mix p50/p90/p99 latency and the
//! shed/timeout counters; writes `BENCH_serve.json` (override with
//! `--out`). `--trace-out PATH` additionally captures `GET /debug/requests`
//! (the flight recorder's tail of the load) as Chrome-trace JSON; the
//! capture is validated either way.
//!
//! `bench models` evaluates the whole model zoo (tree, random forest,
//! gradient-boosted trees, kNN) under the repeated-CV protocol and checks
//! the quantized flat compilation of each tree-backed model against the
//! float reference on every dataset row; writes `BENCH_models.json`
//! (override with `--out`). `--cv-threads N` pins the CV worker count —
//! the record is bit-identical at any value.
//!
//! Every `BENCH_*.json` is one [`BenchRecord`] schema: bench, profile,
//! manifest hash and a list of metrics, each carrying its own gate — a
//! relative or absolute worsening allowed against the baseline, or a limit
//! on the candidate alone. `bench diff OLD NEW` fails when a gated metric
//! of OLD is missing from NEW, when NEW breaks a gate, or (as an error)
//! when the two records differ in bench or profile.
//!
//! `bench history DIR` reads every `BENCH_*.json` record in `DIR` (sorted by
//! file name), groups them by bench and profile, prints each record's worst
//! gated figures, and flags regressions between consecutive records of a
//! group with the comparator behind `bench diff`. Run journals (`*.jsonl`)
//! in the directory contribute their `bench_record` tails.
//!
//! `report RUN.jsonl` validates a run journal and renders its deterministic
//! report: per-stage wall breakdown, shard throughput table, top-K slowest
//! kernels and cache attribution. `journal validate` runs just the
//! structural check (schema version, gap-free sequence, framing, stage
//! discipline) over any number of journals. `bench sim --journal PATH` and
//! the dataset-building bins' `--journal PATH` write such journals.

use kernel_ir::{lower, DType, Kernel};
use pulp_bench::serve::{install_signal_shutdown, ServeOptions, ServeState, Server};
use pulp_bench::{
    profile_run, recorder_of_run, run_models_bench, run_serve_bench, BenchRecord, CommonArgs,
    ServeBenchOptions, SimBenchOptions, QUICK_KERNELS,
};
use pulp_energy::{
    default_cache_version, measure_kernel,
    pipeline::{LabeledDataset, PipelineOptions},
    static_feature_names, static_feature_vector, StaticFeatureSet, SweepCache,
};
use pulp_energy_model::{energy_waterfall, EnergyModel};
use pulp_kernels::{registry, KernelDef, KernelParams};
use pulp_ml::{DecisionTree, TreeParams};
use pulp_obs::{LogFormat, Logger};
use pulp_sim::{simulate_traced, ClusterConfig, TextSink};
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug)]
struct Args {
    command: String,
    kernel: Option<String>,
    /// Positional arguments after the first (e.g. `bench diff` paths).
    rest: Vec<String>,
    dtype: Option<DType>,
    size: usize,
    team: usize,
    chrome: Option<String>,
    cache_dir: Option<String>,
    addr: Option<String>,
    full: bool,
    quick: bool,
    out: Option<String>,
    max_cycles: Option<u64>,
    iters: Option<u32>,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    timeout_ms: Option<u64>,
    max_body_bytes: Option<usize>,
    keepalive_max: Option<usize>,
    slow_ms: Option<u64>,
    flight_capacity: Option<usize>,
    retry_after_secs: Option<u64>,
    rate: Option<f64>,
    hist_out: Option<String>,
    log_json: bool,
    trace_out: Option<String>,
    journal: Option<String>,
    cv_threads: Option<usize>,
}

fn parse_args() -> Option<Args> {
    parse_from(std::env::args().skip(1))
}

fn parse_from(mut argv: impl Iterator<Item = String>) -> Option<Args> {
    let command = argv.next()?;
    let mut args = Args {
        command,
        kernel: None,
        rest: Vec::new(),
        dtype: None,
        size: 2048,
        team: 4,
        chrome: None,
        cache_dir: None,
        addr: None,
        full: false,
        quick: false,
        out: None,
        max_cycles: None,
        iters: None,
        workers: None,
        queue_depth: None,
        timeout_ms: None,
        max_body_bytes: None,
        keepalive_max: None,
        slow_ms: None,
        flight_capacity: None,
        retry_after_secs: None,
        rate: None,
        hist_out: None,
        log_json: false,
        trace_out: None,
        journal: None,
        cv_threads: None,
    };
    // `--flag N` where N must be a strictly positive integer.
    fn positive<T: std::str::FromStr + PartialOrd + From<u8>>(
        argv: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Option<T> {
        let raw = argv.next()?;
        match raw.parse::<T>() {
            Ok(n) if n >= T::from(1u8) => Some(n),
            _ => {
                eprintln!("{flag} expects a positive integer, got {raw:?}");
                None
            }
        }
    }
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--chrome" => args.chrome = Some(argv.next()?),
            "--cache-dir" => args.cache_dir = Some(argv.next()?),
            "--addr" => args.addr = Some(argv.next()?),
            "--full" => args.full = true,
            "--quick" => args.quick = true,
            "--out" => args.out = Some(argv.next()?),
            "--max-cycles" => args.max_cycles = Some(positive(&mut argv, "--max-cycles")?),
            "--iters" => args.iters = Some(positive(&mut argv, "--iters")?),
            "--workers" => args.workers = Some(positive(&mut argv, "--workers")?),
            "--queue-depth" => args.queue_depth = Some(positive(&mut argv, "--queue-depth")?),
            "--timeout-ms" => args.timeout_ms = Some(positive(&mut argv, "--timeout-ms")?),
            "--max-body-bytes" => {
                args.max_body_bytes = Some(positive(&mut argv, "--max-body-bytes")?);
            }
            "--keepalive-max" => args.keepalive_max = Some(positive(&mut argv, "--keepalive-max")?),
            "--slow-ms" => {
                // Zero is meaningful: log every request.
                let raw = argv.next()?;
                match raw.parse::<u64>() {
                    Ok(n) => args.slow_ms = Some(n),
                    Err(_) => {
                        eprintln!("--slow-ms expects a non-negative integer, got {raw:?}");
                        return None;
                    }
                }
            }
            "--flight-capacity" => {
                args.flight_capacity = Some(positive(&mut argv, "--flight-capacity")?);
            }
            "--retry-after-secs" => {
                args.retry_after_secs = Some(positive(&mut argv, "--retry-after-secs")?);
            }
            "--rate" => {
                let raw = argv.next()?;
                match raw.parse::<f64>() {
                    Ok(x) if x > 0.0 && x.is_finite() => args.rate = Some(x),
                    _ => {
                        eprintln!("--rate expects a positive requests/second, got {raw:?}");
                        return None;
                    }
                }
            }
            "--hist-out" => args.hist_out = Some(argv.next()?),
            "--cv-threads" => args.cv_threads = Some(positive(&mut argv, "--cv-threads")?),
            "--log-json" => args.log_json = true,
            "--trace-out" => args.trace_out = Some(argv.next()?),
            "--journal" => args.journal = Some(argv.next()?),
            "--dtype" => {
                args.dtype = match argv.next().as_deref() {
                    Some("i32") => Some(DType::I32),
                    Some("f32") => Some(DType::F32),
                    other => {
                        eprintln!("unknown dtype {other:?} (use i32 or f32)");
                        return None;
                    }
                };
            }
            "--size" => args.size = argv.next()?.parse().ok()?,
            "--team" => args.team = argv.next()?.parse().ok()?,
            other if !other.starts_with("--") && args.kernel.is_none() => {
                args.kernel = Some(other.to_string());
            }
            other if !other.starts_with("--") => {
                args.rest.push(other.to_string());
            }
            other => {
                eprintln!("unknown argument {other}");
                return None;
            }
        }
    }
    Some(args)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pulp_cli <list|pretty|features|disasm|measure|classify|mca|profile|trace> \
         [kernel] [--dtype i32|f32] [--size BYTES] [--team N] [--chrome OUT.json]\n   \
         or: pulp_cli cache <stats|clear> --cache-dir DIR\n   \
         or: pulp_cli serve [--addr HOST:PORT] [--full] [--cache-dir DIR] [--workers N]\n   \
                [--queue-depth N] [--timeout-ms N] [--max-body-bytes N] [--keepalive-max N]\n   \
                [--slow-ms N] [--flight-capacity N] [--retry-after-secs N] [--log-json]\n   \
         or: pulp_cli bench diff OLD.json NEW.json\n   \
         or: pulp_cli bench sim [--quick] [--out PATH] [--max-cycles N] [--iters N] [--journal PATH]\n   \
         or: pulp_cli bench serve [--quick] [--out PATH] [--trace-out PATH] [--rate RPS]\n   \
                [--hist-out PATH]\n   \
         or: pulp_cli bench models [--quick] [--out PATH] [--cv-threads N] [--journal PATH]\n   \
                [--cache-dir DIR]\n   \
         or: pulp_cli bench history DIR\n   \
         or: pulp_cli report RUN.jsonl\n   \
         or: pulp_cli journal validate RUN.jsonl [RUN2.jsonl ...]"
    );
    ExitCode::FAILURE
}

/// Default cycle budget for interactive `profile`/`trace` runs
/// (override with `--max-cycles`).
const DEFAULT_RUN_BUDGET: u64 = 100_000_000;

/// `bench diff`: gates the candidate record at `new_path` against the
/// baseline at `old_path`.
fn cmd_bench_diff(old_path: &str, new_path: &str) -> ExitCode {
    let load = |path: &str| BenchRecord::load(std::path::Path::new(path));
    let outcome = load(old_path).and_then(|old| old.regressions(&load(new_path)?));
    match outcome {
        Ok(regressions) if regressions.is_empty() => {
            println!("bench diff: no regressions ({old_path} -> {new_path})");
            ExitCode::SUCCESS
        }
        Ok(regressions) => {
            eprintln!("bench diff: {} regression(s):", regressions.len());
            for r in &regressions {
                eprintln!("  {r}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench diff: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a run journal and prints its deterministic report: per-stage
/// wall breakdown, shard throughput table, top-K slowest kernels and cache
/// attribution. The output is a pure function of the journal bytes.
fn cmd_report(path: &str) -> ExitCode {
    match pulp_obs::JournalReader::read_file(std::path::Path::new(path)) {
        Ok(journal) => {
            print!("{}", pulp_obs::render_report(&journal));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("report: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Structurally validates each journal: schema version, gap-free sequence
/// numbers, run_start/run_end framing, stage discipline, trailing newline.
/// Prints one line per file; any invalid journal fails the command.
fn cmd_journal_validate(paths: &[String]) -> ExitCode {
    let mut failed = false;
    for path in paths {
        let outcome = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| pulp_obs::validate_journal(&text).map_err(|e| e.to_string()));
        match outcome {
            Ok(()) => println!("journal validate: {path}: ok"),
            Err(e) => {
                eprintln!("journal validate: {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Reads every `BENCH_*.json` record in `dir` (sorted by file name), groups
/// them by `(bench, profile)`, prints the trajectory, and flags
/// regressions between consecutive records of a group with the comparator
/// behind `bench diff`. Journals (`*.jsonl`) in the directory contribute
/// their `bench_record` tails.
fn cmd_bench_history(dir: &str) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench history: cannot read {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records: Vec<String> = Vec::new();
    let mut journals: Vec<String> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            records.push(name);
        } else if name.ends_with(".jsonl") {
            journals.push(name);
        }
    }
    records.sort();
    journals.sort();
    if records.is_empty() && journals.is_empty() {
        println!("bench history: no BENCH_*.json records or *.jsonl journals in {dir}");
        return ExitCode::SUCCESS;
    }
    // Parse and group by (bench, profile); groups keep file-name order.
    // One group: the (bench, profile) key plus its (file, record) rows.
    type HistoryGroup = ((String, String), Vec<(String, BenchRecord)>);
    let mut groups: Vec<HistoryGroup> = Vec::new();
    for name in &records {
        let record = match BenchRecord::load(&std::path::Path::new(dir).join(name)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench history: skipping {e}");
                continue;
            }
        };
        let key = (record.bench.clone(), record.profile.clone());
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, list)) => list.push((name.clone(), record)),
            None => groups.push((key, vec![(name.clone(), record)])),
        }
    }
    groups.sort_by(|(a, _), (b, _)| a.cmp(b));
    let mut flagged = 0usize;
    for ((bench, profile), list) in &groups {
        println!(
            "== {bench} ({profile} profile), {} record(s) ==",
            list.len()
        );
        for (name, record) in list {
            println!("  {name:<28} {}", record.summary());
        }
        for pair in list.windows(2) {
            let (old_name, old) = &pair[0];
            let (new_name, new) = &pair[1];
            match old.regressions(new) {
                Ok(regressions) => {
                    for r in &regressions {
                        println!("  REGRESSION {old_name} -> {new_name}: {r}");
                    }
                    flagged += regressions.len();
                }
                Err(e) => println!("  (cannot compare {old_name} -> {new_name}: {e})"),
            }
        }
    }
    for name in &journals {
        let path = format!("{dir}/{name}");
        match pulp_obs::JournalReader::read_file(std::path::Path::new(&path)) {
            Ok(journal) => {
                let (tool, _, _) = journal.run_start();
                println!("== journal {name} (run {}, tool {tool}) ==", journal.run_id);
                for ev in &journal.events {
                    if let pulp_obs::JournalEvent::BenchRecord { bench, name, value } = ev {
                        println!("  {bench:<8} {name:<36} {value:.3}");
                    }
                }
            }
            Err(e) => println!("== journal {name}: invalid ({e}) =="),
        }
    }
    if flagged > 0 {
        println!("bench history: {flagged} regression(s) flagged");
    } else {
        println!("bench history: no regressions across consecutive records");
    }
    ExitCode::SUCCESS
}

/// Writes `record` to `path` (see [`BenchRecord::to_json`]); reports the
/// outcome and returns whether it succeeded.
fn write_record(record: &BenchRecord, path: &str) -> bool {
    match record.write(std::path::Path::new(path)) {
        Ok(()) => {
            println!("wrote {path}");
            true
        }
        Err(e) => {
            eprintln!("bench {}: {e}", record.bench);
            false
        }
    }
}

/// Reports a bench's invariant check: `ok` on success, every violation
/// (and a failing exit code) otherwise.
fn verdict(bench: &str, ok: &str, outcome: Result<(), Vec<String>>) -> ExitCode {
    match outcome {
        Ok(()) => {
            println!("bench {bench}: {ok}");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            eprintln!("bench {bench}: {} invariant violation(s):", problems.len());
            for p in &problems {
                eprintln!("  {p}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Runs the simulator performance benchmark and writes `BENCH_sim.json`
/// (or `--out PATH`). Fails if any fast-forward run diverges from its
/// single-step oracle or if the barrier/DMA basket never skips a cycle.
fn cmd_bench_sim(args: &Args) -> ExitCode {
    let mut opts = if args.quick {
        SimBenchOptions::quick()
    } else {
        SimBenchOptions::default()
    };
    if let Some(n) = args.max_cycles {
        opts.max_cycles = n;
    }
    if let Some(n) = args.iters {
        opts.iters = n;
    }
    eprintln!(
        "bench sim: {} run ({} baskets x {} team sizes, {} timing iteration(s))...",
        if opts.quick { "quick" } else { "full" },
        pulp_bench::sim_bench::BASKETS.len(),
        pulp_bench::sim_bench::TEAM_SIZES.len(),
        opts.iters
    );
    // The journal's run id is seeded from the pre-run provenance manifest
    // (wall times excluded), so re-running the same configuration re-derives
    // the same id.
    let mut journal = args.journal.as_deref().and_then(|path| {
        let pre = pulp_energy::RunManifest::new(
            "bench_sim",
            &ClusterConfig::default(),
            &EnergyModel::table1(),
        )
        .with_extra("quick", opts.quick);
        match pulp_obs::JournalWriter::create(
            std::path::Path::new(path),
            "bench_sim",
            &pre.manifest_hash(),
            pre.seed,
        ) {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("bench sim: cannot open journal {path}: {e}");
                None
            }
        }
    });
    let report = pulp_bench::sim_bench::run_sim_bench_journaled(&opts, journal.as_mut());
    if let Some(j) = journal {
        let run = j.run_id().to_string();
        match j.finalize() {
            Ok(()) => {
                if let Some(path) = &args.journal {
                    println!("wrote {path} (run journal, run {run})");
                }
            }
            Err(e) => eprintln!("bench sim: cannot finalize journal: {e}"),
        }
    }
    print!("{}", report.render_table());
    let out_path = args.out.as_deref().unwrap_or("BENCH_sim.json");
    if !write_record(&report.record(), out_path) {
        return ExitCode::FAILURE;
    }
    verdict(
        "sim",
        "all runs bit-identical to the single-step oracle",
        report.verify(),
    )
}

/// The server capacity knobs implied by the command line.
fn serve_options(args: &Args) -> ServeOptions {
    let mut o = ServeOptions::default();
    if let Some(n) = args.workers {
        o.workers = n;
    }
    if let Some(n) = args.queue_depth {
        o.queue_depth = n;
    }
    if let Some(n) = args.timeout_ms {
        o.timeout_ms = n;
    }
    if let Some(n) = args.max_body_bytes {
        o.max_body_bytes = n;
    }
    if let Some(n) = args.keepalive_max {
        o.keepalive_max_requests = n;
    }
    if let Some(n) = args.slow_ms {
        o.slow_ms = n;
    }
    if let Some(n) = args.flight_capacity {
        o.flight_capacity = n;
    }
    if let Some(n) = args.retry_after_secs {
        o.retry_after_secs = n;
    }
    o
}

/// The log format implied by `--log-json`.
fn log_format(args: &Args) -> LogFormat {
    if args.log_json {
        LogFormat::Json
    } else {
        LogFormat::Text
    }
}

fn cmd_serve(args: &Args) -> ExitCode {
    let log = Logger::new(log_format(args));
    let mut opts = if args.full {
        PipelineOptions::default()
    } else {
        PipelineOptions::quick(QUICK_KERNELS)
    };
    if let Some(dir) = &args.cache_dir {
        match SweepCache::new(dir) {
            Ok(cache) => opts.cache = Some(Arc::new(cache)),
            Err(e) => log.warn(
                "serve",
                "cannot open cache dir; continuing uncached",
                &[("dir", dir.clone()), ("error", e.to_string())],
            ),
        }
    }
    log.info(
        "serve",
        "training model (this simulates the training sweep unless cached)...",
        &[(
            "profile",
            if args.full { "full" } else { "quick" }.to_string(),
        )],
    );
    let serve_opts = serve_options(args);
    // The request-path logger moves into the server state: slow-request
    // lines from worker threads honour `--log-json` too.
    let state = Arc::new(
        ServeState::train(&opts)
            .with_flight_capacity(serve_opts.flight_capacity)
            .with_logger(Logger::new(log_format(args))),
    );
    let addr = args.addr.as_deref().unwrap_or("127.0.0.1:7878");
    let server = match Server::bind_with(addr, state, serve_opts) {
        Ok(s) => s,
        Err(e) => {
            log.warn(
                "serve",
                "cannot bind",
                &[("addr", addr.to_string()), ("error", e.to_string())],
            );
            return ExitCode::FAILURE;
        }
    };
    install_signal_shutdown(server.shutdown_handle());
    log.info(
        "serve",
        "listening — POST /predict, POST /predict/batch, GET /metrics, GET /healthz, \
         GET /manifest, GET /debug/requests, GET /debug/slow, POST /admin/shutdown",
        &[("addr", server.addr.to_string())],
    );
    log.info(
        "serve",
        "capacity",
        &[
            ("workers", serve_opts.workers.to_string()),
            ("queue_depth", serve_opts.queue_depth.to_string()),
            ("timeout_ms", serve_opts.timeout_ms.to_string()),
            ("max_body_bytes", serve_opts.max_body_bytes.to_string()),
            (
                "keepalive_max",
                serve_opts.keepalive_max_requests.to_string(),
            ),
            ("slow_ms", serve_opts.slow_ms.to_string()),
            ("flight_capacity", serve_opts.flight_capacity.to_string()),
            ("retry_after_secs", serve_opts.retry_after_secs.to_string()),
        ],
    );
    server.run();
    log.info("serve", "drained; all workers joined", &[]);
    ExitCode::SUCCESS
}

/// Runs the serving-layer load benchmark and writes `BENCH_serve.json`
/// (or `--out PATH`). Fails on correctness errors, a batch/sequential
/// divergence, or (in the quick profile) any shed or timeout.
fn cmd_bench_serve(args: &Args) -> ExitCode {
    let mut opts = if args.quick {
        ServeBenchOptions::quick()
    } else {
        ServeBenchOptions::default()
    };
    if let Some(rate) = args.rate {
        opts.open_loop_rate_rps = rate;
    }
    eprintln!(
        "bench serve: {} run ({} rounds of {} clients x {} requests, {} workers, \
         queue depth {}, open-loop {} rps)...",
        if opts.quick { "quick" } else { "full" },
        opts.rounds,
        opts.clients,
        opts.requests_per_client,
        opts.serve.workers,
        opts.serve.queue_depth,
        opts.open_loop_rate_rps
    );
    let run = run_serve_bench(&opts);
    print!("{}", run.report.render_table());
    let out_path = args.out.as_deref().unwrap_or("BENCH_serve.json");
    if !write_record(&run.report.record(), out_path) {
        return ExitCode::FAILURE;
    }
    if let Some(trace_path) = &args.trace_out {
        if let Err(e) = std::fs::write(trace_path, &run.trace_json) {
            eprintln!("bench serve: cannot write {trace_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {trace_path} (flight-recorder Chrome trace)");
    }
    if let Some(hist_path) = &args.hist_out {
        if let Err(e) = std::fs::write(hist_path, run.open_loop_histogram_json()) {
            eprintln!("bench serve: cannot write {hist_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {hist_path} (open-loop latency histogram)");
    }
    verdict("serve", "all invariants hold", run.verify())
}

/// Runs the model-zoo evaluation benchmark and writes `BENCH_models.json`
/// (or `--out PATH`). Builds (or loads) the dataset with the usual
/// pipeline caches, evaluates every zoo model under the repeated-CV
/// protocol, checks flat/float parity on the full dataset, and wires the
/// run manifest + journal exactly like the other benches.
fn cmd_bench_models(args: &Args) -> ExitCode {
    let start = std::time::Instant::now();
    let common = CommonArgs {
        quick: args.quick,
        cv_threads: args.cv_threads.unwrap_or(0),
        cache_dir: args.cache_dir.clone().map(std::path::PathBuf::from),
        journal: args.journal.clone().map(std::path::PathBuf::from),
        ..CommonArgs::default()
    };
    let opts = common.pipeline_options();
    let protocol = common.protocol();
    eprintln!(
        "bench models: {} run ({} folds x {} repeats, cv-threads {})...",
        if args.quick { "quick" } else { "full" },
        protocol.folds,
        protocol.repeats,
        if protocol.cv_threads == 0 {
            "all".to_string()
        } else {
            protocol.cv_threads.to_string()
        }
    );
    let mut journal = common.journal_writer("bench_models", &opts, Some(&protocol));
    let data = pulp_bench::load_or_build_dataset_observed(&opts, &common, journal.as_mut());
    let mut report = run_models_bench(&data, &protocol, args.quick);
    let manifest = common.write_manifest("bench_models", &opts, Some(&protocol), start);
    report.manifest_hash = manifest.manifest_hash();
    let record = report.record();
    if let Some(j) = journal.as_mut() {
        if let Err(e) = record.journal(j) {
            eprintln!("bench models: journal write failed: {e}");
        }
    }
    common.finish_journal(journal);
    print!("{}", report.render_table());
    let out_path = args.out.as_deref().unwrap_or("BENCH_models.json");
    if !write_record(&record, out_path) {
        return ExitCode::FAILURE;
    }
    verdict(
        "models",
        "flat inference bit-exact with the float reference",
        report.verify(),
    )
}

fn find_kernel<'a>(defs: &'a [KernelDef], name: &str) -> Option<&'a KernelDef> {
    let found = defs.iter().find(|d| d.name == name);
    if found.is_none() {
        eprintln!("unknown kernel `{name}`; run `pulp_cli list`");
    }
    found
}

fn instantiate(def: &KernelDef, args: &Args) -> Option<Kernel> {
    let dtype = args.dtype.unwrap_or_else(|| {
        if def.supports(DType::F32) {
            DType::F32
        } else {
            DType::I32
        }
    });
    if !def.supports(dtype) {
        eprintln!("kernel {} does not support {dtype}", def.name);
        return None;
    }
    match def.build(&KernelParams::new(dtype, args.size)) {
        Ok(k) => Some(k),
        Err(e) => {
            eprintln!("cannot instantiate {}: {e}", def.name);
            None
        }
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    let defs = registry();
    let config = ClusterConfig::default();

    match args.command.as_str() {
        "list" => {
            println!("{:<24} {:<10} dtypes", "kernel", "suite");
            for d in &defs {
                let dtypes: Vec<String> = d.dtypes.iter().map(|t| t.to_string()).collect();
                println!(
                    "{:<24} {:<10} {}",
                    d.name,
                    d.suite.to_string(),
                    dtypes.join(",")
                );
            }
            ExitCode::SUCCESS
        }
        "pretty" => {
            let Some(name) = &args.kernel else {
                return usage();
            };
            let Some(def) = find_kernel(&defs, name) else {
                return ExitCode::FAILURE;
            };
            let Some(kernel) = instantiate(def, &args) else {
                return ExitCode::FAILURE;
            };
            print!("{kernel}");
            ExitCode::SUCCESS
        }
        "features" => {
            let Some(name) = &args.kernel else {
                return usage();
            };
            let Some(def) = find_kernel(&defs, name) else {
                return ExitCode::FAILURE;
            };
            let Some(kernel) = instantiate(def, &args) else {
                return ExitCode::FAILURE;
            };
            for (n, v) in static_feature_names()
                .iter()
                .zip(static_feature_vector(&kernel))
            {
                println!("{n:>10} = {v:.4}");
            }
            ExitCode::SUCCESS
        }
        "disasm" => {
            let Some(name) = &args.kernel else {
                return usage();
            };
            let Some(def) = find_kernel(&defs, name) else {
                return ExitCode::FAILURE;
            };
            let Some(kernel) = instantiate(def, &args) else {
                return ExitCode::FAILURE;
            };
            match lower(&kernel, args.team, &config) {
                Ok(lowered) => {
                    print!("{}", lowered.program.disassemble());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("lowering failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "measure" => {
            let Some(name) = &args.kernel else {
                return usage();
            };
            let Some(def) = find_kernel(&defs, name) else {
                return ExitCode::FAILURE;
            };
            let Some(kernel) = instantiate(def, &args) else {
                return ExitCode::FAILURE;
            };
            match measure_kernel(&kernel, &config, &EnergyModel::table1()) {
                Ok(profile) => {
                    println!(
                        "{:>6} {:>12} {:>10} {:>9}",
                        "cores", "energy [uJ]", "cycles", "speedup"
                    );
                    for c in 0..8 {
                        let mark = if c == profile.label() {
                            "  <== min energy"
                        } else {
                            ""
                        };
                        println!(
                            "{:>6} {:>12.4} {:>10} {:>8.2}x{mark}",
                            c + 1,
                            profile.energy[c] * 1e-9,
                            profile.cycles[c],
                            profile.speedup(c)
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("measurement failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "classify" => {
            let Some(name) = &args.kernel else {
                return usage();
            };
            let Some(def) = find_kernel(&defs, name) else {
                return ExitCode::FAILURE;
            };
            let Some(kernel) = instantiate(def, &args) else {
                return ExitCode::FAILURE;
            };
            eprintln!("training on the quick kernel set...");
            let data = match LabeledDataset::build(&PipelineOptions::quick(QUICK_KERNELS)) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("training-set build failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let ds = match data.static_dataset(StaticFeatureSet::All) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("dataset assembly failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut tree = DecisionTree::new(TreeParams::default());
            tree.fit(&ds);
            let predicted = tree.predict(&static_feature_vector(&kernel));
            println!(
                "predicted minimum-energy configuration: {} cores",
                predicted + 1
            );
            if let Ok(profile) = measure_kernel(&kernel, &config, &EnergyModel::table1()) {
                println!(
                    "simulated ground truth: {} cores (waste of prediction: {:.2}%)",
                    profile.label() + 1,
                    profile.waste(predicted) * 100.0
                );
            }
            ExitCode::SUCCESS
        }
        "mca" => {
            let Some(name) = &args.kernel else {
                return usage();
            };
            let Some(def) = find_kernel(&defs, name) else {
                return ExitCode::FAILURE;
            };
            let Some(kernel) = instantiate(def, &args) else {
                return ExitCode::FAILURE;
            };
            let block = pulp_mca::kernel_block(&kernel);
            let features = pulp_mca::analyze_block(&block, pulp_mca::DEFAULT_ITERATIONS);
            print!(
                "{}",
                pulp_mca::render_report(block.len(), pulp_mca::DEFAULT_ITERATIONS, &features)
            );
            ExitCode::SUCCESS
        }
        "profile" => {
            let Some(name) = &args.kernel else {
                return usage();
            };
            let Some(def) = find_kernel(&defs, name) else {
                return ExitCode::FAILURE;
            };
            let Some(kernel) = instantiate(def, &args) else {
                return ExitCode::FAILURE;
            };
            let model = EnergyModel::table1();
            for team in 1..=config.num_cores {
                let lowered = match lower(&kernel, team, &config) {
                    Ok(l) => l,
                    Err(e) => {
                        eprintln!("lowering failed at team {team}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let run = match profile_run(
                    &config,
                    &lowered.program,
                    args.max_cycles.unwrap_or(DEFAULT_RUN_BUDGET),
                ) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("simulation failed at team {team}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Err(e) = run.stats.check_consistency() {
                    eprintln!("attribution inconsistent at team {team}: {e}");
                    return ExitCode::FAILURE;
                }
                let attributed = run.stats.breakdown_totals().total();
                println!("== {name} team {team} ==");
                print!("{}", run.stats.summary());
                println!(
                    "attribution: {attributed} cycle-cells = {} cycles x {} cores (exclusive)",
                    run.stats.cycles,
                    run.stats.cores.len()
                );
                for r in &run.regions {
                    println!(
                        "  {:<12} cycles {:>8}..{:<8} ({} cycles, {} executed)",
                        r.label(),
                        r.start_cycle,
                        r.end_cycle,
                        r.cycles(),
                        r.breakdown.execute
                    );
                }
                print!("{}", energy_waterfall(&run.stats, &model, &config));
                println!();
            }
            ExitCode::SUCCESS
        }
        "trace" => {
            let Some(name) = &args.kernel else {
                return usage();
            };
            let Some(def) = find_kernel(&defs, name) else {
                return ExitCode::FAILURE;
            };
            let Some(kernel) = instantiate(def, &args) else {
                return ExitCode::FAILURE;
            };
            let lowered = match lower(&kernel, args.team, &config) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("lowering failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some(path) = &args.chrome {
                let run = match profile_run(
                    &config,
                    &lowered.program,
                    args.max_cycles.unwrap_or(DEFAULT_RUN_BUDGET),
                ) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("simulation failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let mut rec = recorder_of_run(&run);
                energy_waterfall(&run.stats, &EnergyModel::table1(), &config).record(&mut rec);
                let json = pulp_obs::chrome_trace(&rec, &format!("pulp_cli {name} t{}", args.team));
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!(
                    "wrote {path}: {} cycles, {} spans (load in chrome://tracing or ui.perfetto.dev)",
                    run.stats.cycles,
                    rec.spans().len()
                );
                ExitCode::SUCCESS
            } else {
                let mut sink = TextSink::new();
                match simulate_traced(
                    &config,
                    &lowered.program,
                    args.max_cycles.unwrap_or(DEFAULT_RUN_BUDGET),
                    &mut sink,
                ) {
                    Ok(_) => {
                        print!("{}", sink.text);
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("simulation failed: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
        }
        "cache" => {
            let Some(action) = args.kernel.as_deref() else {
                return usage();
            };
            let Some(dir) = args.cache_dir.as_deref() else {
                eprintln!("cache {action}: --cache-dir DIR is required");
                return ExitCode::FAILURE;
            };
            let dir = std::path::Path::new(dir);
            match action {
                "stats" => match SweepCache::dir_stats(dir) {
                    Ok(stats) => {
                        println!("cache dir : {}", dir.display());
                        println!("version   : {}", default_cache_version());
                        println!("entries   : {}", stats.entries);
                        println!("size      : {} bytes", stats.bytes);
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("cannot read {}: {e}", dir.display());
                        ExitCode::FAILURE
                    }
                },
                "clear" => match SweepCache::clear(dir) {
                    Ok(removed) => {
                        println!("removed {removed} cached sweep(s) from {}", dir.display());
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("cannot clear {}: {e}", dir.display());
                        ExitCode::FAILURE
                    }
                },
                _ => usage(),
            }
        }
        "serve" => cmd_serve(&args),
        "report" => match args.kernel.as_deref() {
            Some(path) if args.rest.is_empty() => cmd_report(path),
            _ => usage(),
        },
        "journal" => match args.kernel.as_deref() {
            Some("validate") if !args.rest.is_empty() => cmd_journal_validate(&args.rest),
            _ => usage(),
        },
        "bench" => match args.kernel.as_deref() {
            Some("diff") if args.rest.len() == 2 => cmd_bench_diff(&args.rest[0], &args.rest[1]),
            Some("sim") if args.rest.is_empty() => cmd_bench_sim(&args),
            Some("serve") if args.rest.is_empty() => cmd_bench_serve(&args),
            Some("models") if args.rest.is_empty() => cmd_bench_models(&args),
            Some("history") if args.rest.len() == 1 => cmd_bench_history(&args.rest[0]),
            _ => usage(),
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_bench::record::ACCURACY_TOLERANCE;
    use pulp_bench::{Better, Tolerance};
    use Better::{Higher, Lower};
    use Tolerance::{Absolute, Limit, Relative};

    fn parse(words: &[&str]) -> Option<Args> {
        parse_from(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_full_command_line() {
        let a = parse(&[
            "measure", "gemm", "--dtype", "i32", "--size", "512", "--team", "6",
        ])
        .expect("parse");
        assert_eq!(a.command, "measure");
        assert_eq!(a.kernel.as_deref(), Some("gemm"));
        assert_eq!(a.dtype, Some(DType::I32));
        assert_eq!(a.size, 512);
        assert_eq!(a.team, 6);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["pretty", "fir"]).expect("parse");
        assert_eq!(a.dtype, None);
        assert_eq!(a.size, 2048);
        assert_eq!(a.team, 4);
    }

    #[test]
    fn rejects_bad_dtype_and_flags() {
        assert!(parse(&["measure", "gemm", "--dtype", "f64"]).is_none());
        assert!(parse(&["measure", "gemm", "--bogus"]).is_none());
        assert!(parse(&[]).is_none());
    }

    #[test]
    fn chrome_flag_takes_a_path() {
        let a = parse(&["trace", "fir", "--chrome", "out.json"]).expect("parse");
        assert_eq!(a.chrome.as_deref(), Some("out.json"));
        assert!(parse(&["trace", "fir", "--chrome"]).is_none());
    }

    #[test]
    fn serve_and_bench_subcommands_parse() {
        let a = parse(&["serve", "--addr", "0.0.0.0:9000", "--full"]).expect("parse");
        assert_eq!(a.command, "serve");
        assert_eq!(a.addr.as_deref(), Some("0.0.0.0:9000"));
        assert!(a.full);

        let a = parse(&["bench", "diff", "old.json", "new.json"]).expect("parse");
        assert_eq!(a.kernel.as_deref(), Some("diff"));
        assert_eq!(a.rest, vec!["old.json".to_string(), "new.json".to_string()]);
    }

    #[test]
    fn bench_sim_flags_parse_strictly() {
        let a = parse(&[
            "bench",
            "sim",
            "--quick",
            "--out",
            "custom.json",
            "--max-cycles",
            "5000",
        ])
        .expect("parse");
        assert_eq!(a.kernel.as_deref(), Some("sim"));
        assert!(a.quick);
        assert_eq!(a.out.as_deref(), Some("custom.json"));
        assert_eq!(a.max_cycles, Some(5_000));
        // Zero, negative and garbage budgets are rejected outright.
        assert!(parse(&["bench", "sim", "--max-cycles", "0"]).is_none());
        assert!(parse(&["bench", "sim", "--max-cycles", "-3"]).is_none());
        assert!(parse(&["bench", "sim", "--max-cycles", "many"]).is_none());
        assert!(parse(&["bench", "sim", "--max-cycles"]).is_none());
    }

    type MetricRow<'a> = (&'a str, f64, Better, Option<Tolerance>);

    fn rec(bench: &str, quick: bool, metrics: &[MetricRow]) -> BenchRecord {
        let mut r = BenchRecord::new(bench, quick);
        for &(name, value, better, tolerance) in metrics {
            r.push(name, value, ("u", better, tolerance));
        }
        r
    }

    fn headline(static_at_5: f64) -> BenchRecord {
        let acc = Some(Absolute(ACCURACY_TOLERANCE));
        rec(
            "headline",
            true,
            &[
                ("static_at_0", 0.55, Higher, acc),
                ("static_at_5", static_at_5, Higher, acc),
            ],
        )
    }

    /// Two sim rows gated on relative throughput, plus optional
    /// speedup-floor and labeling-throughput metrics.
    fn sim(quick: bool, rows: &[(&str, f64, Option<f64>)], labeling: Option<f64>) -> BenchRecord {
        let names: Vec<(String, String)> = rows
            .iter()
            .map(|(row, _, _)| (format!("{row}/ff_cycles_per_s"), format!("{row}/speedup")))
            .collect();
        let mut specs: Vec<MetricRow> = Vec::new();
        for ((cps_name, speedup_name), (_, cps, speedup)) in names.iter().zip(rows) {
            specs.push((cps_name, *cps, Higher, Some(Relative(0.20))));
            if let Some(s) = speedup {
                specs.push((speedup_name, *s, Higher, Some(Limit(0.95))));
            }
        }
        if let Some(sps) = labeling {
            specs.push(("labeling_samples_per_s", sps, Higher, Some(Relative(0.20))));
        }
        rec("sim", quick, &specs)
    }

    fn sim_cps(quick: bool, alu1_cps: f64) -> BenchRecord {
        sim(
            quick,
            &[("alu@1", alu1_cps, None), ("barrier_dma@8", 5e8, None)],
            None,
        )
    }

    fn sim_speedup(rows: &[(&str, f64)], labeling: Option<f64>) -> BenchRecord {
        let rows: Vec<(&str, f64, Option<f64>)> =
            rows.iter().map(|&(r, s)| (r, 1e7, Some(s))).collect();
        sim(true, &rows, labeling)
    }

    /// A serve record: two mixes plus an optional open-loop p99, all at
    /// relative tolerance `tol`; quick records also gate shedding.
    fn serve_with(
        quick: bool,
        tol: f64,
        kernel_p99: f64,
        shed: f64,
        errors: f64,
        open_p99: Option<f64>,
    ) -> BenchRecord {
        let p99 = Some(Relative(tol));
        let mut specs: Vec<MetricRow> = vec![
            ("errors", errors, Lower, Some(Limit(0.0))),
            ("shed_total", shed, Lower, quick.then_some(Limit(0.0))),
            ("kernel/p99_us", kernel_p99, Lower, p99),
            ("batch/p99_us", 900.0, Lower, p99),
        ];
        if let Some(p) = open_p99 {
            specs.push(("open_loop/p99_us", p, Lower, p99));
        }
        rec("serve", quick, &specs)
    }

    fn serve(quick: bool, kernel_p99: f64, shed: f64, errors: f64) -> BenchRecord {
        serve_with(quick, 0.20, kernel_p99, shed, errors, None)
    }

    fn open_loop(p99: Option<f64>) -> BenchRecord {
        serve_with(true, 0.10, 500.0, 0.0, 0.0, p99)
    }

    fn models(quick: bool, rows: &[(&str, f64, Option<f64>)]) -> BenchRecord {
        let names: Vec<(String, String)> = rows
            .iter()
            .map(|(m, _, _)| (format!("{m}/static_at_5"), format!("{m}/flat_mismatches")))
            .collect();
        let mut specs: Vec<MetricRow> = Vec::new();
        for ((acc_name, flat_name), (_, at5, mismatches)) in names.iter().zip(rows) {
            specs.push((acc_name, *at5, Higher, Some(Absolute(ACCURACY_TOLERANCE))));
            if let Some(m) = mismatches {
                specs.push((flat_name, *m, Lower, Some(Limit(0.0))));
            }
        }
        rec("models", quick, &specs)
    }

    fn zoo(tree: f64, gbt: f64, knn: f64, tree_mismatches: f64) -> BenchRecord {
        models(
            true,
            &[
                ("tree", tree, Some(tree_mismatches)),
                ("gbt", gbt, Some(0.0)),
                ("knn", knn, None),
            ],
        )
    }

    /// Expected outcome: `Ok` lists one substring per expected regression
    /// message; `Err` is a substring of the refusal.
    type Expect = Result<&'static [&'static str], &'static str>;

    /// One row of the comparator table: what the row checks, baseline,
    /// candidate and expected verdict.
    type DiffCase = (&'static str, BenchRecord, BenchRecord, Expect);

    /// Runs rows of the comparator table through `BenchRecord::regressions`,
    /// the one comparator behind `bench diff` and `bench history`.
    fn check_diffs(cases: Vec<DiffCase>) {
        for (what, base, cand, expect) in cases {
            let got = base.regressions(&cand);
            match expect {
                Ok(expected) => {
                    let got = got.unwrap_or_else(|e| panic!("{what}: refused: {e}"));
                    assert_eq!(got.len(), expected.len(), "{what}: {got:?}");
                    for e in expected {
                        assert!(
                            got.iter().any(|g| g.contains(e)),
                            "{what}: {e:?} not in {got:?}"
                        );
                    }
                }
                Err(expected) => {
                    let err = got.expect_err(what);
                    assert!(err.contains(expected), "{what}: {err}");
                }
            }
        }
    }

    #[test]
    fn bench_diff_flags_only_real_regressions() {
        // Absolute gate (headline accuracy map).
        check_diffs(vec![
            (
                "headline: 1-pt drop is inside",
                headline(0.80),
                headline(0.79),
                Ok(&[]),
            ),
            (
                "headline: 10-pt drop names the field",
                headline(0.80),
                headline(0.70),
                Ok(&["static_at_5: 0.8 -> 0.7"]),
            ),
            (
                "headline: improvement",
                headline(0.80),
                headline(0.95),
                Ok(&[]),
            ),
            (
                "headline: field missing from the candidate",
                headline(0.80),
                rec("headline", true, &[("static_at_0", 0.55, Higher, None)]),
                Ok(&["static_at_5: missing from candidate"]),
            ),
            (
                "benchmarks differ",
                headline(0.80),
                sim_cps(true, 1e7),
                Err("not comparable"),
            ),
        ]);
        // Anything that is not a bench record (here, an empty object and
        // the retired headline schema) is an error, not a silent pass.
        assert!(serde_json::from_str::<BenchRecord>("{}").is_err());
        let retired = r#"{"schema": "pulp-headline/v1", "accuracy": {"static_at_5": 0.9}}"#;
        assert!(serde_json::from_str::<BenchRecord>(retired).is_err());
    }

    #[test]
    fn bench_diff_gates_sim_throughput() {
        // Relative gate (sim throughput).
        check_diffs(vec![
            (
                "sim: -15% throughput is inside",
                sim_cps(true, 1e7),
                sim_cps(true, 0.85e7),
                Ok(&[]),
            ),
            (
                "sim: -50% throughput names the row",
                sim_cps(true, 1e7),
                sim_cps(true, 0.5e7),
                Ok(&["alu@1/ff_cycles_per_s"]),
            ),
            (
                "sim: improvement",
                sim_cps(true, 1e7),
                sim_cps(true, 5e7),
                Ok(&[]),
            ),
            (
                "sim: quick vs full",
                sim_cps(true, 1e7),
                sim_cps(false, 1e7),
                Err("not comparable"),
            ),
            (
                "sim: row missing from the candidate",
                sim_cps(true, 1e7),
                sim(true, &[("alu@1", 1e7, None)], None),
                Ok(&["barrier_dma@8/ff_cycles_per_s: missing"]),
            ),
        ]);
    }

    #[test]
    fn bench_diff_gates_sim_speedup_floor() {
        // Limit gate (sim speedup floor).
        check_diffs(vec![
            (
                "speedup: 1.0x passes although the baseline was faster",
                sim_speedup(&[("alu@1", 1.2)], None),
                sim_speedup(&[("alu@1", 1.0)], None),
                Ok(&[]),
            ),
            (
                "speedup: 0.96x is inside the jitter allowance",
                sim_speedup(&[("alu@1", 1.2)], None),
                sim_speedup(&[("alu@1", 0.96)], None),
                Ok(&[]),
            ),
            (
                "speedup: a candidate-only row below the floor",
                sim_speedup(&[("alu@1", 1.2)], None),
                sim_speedup(&[("alu@1", 1.1), ("tcdm_conflict@8", 0.84)], None),
                Ok(&["tcdm_conflict@8/speedup: 0.84 u below the 0.95 limit"]),
            ),
            (
                "speedup: a candidate without the column",
                sim_speedup(&[("alu@1", 1.2)], None),
                sim_cps(true, 1e7),
                Ok(&["alu@1/speedup: missing"]),
            ),
        ]);
    }

    #[test]
    fn bench_diff_gates_labeling_throughput() {
        // Relative gate (labeling throughput).
        check_diffs(vec![
            (
                "labeling: -15% is inside",
                sim_speedup(&[("alu@1", 1.2)], Some(100.0)),
                sim_speedup(&[("alu@1", 1.2)], Some(85.0)),
                Ok(&[]),
            ),
            (
                "labeling: -50% is flagged",
                sim_speedup(&[("alu@1", 1.2)], Some(100.0)),
                sim_speedup(&[("alu@1", 1.2)], Some(50.0)),
                Ok(&["labeling_samples_per_s: 100 -> 50"]),
            ),
            (
                "labeling: missing from the candidate",
                sim_speedup(&[("alu@1", 1.2)], Some(100.0)),
                sim_speedup(&[("alu@1", 1.2)], None),
                Ok(&["labeling_samples_per_s: missing"]),
            ),
            (
                "labeling: a zero baseline never fails",
                sim_speedup(&[("alu@1", 1.2)], Some(0.0)),
                sim_speedup(&[("alu@1", 1.2)], Some(50.0)),
                Ok(&[]),
            ),
        ]);
    }

    #[test]
    fn bench_diff_gates_serve_latency_and_shed() {
        // Relative gate (serve p99) and limit gates (serve errors and
        // quick-profile shedding).
        check_diffs(vec![
            (
                "serve: +18% p99 inside 20%",
                serve(true, 500.0, 0.0, 0.0),
                serve(true, 590.0, 0.0, 0.0),
                Ok(&[]),
            ),
            (
                "serve: +40% p99 names the mix",
                serve(true, 500.0, 0.0, 0.0),
                serve(true, 700.0, 0.0, 0.0),
                Ok(&["kernel/p99_us"]),
            ),
            (
                "serve: a quick candidate that shed",
                serve(true, 500.0, 0.0, 0.0),
                serve(true, 100.0, 3.0, 0.0),
                Ok(&["shed_total: 3 u above the 0 limit"]),
            ),
            (
                "serve: a full-profile candidate that shed is not gated",
                serve(false, 500.0, 0.0, 0.0),
                serve(false, 500.0, 3.0, 0.0),
                Ok(&[]),
            ),
            (
                "serve: failed requests",
                serve(true, 500.0, 0.0, 0.0),
                serve(true, 100.0, 0.0, 2.0),
                Ok(&["errors: 2 u above the 0 limit"]),
            ),
            (
                "serve: quick vs full",
                serve(true, 500.0, 0.0, 0.0),
                serve(false, 500.0, 0.0, 0.0),
                Err("not comparable"),
            ),
        ]);
    }

    #[test]
    fn p99_tolerance_parses_and_tightens_the_serve_gate() {
        // The p99 tolerance is read from the baseline record: one gate
        // kind and one number, nothing else.
        let tol = |json: &str| serde_json::from_str::<Tolerance>(json);
        assert_eq!(tol(r#"{"relative": 0.1}"#).expect("parse"), Relative(0.1));
        assert!(tol(r#"{"relative": "x"}"#).is_err());
        assert!(tol(r#"{"relative": 0.1, "limit": 0}"#).is_err());
        assert!(tol("0.1").is_err());
        let baseline = serve_with(true, 0.10, 500.0, 0.0, 0.0, None);
        let text = baseline.to_json();
        assert!(text.contains(r#""tolerance":{"relative":0.1}"#), "{text}");
        let parsed: BenchRecord = serde_json::from_str(&text).expect("parse");
        assert_eq!(parsed, baseline);
        // +15% p99 passes a 20% baseline gate but fails a 10% one.
        check_diffs(vec![
            (
                "serve: +15% p99 inside 20%",
                serve(true, 500.0, 0.0, 0.0),
                serve(true, 575.0, 0.0, 0.0),
                Ok(&[]),
            ),
            (
                "serve: +15% p99 outside 10%",
                parsed,
                serve(true, 575.0, 0.0, 0.0),
                Ok(&["kernel/p99_us: 500 -> 575 u (15.0% worse > 10% tolerance)"]),
            ),
        ]);
    }

    #[test]
    fn bench_diff_gates_the_open_loop_envelope() {
        check_diffs(vec![
            (
                "open loop: +10% is inside",
                open_loop(Some(1000.0)),
                open_loop(Some(1100.0)),
                Ok(&[]),
            ),
            (
                "open loop: +50% is flagged",
                open_loop(Some(1000.0)),
                open_loop(Some(1500.0)),
                Ok(&["open_loop/p99_us"]),
            ),
            (
                "open loop: section dropped by the candidate",
                open_loop(Some(1000.0)),
                open_loop(None),
                Ok(&["open_loop/p99_us: missing from candidate"]),
            ),
            (
                "open loop: a baseline without the section gates nothing",
                open_loop(None),
                open_loop(Some(99_999.0)),
                Ok(&[]),
            ),
        ]);
    }

    #[test]
    fn bench_diff_gates_model_zoo_accuracy_and_flat_parity() {
        // Absolute accuracy gate and the flat-parity limit.
        let zoo_base = zoo(0.93, 0.94, 0.90, 0.0);
        check_diffs(vec![
            (
                "models: 0.5-pt drops are inside",
                zoo_base.clone(),
                zoo(0.925, 0.935, 0.91, 0.0),
                Ok(&[]),
            ),
            (
                "models: 3-pt drop names the model",
                zoo_base.clone(),
                zoo(0.90, 0.94, 0.90, 0.0),
                Ok(&["tree/static_at_5"]),
            ),
            (
                "models: flat mismatches fail despite perfect accuracy",
                zoo_base.clone(),
                zoo(0.99, 0.99, 0.99, 2.0),
                Ok(&["tree/flat_mismatches: 2 u above the 0 limit"]),
            ),
            (
                "models: a model missing from the candidate",
                zoo_base.clone(),
                models(true, &[("tree", 0.93, Some(0.0)), ("knn", 0.90, None)]),
                Ok(&["gbt/static_at_5: missing", "gbt/flat_mismatches: missing"]),
            ),
            (
                "models: quick vs full",
                zoo_base,
                models(false, &[("tree", 0.93, Some(0.0))]),
                Err("not comparable"),
            ),
        ]);
    }

    /// One row of the summary table: a record, substrings its summary
    /// must hold and substrings it must not.
    type SummaryCase = (
        BenchRecord,
        &'static [&'static str],
        &'static [&'static str],
    );

    fn check_summaries(cases: Vec<SummaryCase>) {
        for (record, present, absent) in cases {
            let s = record.summary();
            for p in present {
                assert!(s.contains(p), "{p:?} not in {s:?}");
            }
            for a in absent {
                assert!(!s.contains(a), "{a:?} in {s:?}");
            }
        }
    }

    #[test]
    fn record_summaries_name_the_headline_figures() {
        check_summaries(vec![
            (
                sim_speedup(&[("alu@1", 1.2), ("alu@8", 0.97)], Some(100.0)),
                &[
                    "alu@1/ff_cycles_per_s=1.000e7",
                    "alu@8/speedup=0.97",
                    "labeling_samples_per_s=100",
                ],
                &["alu@1/speedup"],
            ),
            (
                serve(true, 500.0, 0.0, 0.0),
                &["batch/p99_us=900", "errors=0", "shed_total=0"],
                &["kernel/"],
            ),
            (
                headline(0.80),
                &["static_at_0=0.55", "static_at_5=0.8"],
                &[],
            ),
            (
                rec("serve", false, &[("wall_s", 1.0, Lower, None)]),
                &["no gated metrics"],
                &["wall_s"],
            ),
        ]);
    }

    #[test]
    fn models_record_summary_names_models_and_parity() {
        check_summaries(vec![
            (
                zoo(0.93, 0.94, 0.90, 0.0),
                &["knn/static_at_5=0.9", "tree/flat_mismatches=0"],
                &["tree/static_at_5", "gbt/static_at_5"],
            ),
            (zoo(0.93, 0.94, 0.90, 4.0), &["tree/flat_mismatches=4"], &[]),
        ]);
    }

    #[test]
    fn serve_capacity_flags_parse_strictly() {
        let a = parse(&[
            "serve",
            "--workers",
            "8",
            "--queue-depth",
            "128",
            "--timeout-ms",
            "250",
            "--max-body-bytes",
            "4096",
            "--keepalive-max",
            "32",
        ])
        .expect("parse");
        assert_eq!(a.workers, Some(8));
        assert_eq!(a.queue_depth, Some(128));
        assert_eq!(a.timeout_ms, Some(250));
        assert_eq!(a.max_body_bytes, Some(4096));
        assert_eq!(a.keepalive_max, Some(32));
        let o = serve_options(&a);
        assert_eq!((o.workers, o.queue_depth, o.timeout_ms), (8, 128, 250));
        assert_eq!((o.max_body_bytes, o.keepalive_max_requests), (4096, 32));
        // Defaults flow through when flags are absent.
        let defaults = serve_options(&parse(&["serve"]).expect("parse"));
        assert_eq!(defaults, ServeOptions::default());
        // Zero, negatives and garbage are rejected outright.
        assert!(parse(&["serve", "--workers", "0"]).is_none());
        assert!(parse(&["serve", "--queue-depth", "-1"]).is_none());
        assert!(parse(&["serve", "--timeout-ms", "soon"]).is_none());
        assert!(parse(&["serve", "--max-body-bytes"]).is_none());
    }

    #[test]
    fn retry_after_flag_parses_strictly_and_reaches_the_options() {
        let a = parse(&["serve", "--retry-after-secs", "5"]).expect("parse");
        assert_eq!(a.retry_after_secs, Some(5));
        assert_eq!(serve_options(&a).retry_after_secs, 5);
        // Default is 1 second, unchanged from the pre-flag behaviour.
        let d = serve_options(&parse(&["serve"]).expect("parse"));
        assert_eq!(d.retry_after_secs, 1);
        // Zero, negatives and garbage are rejected outright.
        assert!(parse(&["serve", "--retry-after-secs", "0"]).is_none());
        assert!(parse(&["serve", "--retry-after-secs", "-2"]).is_none());
        assert!(parse(&["serve", "--retry-after-secs", "soon"]).is_none());
        assert!(parse(&["serve", "--retry-after-secs"]).is_none());
    }

    #[test]
    fn open_loop_flags_parse_strictly() {
        let a = parse(&[
            "bench",
            "serve",
            "--quick",
            "--rate",
            "750.5",
            "--hist-out",
            "H.json",
        ])
        .expect("parse");
        assert_eq!(a.rate, Some(750.5));
        assert_eq!(a.hist_out.as_deref(), Some("H.json"));
        // Zero, negatives, garbage and missing values are rejected.
        assert!(parse(&["bench", "serve", "--rate", "0"]).is_none());
        assert!(parse(&["bench", "serve", "--rate", "-100"]).is_none());
        assert!(parse(&["bench", "serve", "--rate", "fast"]).is_none());
        assert!(parse(&["bench", "serve", "--rate", "inf"]).is_none());
        assert!(parse(&["bench", "serve", "--hist-out"]).is_none());
    }

    #[test]
    fn bench_serve_subcommand_parses() {
        let a = parse(&["bench", "serve", "--quick", "--out", "S.json"]).expect("parse");
        assert_eq!(a.kernel.as_deref(), Some("serve"));
        assert!(a.quick);
        assert_eq!(a.out.as_deref(), Some("S.json"));
        let a = parse(&["bench", "serve", "--quick", "--trace-out", "T.json"]).expect("parse");
        assert_eq!(a.trace_out.as_deref(), Some("T.json"));
        assert!(parse(&["bench", "serve", "--trace-out"]).is_none());
    }

    #[test]
    fn observability_flags_parse_strictly() {
        let a = parse(&[
            "serve",
            "--slow-ms",
            "0",
            "--flight-capacity",
            "512",
            "--log-json",
        ])
        .expect("parse");
        assert_eq!(a.slow_ms, Some(0));
        assert_eq!(a.flight_capacity, Some(512));
        assert!(a.log_json);
        let o = serve_options(&a);
        assert_eq!((o.slow_ms, o.flight_capacity), (0, 512));
        // Defaults flow through when the flags are absent.
        let d = serve_options(&parse(&["serve"]).expect("parse"));
        assert_eq!(d.slow_ms, ServeOptions::default().slow_ms);
        assert_eq!(d.flight_capacity, ServeOptions::default().flight_capacity);
        // Garbage and missing values are rejected outright.
        assert!(parse(&["serve", "--slow-ms", "fast"]).is_none());
        assert!(parse(&["serve", "--slow-ms", "-1"]).is_none());
        assert!(parse(&["serve", "--flight-capacity", "0"]).is_none());
        assert!(parse(&["serve", "--flight-capacity"]).is_none());
    }

    #[test]
    fn bench_models_subcommand_and_flags_parse() {
        let a = parse(&[
            "bench",
            "models",
            "--quick",
            "--out",
            "M.json",
            "--cv-threads",
            "4",
            "--journal",
            "R.jsonl",
        ])
        .expect("parse");
        assert_eq!(a.kernel.as_deref(), Some("models"));
        assert!(a.quick);
        assert_eq!(a.out.as_deref(), Some("M.json"));
        assert_eq!(a.cv_threads, Some(4));
        assert_eq!(a.journal.as_deref(), Some("R.jsonl"));
        // Zero, garbage and missing cv-thread counts are rejected.
        assert!(parse(&["bench", "models", "--cv-threads", "0"]).is_none());
        assert!(parse(&["bench", "models", "--cv-threads", "x"]).is_none());
        assert!(parse(&["bench", "models", "--cv-threads"]).is_none());
    }

    #[test]
    fn report_and_journal_subcommands_parse() {
        let a = parse(&["report", "RUN.jsonl"]).expect("parse");
        assert_eq!(a.command, "report");
        assert_eq!(a.kernel.as_deref(), Some("RUN.jsonl"));

        let a = parse(&["journal", "validate", "a.jsonl", "b.jsonl"]).expect("parse");
        assert_eq!(a.command, "journal");
        assert_eq!(a.kernel.as_deref(), Some("validate"));
        assert_eq!(a.rest, vec!["a.jsonl".to_string(), "b.jsonl".to_string()]);

        let a = parse(&["bench", "history", "baselines"]).expect("parse");
        assert_eq!(a.kernel.as_deref(), Some("history"));
        assert_eq!(a.rest, vec!["baselines".to_string()]);

        let a = parse(&["bench", "sim", "--quick", "--journal", "R.jsonl"]).expect("parse");
        assert_eq!(a.journal.as_deref(), Some("R.jsonl"));
        assert!(parse(&["bench", "sim", "--journal"]).is_none());
    }

    #[test]
    fn retired_bench_flags_are_rejected() {
        // Gates live in the baseline record; the server walks the flat model.
        assert!(parse(&[
            "bench",
            "diff",
            "a.json",
            "b.json",
            "--p99-tolerance",
            "0.1"
        ])
        .is_none());
        assert!(parse(&["bench", "serve", "--predictor", "float"]).is_none());
    }

    #[test]
    fn cache_subcommand_parses() {
        let a = parse(&["cache", "stats", "--cache-dir", "/tmp/sweeps"]).expect("parse");
        assert_eq!(a.command, "cache");
        assert_eq!(a.kernel.as_deref(), Some("stats"));
        assert_eq!(a.cache_dir.as_deref(), Some("/tmp/sweeps"));
        assert!(parse(&["cache", "clear", "--cache-dir"]).is_none());
    }
}
