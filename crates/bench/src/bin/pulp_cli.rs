//! `pulp_cli` — command-line front end to the whole stack.
//!
//! ```text
//! pulp_cli list                                   # dataset kernels
//! pulp_cli pretty   <kernel> [--dtype d] [--size n]   # pseudo-C source
//! pulp_cli features <kernel> [--dtype d] [--size n]   # static features
//! pulp_cli disasm   <kernel> [--team t] [...]         # lowered program
//! pulp_cli measure  <kernel> [...]                    # energy at 1..=8 cores
//! pulp_cli classify <kernel> [--quick] [...]          # train + predict
//! pulp_cli mca      <kernel> [...]                    # LLVM-MCA-style report
//! pulp_cli profile  <kernel> [...]                    # stall causes + energy, 1..=8 cores
//! pulp_cli trace    <kernel> [--team t] [...]         # GVSOC-style trace
//! pulp_cli trace    <kernel> --chrome out.json [...]  # Chrome trace-event JSON
//! pulp_cli repro                                  # list the paper's experiments
//! pulp_cli repro    <name> [--quick] [--json PATH]    # regenerate one table/figure
//! pulp_cli cache    stats [--cache-dir DIR]           # sweep-cache usage
//! pulp_cli cache    clear [--cache-dir DIR]           # delete cached sweeps
//! pulp_cli serve    [--addr HOST:PORT] [--quick]      # HTTP prediction service
//! pulp_cli bench    diff OLD.json NEW.json            # regression gate over two BENCH_*.json records
//! pulp_cli bench    sim [--quick] [--out PATH]        # simulator perf benchmark
//! pulp_cli bench    serve [--quick] [--out PATH]      # serving-layer load benchmark
//! pulp_cli bench    models [--quick] [--out PATH]     # model-zoo accuracy + flat-parity benchmark
//! pulp_cli bench    history DIR                       # benchmark trajectory over committed records
//! pulp_cli report   RUN.jsonl                         # deterministic report from a run journal
//! pulp_cli journal  validate RUN.jsonl [...]          # structural check of run journals
//! ```
//!
//! Every subcommand shares one strict parser ([`Args`]): an unknown flag
//! or a malformed value names the flag and exits with status 2.
//! Defaults: `--dtype f32` (or the kernel's only supported type),
//! `--size 2048`, `--team 4`, `--addr 127.0.0.1:7878`,
//! `--max-cycles 100000000` for profile/trace runs.
//!
//! Every command that reads the labelled dataset (`repro`, `classify`,
//! `serve`, `bench serve`, `bench models`) takes its options from
//! [`Args::pipeline_options`]: the full 448-sample dataset, or the reduced
//! one under `--quick`, simulated through the sweep cache at
//! `--cache-dir` (default: `pulp-sweep-cache` in the cargo target
//! directory). `cache stats|clear` act on the same directory.
//!
//! `repro <name>` runs one entry of the experiment registry
//! ([`pulp_bench::repro`]): the paper's Table I, dataset statistics,
//! Figure 2 left and right, Table IV and headline numbers, the extensions
//! and the `dataset_export` / `profile_report` utilities. `repro` alone
//! prints the registry names, one per line. `bench sim|serve|models` run
//! the entries of the bench table through the same runner. Every
//! record-writing command (`repro headline` and the three benches) writes
//! the run manifest (`--manifest PATH`, default `manifest.json`;
//! `--no-manifest` skips it), stamps its hash into the record's
//! `manifest_hash`, and honours `--journal PATH` and `--json PATH`. A
//! record that cannot be written, or a bench invariant violation, exits 1.
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
//! bit-for-bit, times the profiling telemetry (`profile_run`) against the
//! same run with `NoTelemetry` (gated at `TELEMETRY_LIMIT_PCT`), and writes
//! `BENCH_sim.json` (override with `--out`).
//!
//! `bench serve` trains the prediction server on the dataset, boots it
//! in-process and drives it with concurrent keep-alive clients over
//! kernel-name, raw-feature and batch request mixes, reporting throughput,
//! per-mix p50/p90/p99 latency and the shed/timeout counters; writes
//! `BENCH_serve.json` (override with `--out`). `--trace-out PATH`
//! additionally captures `GET /debug/requests` (the flight recorder's tail
//! of the load) as Chrome-trace JSON; the capture is validated either way.
//!
//! `bench models` evaluates the whole model zoo (tree, random forest,
//! gradient-boosted trees, kNN) under the repeated-CV protocol and checks
//! the quantized flat compilation of each tree-backed model against the
//! float reference on every dataset row; writes `BENCH_models.json`
//! (override with `--out`). `--cv-threads N` pins the CV worker count (0,
//! the default, uses every core) — the record is bit-identical at any
//! value.
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
//! discipline) over any number of journals. `repro` and `bench
//! sim|serve|models` accept `--journal PATH` to write such journals.

use kernel_ir::{lower, DType, Kernel};
use pulp_bench::cli::USAGE;
use pulp_bench::serve::{install_signal_shutdown, ServeOptions, ServeState, Server};
use pulp_bench::{profile_run, recorder_of_run, repro, Args, BenchRecord};
use pulp_energy::{
    default_cache_version, measure_kernel, static_feature_names, static_feature_vector,
    EnergyPredictor, StaticFeatureSet, SweepCache,
};
use pulp_energy_model::{energy_waterfall, EnergyModel};
use pulp_kernels::{registry, KernelDef, KernelParams};
use pulp_ml::TreeParams;
use pulp_sim::{simulate_traced, ClusterConfig, TextSink};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// A command line that parses but does not fit its subcommand.
fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Default cycle budget for interactive `profile`/`trace` runs
/// (override with `--max-cycles`).
const DEFAULT_RUN_BUDGET: u64 = 100_000_000;

/// `bench diff`: gates the candidate record at `new_path` against the
/// baseline at `old_path`.
fn cmd_bench_diff(old_path: &str, new_path: &str) -> ExitCode {
    let load = |path: &str| BenchRecord::load(Path::new(path));
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
    match pulp_obs::JournalReader::read_file(Path::new(path)) {
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
        let record = match BenchRecord::load(&Path::new(dir).join(name)) {
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
        match pulp_obs::JournalReader::read_file(Path::new(&path)) {
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
    if let Some(n) = args.retry_after_secs {
        o.retry_after_secs = n;
    }
    o
}

fn cmd_serve(args: &Args) -> ExitCode {
    let log = args.logger();
    let opts = args.pipeline_options();
    log.info(
        "serve",
        "training model (this simulates the training sweep unless cached)...",
        &[("profile", args.profile().to_string())],
    );
    let serve_opts = serve_options(args);
    // The request-path logger moves into the server state: slow-request
    // lines from worker threads honour `--log-json` too.
    let mut state = ServeState::train(&opts).with_logger(args.logger());
    if let Some(n) = args.flight_capacity {
        state = state.with_flight_capacity(n);
    }
    let flight_capacity = state.flight().capacity();
    let state = Arc::new(state);
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
            ("flight_capacity", flight_capacity.to_string()),
            ("retry_after_secs", serve_opts.retry_after_secs.to_string()),
        ],
    );
    server.run();
    log.info("serve", "drained; all workers joined", &[]);
    ExitCode::SUCCESS
}

/// The kernel the command line names (its one operand), instantiated at
/// `--dtype` and `--size`. Every failure is reported here; the `Err` is
/// the exit code.
fn kernel_arg<'a>(defs: &[KernelDef], args: &'a Args) -> Result<(&'a str, Kernel), ExitCode> {
    let [name] = args.operands.as_slice() else {
        return Err(usage());
    };
    let Some(def) = defs.iter().find(|d| d.name == name) else {
        eprintln!("unknown kernel `{name}`; run `pulp_cli list`");
        return Err(ExitCode::FAILURE);
    };
    let dtype = args.dtype.unwrap_or_else(|| {
        if def.supports(DType::F32) {
            DType::F32
        } else {
            DType::I32
        }
    });
    if !def.supports(dtype) {
        eprintln!("kernel {} does not support {dtype}", def.name);
        return Err(ExitCode::FAILURE);
    }
    match def.build(&KernelParams::new(dtype, args.size())) {
        Ok(k) => Ok((name, k)),
        Err(e) => {
            eprintln!("cannot instantiate {}: {e}", def.name);
            Err(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse_from(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}\n");
            return usage();
        }
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
            let (_, kernel) = match kernel_arg(&defs, &args) {
                Ok(k) => k,
                Err(code) => return code,
            };
            print!("{kernel}");
            ExitCode::SUCCESS
        }
        "features" => {
            let (_, kernel) = match kernel_arg(&defs, &args) {
                Ok(k) => k,
                Err(code) => return code,
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
            let (_, kernel) = match kernel_arg(&defs, &args) {
                Ok(k) => k,
                Err(code) => return code,
            };
            match lower(&kernel, args.team(), &config) {
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
            let (_, kernel) = match kernel_arg(&defs, &args) {
                Ok(k) => k,
                Err(code) => return code,
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
            let (_, kernel) = match kernel_arg(&defs, &args) {
                Ok(k) => k,
                Err(code) => return code,
            };
            eprintln!("training on the {} kernel set...", args.profile());
            let opts = args.pipeline_options();
            let trained = pulp_bench::load_or_build_dataset(&opts, &args, None)
                .map_err(|e| format!("training-set build failed: {e}"))
                .and_then(|data| {
                    EnergyPredictor::train(&data, StaticFeatureSet::All, TreeParams::default())
                        .map_err(|e| format!("training failed: {e}"))
                });
            let predictor = match trained {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let cores = predictor.predict_cores(&kernel);
            println!("predicted minimum-energy configuration: {cores} cores");
            if let Ok(profile) = measure_kernel(&kernel, &config, &EnergyModel::table1()) {
                println!(
                    "simulated ground truth: {} cores (waste of prediction: {:.2}%)",
                    profile.label() + 1,
                    profile.waste(cores - 1) * 100.0
                );
            }
            ExitCode::SUCCESS
        }
        "mca" => {
            let (_, kernel) = match kernel_arg(&defs, &args) {
                Ok(k) => k,
                Err(code) => return code,
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
            let (name, kernel) = match kernel_arg(&defs, &args) {
                Ok(k) => k,
                Err(code) => return code,
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
            let (name, kernel) = match kernel_arg(&defs, &args) {
                Ok(k) => k,
                Err(code) => return code,
            };
            let lowered = match lower(&kernel, args.team(), &config) {
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
                let json =
                    pulp_obs::chrome_trace(&rec, &format!("pulp_cli {name} t{}", args.team()));
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                println!(
                    "wrote {}: {} cycles, {} spans (load in chrome://tracing or ui.perfetto.dev)",
                    path.display(),
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
            let [action] = args.operands.as_slice() else {
                return usage();
            };
            let dir = args.sweep_cache_dir();
            match action.as_str() {
                "stats" => match SweepCache::dir_stats(&dir) {
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
                "clear" => match SweepCache::clear(&dir) {
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
        "repro" => match args.operands.as_slice() {
            [] => {
                for (name, _) in repro::EXPERIMENTS {
                    println!("{name}");
                }
                ExitCode::SUCCESS
            }
            [name] => repro::run(name, &args),
            _ => usage(),
        },
        "report" => match args.operands.as_slice() {
            [path] => cmd_report(path),
            _ => usage(),
        },
        "journal" => match args.operands.as_slice() {
            [action, paths @ ..] if action == "validate" && !paths.is_empty() => {
                cmd_journal_validate(paths)
            }
            _ => usage(),
        },
        "bench" => match args.operands.as_slice() {
            [action, old, new] if action == "diff" => cmd_bench_diff(old, new),
            [action, dir] if action == "history" => cmd_bench_history(dir),
            [name] => repro::bench(name, &args),
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

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse_from(line.split_whitespace().map(str::to_string))
    }

    /// One row of the parser table: a command line, and either the
    /// [`Args`] it must parse to or a substring of its error.
    type ParseRow = (&'static str, Result<Args, &'static str>);

    /// `words` (a command and its operands) with every flag at its
    /// default, then `edit`ed: the expected parse of a table row.
    fn parsed(words: &str, edit: fn(&mut Args)) -> Result<Args, &'static str> {
        let mut words = words.split_whitespace().map(str::to_string);
        let mut a = Args {
            command: words.next().expect("a command"),
            operands: words.collect(),
            ..Args::default()
        };
        edit(&mut a);
        Ok(a)
    }

    /// Runs rows of the parser table through [`Args::parse_from`], the one
    /// parser behind every subcommand.
    fn check_parses(rows: Vec<ParseRow>) {
        for (line, expect) in rows {
            match (parse(line), expect) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{line:?}"),
                (Err(err), Err(want)) => assert!(err.contains(want), "{line:?}: {err}"),
                (got, want) => panic!("{line:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn parses_full_command_line() {
        check_parses(vec![(
            "measure gemm --dtype i32 --size 512 --team 6",
            parsed("measure gemm", |a| {
                a.dtype = Some(DType::I32);
                a.size = Some(512);
                a.team = Some(6);
            }),
        )]);
    }

    #[test]
    fn defaults_apply() {
        let a = parse("pretty fir").expect("parse");
        assert_eq!((a.dtype, a.size(), a.team()), (None, 2048, 4));
        assert_eq!(a.cv_threads, 0, "0 = all cores");
    }

    #[test]
    fn rejects_bad_dtype_and_flags() {
        check_parses(vec![
            (
                "measure gemm --dtype f64",
                Err("--dtype expects i32 or f32, got `f64`"),
            ),
            ("measure gemm --bogus", Err("unknown flag `--bogus`")),
            ("", Err("missing command")),
        ]);
    }

    #[test]
    fn one_meaning_per_flag() {
        check_parses(vec![
            // `--cv-threads 0` is "all cores" for every subcommand; `bench
            // models` used to reject its own default.
            (
                "bench models --cv-threads 0",
                parsed("bench models", |_| {}),
            ),
            (
                "repro headline --cv-threads 0",
                parsed("repro headline", |_| {}),
            ),
            // Malformed sizes and teams name the flag (they used to print
            // a bare usage).
            (
                "measure gemm --size banana",
                Err("--size expects a positive integer, got `banana`"),
            ),
            (
                "disasm gemm --team banana",
                Err("--team expects a positive integer, got `banana`"),
            ),
            ("disasm gemm --team 0", Err("--team expects")),
            // Unknown flags are rejected everywhere, including the retired
            // experiment-only and guard-only ones.
            ("repro headline --bogus", Err("unknown flag `--bogus`")),
            (
                "repro headline --bench-out B.json",
                Err("unknown flag `--bench-out`"),
            ),
            ("repro headline --model gbt", Err("unknown flag `--model`")),
            ("bench sim --threshold 2", Err("unknown flag `--threshold`")),
            ("bench sim --strict", Err("unknown flag `--strict`")),
            // The experiment flags reach `repro` unchanged.
            (
                "repro profile_report --size 512 --detail --json p.json --out B.json",
                parsed("repro profile_report", |a| {
                    a.size = Some(512);
                    a.detail = true;
                    a.json = Some("p.json".into());
                    a.out = Some("B.json".into());
                }),
            ),
        ]);
    }

    #[test]
    fn chrome_flag_takes_a_path() {
        check_parses(vec![
            (
                "trace fir --chrome out.json",
                parsed("trace fir", |a| a.chrome = Some("out.json".into())),
            ),
            ("trace fir --chrome", Err("--chrome requires a value")),
        ]);
    }

    #[test]
    fn serve_and_bench_subcommands_parse() {
        check_parses(vec![
            (
                "serve --addr 0.0.0.0:9000 --quick",
                parsed("serve", |a| {
                    a.addr = Some("0.0.0.0:9000".into());
                    a.quick = true;
                }),
            ),
            // One dataset flag for every command: `--quick`.
            ("serve --full", Err("unknown flag `--full`")),
            (
                "bench diff old.json new.json",
                parsed("bench diff old.json new.json", |_| {}),
            ),
        ]);
    }

    #[test]
    fn bench_sim_flags_parse_strictly() {
        check_parses(vec![
            (
                "bench sim --quick --out custom.json --max-cycles 5000 --iters 3",
                parsed("bench sim", |a| {
                    a.quick = true;
                    a.out = Some("custom.json".into());
                    a.max_cycles = Some(5_000);
                    a.iters = Some(3);
                }),
            ),
            // Zero, negative and garbage budgets are rejected outright.
            ("bench sim --max-cycles 0", Err("--max-cycles")),
            ("bench sim --max-cycles -3", Err("--max-cycles")),
            ("bench sim --max-cycles many", Err("--max-cycles")),
            ("bench sim --max-cycles", Err("--max-cycles")),
            ("bench sim --iters 0", Err("--iters")),
        ]);
    }

    #[test]
    fn serve_capacity_flags_parse_strictly() {
        let line = "serve --workers 8 --queue-depth 128 --timeout-ms 250 \
                    --max-body-bytes 4096 --keepalive-max 32";
        check_parses(vec![
            (
                line,
                parsed("serve", |a| {
                    a.workers = Some(8);
                    a.queue_depth = Some(128);
                    a.timeout_ms = Some(250);
                    a.max_body_bytes = Some(4096);
                    a.keepalive_max = Some(32);
                }),
            ),
            // Zero, negatives and garbage are rejected outright.
            ("serve --workers 0", Err("--workers")),
            ("serve --queue-depth -1", Err("--queue-depth")),
            ("serve --timeout-ms soon", Err("--timeout-ms")),
            ("serve --max-body-bytes", Err("--max-body-bytes")),
        ]);
        let o = serve_options(&parse(line).expect("parse"));
        assert_eq!((o.workers, o.queue_depth, o.timeout_ms), (8, 128, 250));
        assert_eq!((o.max_body_bytes, o.keepalive_max_requests), (4096, 32));
        // Defaults flow through when flags are absent.
        let defaults = serve_options(&parse("serve").expect("parse"));
        assert_eq!(defaults, ServeOptions::default());
    }

    #[test]
    fn retry_after_flag_parses_strictly_and_reaches_the_options() {
        check_parses(vec![
            (
                "serve --retry-after-secs 5",
                parsed("serve", |a| a.retry_after_secs = Some(5)),
            ),
            ("serve --retry-after-secs 0", Err("--retry-after-secs")),
            ("serve --retry-after-secs -2", Err("--retry-after-secs")),
            ("serve --retry-after-secs soon", Err("--retry-after-secs")),
            ("serve --retry-after-secs", Err("--retry-after-secs")),
        ]);
        let a = parse("serve --retry-after-secs 5").expect("parse");
        assert_eq!(serve_options(&a).retry_after_secs, 5);
        // Default is 1 second, unchanged from the pre-flag behaviour.
        let d = serve_options(&parse("serve").expect("parse"));
        assert_eq!(d.retry_after_secs, 1);
    }

    #[test]
    fn open_loop_flags_parse_strictly() {
        check_parses(vec![
            (
                "bench serve --quick --rate 750.5 --hist-out H.json",
                parsed("bench serve", |a| {
                    a.quick = true;
                    a.rate = Some(750.5);
                    a.hist_out = Some("H.json".into());
                }),
            ),
            // Zero, negatives, garbage and missing values are rejected.
            ("bench serve --rate 0", Err("--rate")),
            ("bench serve --rate -100", Err("--rate")),
            ("bench serve --rate fast", Err("--rate")),
            ("bench serve --rate inf", Err("--rate")),
            ("bench serve --hist-out", Err("--hist-out")),
        ]);
    }

    #[test]
    fn bench_serve_subcommand_parses() {
        check_parses(vec![
            (
                "bench serve --quick --out S.json",
                parsed("bench serve", |a| {
                    a.quick = true;
                    a.out = Some("S.json".into());
                }),
            ),
            (
                "bench serve --quick --trace-out T.json",
                parsed("bench serve", |a| {
                    a.quick = true;
                    a.trace_out = Some("T.json".into());
                }),
            ),
            ("bench serve --trace-out", Err("--trace-out")),
        ]);
    }

    #[test]
    fn observability_flags_parse_strictly() {
        let line = "serve --slow-ms 0 --flight-capacity 512 --log-json";
        check_parses(vec![
            (
                line,
                parsed("serve", |a| {
                    a.slow_ms = Some(0);
                    a.flight_capacity = Some(512);
                    a.log_json = true;
                }),
            ),
            // Garbage and missing values are rejected outright.
            ("serve --slow-ms fast", Err("--slow-ms")),
            ("serve --slow-ms -1", Err("--slow-ms")),
            ("serve --flight-capacity 0", Err("--flight-capacity")),
            ("serve --flight-capacity", Err("--flight-capacity")),
        ]);
        let o = serve_options(&parse(line).expect("parse"));
        assert_eq!(o.slow_ms, 0);
        // Defaults flow through when the flags are absent.
        let d = serve_options(&parse("serve").expect("parse"));
        assert_eq!(d.slow_ms, ServeOptions::default().slow_ms);
    }

    #[test]
    fn bench_models_subcommand_and_flags_parse() {
        check_parses(vec![
            (
                "bench models --quick --out M.json --cv-threads 4 --journal R.jsonl",
                parsed("bench models", |a| {
                    a.quick = true;
                    a.out = Some("M.json".into());
                    a.cv_threads = 4;
                    a.journal = Some("R.jsonl".into());
                }),
            ),
            // Negative, garbage and missing cv-thread counts are rejected.
            ("bench models --cv-threads -1", Err("--cv-threads")),
            ("bench models --cv-threads x", Err("--cv-threads")),
            ("bench models --cv-threads", Err("--cv-threads")),
        ]);
    }

    #[test]
    fn report_and_journal_subcommands_parse() {
        check_parses(vec![
            ("report RUN.jsonl", parsed("report RUN.jsonl", |_| {})),
            (
                "journal validate a.jsonl b.jsonl",
                parsed("journal validate a.jsonl b.jsonl", |_| {}),
            ),
            (
                "bench history baselines",
                parsed("bench history baselines", |_| {}),
            ),
            (
                "bench sim --quick --journal R.jsonl",
                parsed("bench sim", |a| {
                    a.quick = true;
                    a.journal = Some("R.jsonl".into());
                }),
            ),
            ("bench sim --journal", Err("--journal")),
        ]);
    }

    #[test]
    fn retired_bench_flags_are_rejected() {
        // Gates live in the baseline record; the server walks the flat model.
        check_parses(vec![
            (
                "bench diff a.json b.json --p99-tolerance 0.1",
                Err("unknown flag `--p99-tolerance`"),
            ),
            (
                "bench serve --predictor float",
                Err("unknown flag `--predictor`"),
            ),
        ]);
    }

    #[test]
    fn cache_subcommand_parses() {
        check_parses(vec![
            (
                "cache stats --cache-dir /tmp/sweeps",
                parsed("cache stats", |a| a.cache_dir = Some("/tmp/sweeps".into())),
            ),
            ("cache clear --cache-dir", Err("--cache-dir")),
            // Without `--cache-dir` both actions use the default sweep
            // cache, the one every dataset-reading command opens.
            ("cache stats", parsed("cache stats", |_| {})),
        ]);
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
}
