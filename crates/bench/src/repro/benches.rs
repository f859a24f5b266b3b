//! The bench bodies behind `pulp_cli bench sim|serve|models`: each runs its
//! measurement, prints its table, writes its extra artifacts and hands its
//! report and record to the runner, which fails the run on any breach of
//! the record's own limits.

use super::{Output, Run, Stop};
use crate::{
    run_models_bench, run_serve_bench, run_sim_bench, Args, ServeBenchOptions, SimBenchOptions,
};
use pulp_energy::pipeline::LabeledDataset;

/// `bench sim`'s options: the profile's, then `--max-cycles` and `--iters`.
fn sim_options(args: &Args) -> SimBenchOptions {
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
    opts
}

/// The manifest extras of `bench sim`.
pub(super) fn sim_provenance(args: &Args) -> Vec<(&'static str, String)> {
    let opts = sim_options(args);
    vec![
        ("iters", opts.iters.to_string()),
        ("max_cycles", opts.max_cycles.to_string()),
    ]
}

/// `bench serve`'s options: the profile's, then `--rate`.
fn serve_options(args: &Args) -> ServeBenchOptions {
    let mut opts = if args.quick {
        ServeBenchOptions::quick()
    } else {
        ServeBenchOptions::default()
    };
    if let Some(rate) = args.rate {
        opts.open_loop_rate_rps = rate;
    }
    opts
}

/// The manifest extras of `bench serve`.
pub(super) fn serve_provenance(args: &Args) -> Vec<(&'static str, String)> {
    let rate = serve_options(args).open_loop_rate_rps;
    vec![("rate_rps", rate.to_string())]
}

/// The simulator benchmark (see [`crate::sim_bench`]).
pub(super) fn sim(run: &mut Run) -> Result<Output, Stop> {
    let args = run.args;
    let opts = sim_options(args);
    eprintln!(
        "bench sim: {} run ({} baskets x {} team sizes, {} timing iteration(s))...",
        args.profile(),
        crate::sim_bench::BASKETS.len(),
        crate::sim_bench::TEAM_SIZES.len(),
        opts.iters
    );
    let report = run_sim_bench(&opts, run.journal.as_mut());
    write!(run.out, "{}", report.render_table())?;
    Ok(Output::bench(&report, report.record()))
}

/// The serving-layer load benchmark (see [`crate::serve_bench`]) against
/// a server trained on `data`. `--trace-out` and `--hist-out` save the
/// flight-recorder trace and the open-loop latency histogram.
pub(super) fn serve(run: &mut Run, data: &LabeledDataset) -> Result<Output, Stop> {
    let args = run.args;
    let opts = serve_options(args);
    eprintln!(
        "bench serve: {} run ({} rounds of {} clients x {} requests, {} workers, \
         queue depth {}, open-loop {} rps)...",
        args.profile(),
        opts.rounds,
        opts.clients,
        opts.requests_per_client,
        opts.serve.workers,
        opts.serve.queue_depth,
        opts.open_loop_rate_rps
    );
    let bench = run_serve_bench(&opts, data, &run.opts);
    write!(run.out, "{}", bench.report.render_table())?;
    let histogram = bench.open_loop_histogram_json();
    for (path, text, what) in [
        (
            &args.trace_out,
            &bench.trace_json,
            "flight-recorder Chrome trace",
        ),
        (&args.hist_out, &histogram, "open-loop latency histogram"),
    ] {
        if let Some(path) = path {
            std::fs::write(path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            writeln!(run.out, "wrote {} ({what})", path.display())?;
        }
    }
    Ok(Output::bench(&bench.report, bench.report.record()))
}

/// The model-zoo benchmark (see [`crate::models_bench`]).
pub(super) fn models(run: &mut Run, data: &LabeledDataset) -> Result<Output, Stop> {
    let protocol = run.protocol;
    eprintln!(
        "bench models: {} run ({} folds x {} repeats, cv-threads {})...",
        run.args.profile(),
        protocol.folds,
        protocol.repeats,
        if protocol.cv_threads == 0 {
            "all".to_string()
        } else {
            protocol.cv_threads.to_string()
        }
    );
    let report = run_models_bench(data, &protocol, run.args.quick);
    write!(run.out, "{}", report.render_table())?;
    Ok(Output::bench(&report, report.record()))
}
