//! `train_eval`: the headline evaluation from a warm sweep cache under the
//! paper protocol (10 folds x 100 repeats) — the static-ALL curve, the
//! top-6 feature ranking, the optimised curve and the 80-dim dynamic
//! curve. One op is one evaluation; items are tree fits.

use crate::expected::{self, check_curves, check_dataset};
use crate::report::Report;
use crate::stats::{median, nproc, secs, timed};
use crate::{work, Args};
use pulp_energy::evaluation::{curve_from_predictions, rank_features};
use pulp_energy::pipeline::LabeledDataset;
use pulp_energy::{
    default_tolerances, tolerance_curve, top_feature_columns, EnergyPredictor, Protocol,
    StaticFeatureSet, ToleranceCurve,
};
use pulp_energy_model::EnergyModel;
use pulp_kernels::{all_samples, registry};
use pulp_ml::{repeated_cross_val_predict, stratified_folds, Dataset, DecisionTree, TreeParams};
use pulp_sim::ClusterConfig;
use std::time::Instant;

/// Identical warm-cache loads timed for `setup_s` (each is ~30 ms, too
/// short to time once).
const SETUP_REPS: usize = 9;

/// The paper protocol at `cv_threads` workers.
pub fn protocol(cv_threads: usize) -> Protocol {
    Protocol {
        cv_threads,
        ..Protocol::default()
    }
}

/// Tree fits in one evaluation: three curves of folds x repeats plus the
/// feature ranking's one refit per repeat.
pub fn fits_per_op(p: &Protocol) -> usize {
    3 * p.folds * p.repeats + p.repeats
}

/// The three evaluation inputs: static-ALL, optimised (top-6 static
/// columns) and dynamic.
fn datasets(data: &LabeledDataset, top: &[usize]) -> Result<[Dataset; 3], String> {
    let all = data
        .static_dataset(StaticFeatureSet::All)
        .map_err(|e| e.to_string())?;
    let optimised = all.select_features(top);
    let dynamic = data.dynamic_dataset().map_err(|e| e.to_string())?;
    Ok([all, optimised, dynamic])
}

const LABELS: [&str; 3] = ["static", "optimised", "dynamic"];

/// The headline evaluation exactly as the `headline` binary runs it.
pub fn evaluate(data: &LabeledDataset, p: &Protocol) -> Result<Vec<ToleranceCurve>, String> {
    let energies = data.energies();
    let tolerances = default_tolerances();
    let all = data
        .static_dataset(StaticFeatureSet::All)
        .map_err(|e| e.to_string())?;
    let static_curve = tolerance_curve("static", &all, &energies, &tolerances, p);
    let top = top_feature_columns(&all, 6, p);
    let [_, optimised, dynamic] = datasets(data, &top)?;
    Ok(vec![
        static_curve,
        tolerance_curve("optimised", &optimised, &energies, &tolerances, p),
        tolerance_curve("dynamic", &dynamic, &energies, &tolerances, p),
    ])
}

/// Warm-cache preparation shared by both modes: the expected curves and
/// the dataset (checked against the expectations).
fn prepare(
    args: &Args,
    report: &mut Report,
) -> Result<(Vec<expected::CurveRow>, LabeledDataset), String> {
    let labels = expected::load_labels(&args.expected_dir)?;
    let curves = expected::load_curves(&args.expected_dir)?;
    let data = work::prepare_warm(&args.work_dir)?;
    let problems = check_dataset(&data, &labels);
    report.check(problems.is_empty(), || {
        format!("warm dataset: {}", problems.join("; "))
    });
    Ok((curves, data))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (want, _) = prepare(args, &mut report)?;

    let mut setups = Vec::new();
    let mut loaded = None;
    for _ in 0..SETUP_REPS {
        let (res, s) = timed(|| work::load_warm(&args.work_dir));
        let (data, stats) = res?;
        report.check(stats.misses + stats.invalidations == 0, || {
            format!("warm load missed the cache: {stats}")
        });
        setups.push(s);
        loaded = Some(data);
    }
    let data = loaded.expect("at least one load");

    let p = protocol(nproc());
    let start = Instant::now();
    let mut lat = Vec::new();
    loop {
        let (curves, s) = timed(|| evaluate(&data, &p));
        lat.push(s);
        report.op(match curves {
            Ok(c) => check_curves(&c, &want),
            Err(e) => vec![e],
        });
        if secs(start) >= args.seconds {
            break;
        }
    }
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric(
        "items_per_s",
        fits_per_op(&p) as f64 / median(&lat),
        "1/s",
        lat.len(),
    );
    report.metric("latency_p50_us", median(&lat) * 1e6, "us", lat.len());
    report.metric("peak_rss_mb", crate::stats::peak_rss_mb()?, "MiB", 1);
    Ok(report)
}

/// Per-layer times of one single-threaded traced evaluation replay.
#[derive(Default)]
struct Layers {
    /// `DecisionTree::fit_rows` seconds and call counts per dataset.
    fit_s: [f64; 3],
    fits: [usize; 3],
    predict_s: f64,
    predicted_rows: usize,
    folds_s: f64,
    fold_calls: usize,
    rank_s: f64,
    score_s: f64,
    tree_nodes: usize,
}

/// Out-of-fold predictions of one repetition, replaying
/// `cross_val_predict` step by step with a span around each call.
fn replay_rep(data: &Dataset, which: usize, p: &Protocol, seed: u64, l: &mut Layers) -> Vec<usize> {
    let t = Instant::now();
    let folds = stratified_folds(data.labels(), p.folds, seed);
    l.folds_s += secs(t);
    l.fold_calls += 1;
    let mut preds = vec![0usize; data.len()];
    for (f, test) in folds.iter().enumerate() {
        if test.is_empty() {
            continue;
        }
        let train: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|(g, _)| *g != f)
            .flat_map(|(_, rows)| rows.iter().copied())
            .collect();
        if train.is_empty() {
            continue;
        }
        let mut tree = DecisionTree::new(p.tree);
        let t = Instant::now();
        tree.fit_rows(data, &train);
        l.fit_s[which] += secs(t);
        l.fits[which] += 1;
        l.tree_nodes += tree.node_count();
        let t = Instant::now();
        for &row in test {
            preds[row] = tree.predict(data.row(row));
        }
        l.predict_s += secs(t);
        l.predicted_rows += test.len();
    }
    preds
}

/// Runs `first` then `second` when `k` is even, the other way round when
/// odd, and returns both results with their wall times.
fn alternate<A, B>(
    k: usize,
    first: impl FnOnce() -> A,
    second: impl FnOnce() -> B,
) -> ((A, f64), (B, f64)) {
    if k.is_multiple_of(2) {
        let a = timed(first);
        (a, timed(second))
    } else {
        let b = timed(second);
        (timed(first), b)
    }
}

/// One single-threaded evaluation, replayed with spans (each
/// `cross_val_predict` step by step) and run bare through the public
/// calls, part by part (static CV, ranking, optimised CV, dynamic CV) with
/// the two forms interleaved. Returns the traced and bare curves, the
/// traced layer times, the traced and bare walls and the bare CV time.
#[allow(clippy::type_complexity)]
fn traced_and_bare(
    data: &LabeledDataset,
    p: &Protocol,
) -> Result<([Vec<ToleranceCurve>; 2], Layers, f64, f64, f64), String> {
    let energies = data.energies();
    let tolerances = default_tolerances();
    let mut l = Layers::default();
    let mut curves = [Vec::new(), Vec::new()];
    let (mut traced_s, mut bare_s, mut bare_cv_s) = (0.0, 0.0, 0.0);
    // One curve both ways; returns (traced wall, bare wall, bare CV wall).
    let mut cv_part = |k: usize, which: usize, traced: &Dataset, bare: &Dataset, l: &mut Layers| {
        let ((reps, t), (bare_reps, b)) = alternate(
            k,
            || {
                (0..p.repeats)
                    .map(|r| replay_rep(traced, which, p, p.seed + r as u64, l))
                    .collect::<Vec<_>>()
            },
            || {
                repeated_cross_val_predict(bare, p.folds, p.repeats, p.seed, 1, |_| {
                    DecisionTree::new(p.tree)
                })
            },
        );
        let label = LABELS[which];
        let (curve, ts) = timed(|| curve_from_predictions(label, &reps, &energies, &tolerances));
        l.score_s += ts;
        curves[0].push(curve);
        let (curve, bs) =
            timed(|| curve_from_predictions(label, &bare_reps, &energies, &tolerances));
        curves[1].push(curve);
        (t + ts, b + bs, b)
    };
    let mut add = |(t, b, cv): (f64, f64, f64)| {
        traced_s += t;
        bare_s += b;
        bare_cv_s += cv;
    };

    let all = data
        .static_dataset(StaticFeatureSet::All)
        .map_err(|e| e.to_string())?;
    add(cv_part(0, 0, &all, &all, &mut l));
    let ((ranked, t), (bare_top, b)) = alternate(
        1,
        || rank_features(&all, p),
        || top_feature_columns(&all, 6, p),
    );
    l.rank_s += t;
    add((t, b, 0.0));
    let top: Vec<usize> = ranked.iter().take(6).map(|r| r.column).collect();
    let [_, optimised, dynamic] = datasets(data, &top)?;
    let bare_optimised = all.select_features(&bare_top);
    add(cv_part(2, 1, &optimised, &bare_optimised, &mut l));
    add(cv_part(3, 2, &dynamic, &dynamic, &mut l));
    let [traced, bare] = curves;
    Ok(([traced, bare], l, traced_s, bare_s, bare_cv_s))
}

/// The untraced evaluation decomposed into its public calls, returning
/// the curves and the repeated-CV share of its wall time.
fn evaluate_timed(
    data: &LabeledDataset,
    p: &Protocol,
) -> Result<(Vec<ToleranceCurve>, f64), String> {
    let energies = data.energies();
    let tolerances = default_tolerances();
    let all = data
        .static_dataset(StaticFeatureSet::All)
        .map_err(|e| e.to_string())?;
    let cv = |d: &Dataset| {
        timed(|| {
            repeated_cross_val_predict(d, p.folds, p.repeats, p.seed, p.cv_threads, |_| {
                DecisionTree::new(p.tree)
            })
        })
    };
    let (reps, mut cv_s) = cv(&all);
    let mut curves = vec![curve_from_predictions(
        LABELS[0],
        &reps,
        &energies,
        &tolerances,
    )];
    let top = top_feature_columns(&all, 6, p);
    let [_, optimised, dynamic] = datasets(data, &top)?;
    for (which, d) in [(1, &optimised), (2, &dynamic)] {
        let (reps, s) = cv(d);
        cv_s += s;
        curves.push(curve_from_predictions(
            LABELS[which],
            &reps,
            &energies,
            &tolerances,
        ));
    }
    Ok((curves, cv_s))
}

pub fn run_traced(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (want, data) = prepare(args, &mut report)?;

    // Cache read side, one lookup per sample through a fresh handle.
    let cache = work::warm_options(&args.work_dir)?
        .cache
        .expect("warm options carry a cache");
    let config = ClusterConfig::default();
    let model = EnergyModel::table1();
    let defs = registry();
    let mut lookup_s = 0.0;
    let mut hits = 0usize;
    let specs = all_samples();
    for spec in &specs {
        let kernel = defs[spec.kernel_index]
            .build(&spec.params())
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let key = cache.key(&kernel.sample_id(), &config, &model);
        let found = cache.lookup(&key);
        lookup_s += secs(t);
        hits += usize::from(found.is_some());
    }
    let hit_ratio = hits as f64 / specs.len() as f64;
    report.check(hits == specs.len(), || {
        format!("cache.hit_ratio {hit_ratio}, must be 1.0")
    });

    let threads = nproc();
    let p1 = protocol(1);
    let pn = protocol(threads);
    let ((curvesn, cvn_s), walln) = {
        let (r, s) = timed(|| evaluate_timed(&data, &pn));
        (r?, s)
    };
    let ([curves_r, curves1], l, replay_s, wall1, cv1_s) = traced_and_bare(&data, &p1)?;
    for (what, curves) in [
        ("1-thread", &curves1),
        ("nproc", &curvesn),
        ("replay", &curves_r),
    ] {
        let problems = check_curves(curves, &want);
        report.op(problems
            .into_iter()
            .map(|e| format!("{what}: {e}"))
            .collect());
    }

    let mut train_s = Vec::new();
    for _ in 0..5 {
        let (res, s) =
            timed(|| EnergyPredictor::train(&data, StaticFeatureSet::All, TreeParams::default()));
        res.map_err(|e| e.to_string())?;
        train_s.push(s);
    }

    let fits: usize = l.fits.iter().sum();
    let attributed = l.fit_s.iter().sum::<f64>() + l.predict_s + l.folds_s + l.rank_s + l.score_s;
    report.metric(
        "cache.lookup_us",
        lookup_s / specs.len() as f64 * 1e6,
        "us",
        specs.len(),
    );
    report.metric("cache.hit_ratio", hit_ratio, "ratio", specs.len());
    for (i, name) in [
        "ml.fit_us.static",
        "ml.fit_us.optimised",
        "ml.fit_us.dynamic",
    ]
    .into_iter()
    .enumerate()
    {
        report.metric(
            name,
            l.fit_s[i] / l.fits[i].max(1) as f64 * 1e6,
            "us",
            l.fits[i],
        );
    }
    report.metric(
        "ml.predict_ns",
        l.predict_s / l.predicted_rows.max(1) as f64 * 1e9,
        "ns",
        l.predicted_rows,
    );
    report.metric(
        "ml.folds_us",
        l.folds_s / l.fold_calls.max(1) as f64 * 1e6,
        "us",
        l.fold_calls,
    );
    report.metric(
        "ml.tree_nodes",
        l.tree_nodes as f64 / fits.max(1) as f64,
        "count",
        fits,
    );
    report.metric("evaluation.rank_us", l.rank_s * 1e6, "us", 1);
    report.metric("evaluation.score_us", l.score_s / 3.0 * 1e6, "us", 3);
    report.metric(
        "evaluation.cv_parallel_efficiency",
        cv1_s / (threads as f64 * cvn_s),
        "ratio",
        2,
    );
    report.metric(
        "predictor.train_us",
        median(&train_s) * 1e6,
        "us",
        train_s.len(),
    );
    report.metric(
        "evaluation.unattributed_share",
        1.0 - attributed / replay_s,
        "ratio",
        1,
    );
    report.metric("bench.trace_overhead", replay_s / wall1 - 1.0, "ratio", 2);
    report.metric(
        "bench.wall_items_per_s",
        fits_per_op(&pn) as f64 / walln,
        "1/s",
        1,
    );
    Ok(report)
}
