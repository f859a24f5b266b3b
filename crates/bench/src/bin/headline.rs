//! E6 — headline numbers of the paper, regenerated on our platform:
//!
//! * static features reach ~57% accuracy at 0% tolerance and approach 80%
//!   at 5% tolerance over eight classes;
//! * pruning to the most important features ("optimised") improves the
//!   0%-tolerance accuracy (paper: 61% / 79%);
//! * static features exceed 85% accuracy within an 8% tolerance;
//! * the static-vs-dynamic accuracy gap stays below ~10 points.
//!
//! `--model tree|forest|gbt` (default `tree`) swaps the classifier behind
//! every curve for another zoo member. The paper's reference numbers are
//! tree numbers, so non-tree runs write their record to
//! `BENCH_headline_<model>.json` by default — the committed tree baseline
//! is never clobbered by a zoo sweep — and name the record's benchmark
//! `headline_<model>`, so `bench diff` refuses cross-model comparisons.

use pulp_bench::record::ACCURACY_TOLERANCE;
use pulp_bench::{load_or_build_dataset_observed, BenchRecord, Better, CommonArgs, Tolerance};
use pulp_energy::{
    default_tolerances, evaluation::curve_from_predictions, report::render_confusion,
    tolerance_curve, top_feature_columns, CacheStats, Protocol, StaticFeatureSet, ToleranceCurve,
};
use pulp_ml::{
    confusion_matrix, cross_val_predict, cv::repeated_cross_val_predict, DecisionTree,
    ForestParams, Gbt, GbtParams, RandomForest,
};
use pulp_obs::JournalEvent;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Headline {
    static_at_0: f64,
    static_at_5: f64,
    static_at_8: f64,
    optimized_at_0: f64,
    optimized_at_5: f64,
    dynamic_at_0: f64,
    dynamic_at_5: f64,
    gap_at_5: f64,
    always8_at_5: f64,
}

/// The benchmark-trajectory record `pulp_cli bench diff` consumes: the
/// nine accuracy figures, each gated on a one-point drop, then context —
/// how much the model beats the always-8 policy at 5% tolerance, the wall
/// time and the sweep-cache counters of `--cache-dir` runs.
fn bench_record(
    model: &str,
    quick: bool,
    h: &Headline,
    wall_time_ms: u64,
    cache: Option<CacheStats>,
) -> BenchRecord {
    use Better::{Higher, Lower};
    let bench = match model {
        "tree" => "headline".to_string(),
        other => format!("headline_{other}"),
    };
    let accuracy = Some(Tolerance::Absolute(ACCURACY_TOLERANCE));
    let mut record =
        BenchRecord::from_report(&bench, quick, h, &[], |_, _| ("ratio", Higher, accuracy));
    let delta = h.static_at_5 - h.always8_at_5;
    record.push("naive_delta", delta, ("ratio", Higher, None));
    record.push("wall_time_ms", wall_time_ms as f64, ("ms", Lower, None));
    if let Some(c) = cache {
        record.push("cache_hits", c.hits as f64, ("count", Higher, None));
        record.push("cache_misses", c.misses as f64, ("count", Lower, None));
        record.push(
            "cache_invalidations",
            c.invalidations as f64,
            ("count", Lower, None),
        );
    }
    record
}

/// `--bench-out <path>`; parsed directly because it is headline-specific
/// and `CommonArgs` ignores foreign flags. Defaults to
/// `BENCH_headline.json` for the tree (the paper's model, the committed
/// baseline) and `BENCH_headline_<model>.json` for other zoo members.
fn bench_out_path(model: &str) -> PathBuf {
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        if a == "--bench-out" {
            if let Some(p) = argv.next() {
                return PathBuf::from(p);
            }
        }
    }
    if model == "tree" {
        PathBuf::from("BENCH_headline.json")
    } else {
        PathBuf::from(format!("BENCH_headline_{model}.json"))
    }
}

/// `--model tree|forest|gbt` (default `tree`); bin-local like
/// `--bench-out`. An unknown model is a usage error, not a silent tree.
fn model_arg() -> String {
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        if a == "--model" {
            return match argv.next().as_deref() {
                Some(m @ ("tree" | "forest" | "gbt")) => m.to_string(),
                other => {
                    eprintln!("--model expects tree|forest|gbt, got {other:?}");
                    std::process::exit(2);
                }
            };
        }
    }
    "tree".to_string()
}

/// The tolerance curve of the selected zoo member over `data`. Trees use
/// the instrumented single-model path (identical to the historical
/// behaviour); ensembles run the same repeated-CV protocol with the
/// repetition count scaled down as in `bench models`, seeded per
/// repetition so the result is bit-identical at any `--cv-threads`.
fn model_curve(
    model: &str,
    label: &str,
    data: &pulp_ml::Dataset,
    energies: &[Vec<f64>],
    tolerances: &[f64],
    protocol: &Protocol,
) -> ToleranceCurve {
    let slow_repeats = (protocol.repeats / 10).max(2);
    match model {
        "tree" => tolerance_curve(label, data, energies, tolerances, protocol),
        "forest" => {
            let preds = repeated_cross_val_predict(
                data,
                protocol.folds,
                slow_repeats,
                protocol.seed,
                protocol.cv_threads,
                |seed| {
                    RandomForest::new(ForestParams {
                        n_trees: 50,
                        tree: protocol.tree,
                        max_features: None,
                        seed: seed + 1,
                    })
                },
            );
            curve_from_predictions(label, &preds, energies, tolerances)
        }
        "gbt" => {
            let preds = repeated_cross_val_predict(
                data,
                protocol.folds,
                slow_repeats,
                protocol.seed,
                protocol.cv_threads,
                |seed| {
                    Gbt::new(GbtParams {
                        seed,
                        ..GbtParams::default()
                    })
                },
            );
            curve_from_predictions(label, &preds, energies, tolerances)
        }
        other => unreachable!("model_arg validated {other}"),
    }
}

fn main() {
    let start = Instant::now();
    let args = CommonArgs::parse();
    let model = model_arg();
    let opts = args.pipeline_options();
    let protocol = args.protocol();
    let mut journal = args.journal_writer("headline", &opts, Some(&protocol));
    let data = load_or_build_dataset_observed(&opts, &args, journal.as_mut());
    let tolerances = default_tolerances();
    let energies = data.energies();

    // Journal writes must never fail the experiment; a full disk degrades
    // to a warning.
    let journal_event = |journal: &mut Option<pulp_obs::JournalWriter>, ev: JournalEvent| {
        if let Some(j) = journal {
            if let Err(e) = j.event(ev) {
                eprintln!("[headline] warning: journal write failed: {e}");
            }
        }
    };
    journal_event(
        &mut journal,
        JournalEvent::StageStart {
            stage: "train_eval".into(),
        },
    );
    let eval_t0 = Instant::now();

    let all = data.static_dataset(StaticFeatureSet::All).expect("static");
    let static_curve = model_curve(&model, "static", &all, &energies, &tolerances, &protocol);

    let top = top_feature_columns(&all, 6, &protocol);
    let optimized = all.select_features(&top);
    let optimized_curve = model_curve(
        &model,
        "optimised",
        &optimized,
        &energies,
        &tolerances,
        &protocol,
    );

    let dynamic = data.dynamic_dataset().expect("dynamic");
    let dynamic_curve = model_curve(
        &model,
        "dynamic",
        &dynamic,
        &energies,
        &tolerances,
        &protocol,
    );

    let naive = pulp_energy::always_n_curve(8, &energies, &tolerances);

    journal_event(
        &mut journal,
        JournalEvent::StageEnd {
            stage: "train_eval".into(),
            wall_ms: eval_t0.elapsed().as_secs_f64() * 1e3,
        },
    );

    let at = |c: &pulp_energy::ToleranceCurve, t: f64| c.at(t).expect("non-empty tolerance grid");
    let h = Headline {
        static_at_0: at(&static_curve, 0.0),
        static_at_5: at(&static_curve, 0.05),
        static_at_8: at(&static_curve, 0.08),
        optimized_at_0: at(&optimized_curve, 0.0),
        optimized_at_5: at(&optimized_curve, 0.05),
        dynamic_at_0: at(&dynamic_curve, 0.0),
        dynamic_at_5: at(&dynamic_curve, 0.05),
        gap_at_5: at(&dynamic_curve, 0.05) - at(&static_curve, 0.05),
        always8_at_5: at(&naive, 0.05),
    };

    println!("E6 — headline numbers (ours [{model}] vs paper [tree])\n");
    println!("{:<34} {:>8} {:>10}", "metric", "ours", "paper");
    let pct = |v: f64| format!("{:.1}%", v * 100.0);
    println!(
        "{:<34} {:>8} {:>10}",
        "static accuracy @0% tolerance",
        pct(h.static_at_0),
        "~57%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "static accuracy @5% tolerance",
        pct(h.static_at_5),
        "~80%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "static accuracy @8% tolerance",
        pct(h.static_at_8),
        ">85%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "optimised accuracy @0%",
        pct(h.optimized_at_0),
        "61%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "optimised accuracy @5%",
        pct(h.optimized_at_5),
        "79%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "dynamic accuracy @5%",
        pct(h.dynamic_at_5),
        "-"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "static-dynamic gap @5%",
        pct(h.gap_at_5),
        "<10%"
    );
    println!(
        "{:<34} {:>8} {:>10}",
        "always-8 accuracy @5%",
        pct(h.always8_at_5),
        "-"
    );

    // One CV pass for the confusion structure: most confusion should sit
    // between adjacent core counts (near-ties), as on the real platform.
    let preds = match model.as_str() {
        "forest" => cross_val_predict(&all, protocol.folds, protocol.seed, || {
            RandomForest::new(ForestParams {
                n_trees: 50,
                tree: protocol.tree,
                max_features: None,
                seed: protocol.seed + 1,
            })
        }),
        "gbt" => cross_val_predict(&all, protocol.folds, protocol.seed, || {
            Gbt::new(GbtParams {
                seed: protocol.seed,
                ..GbtParams::default()
            })
        }),
        _ => cross_val_predict(&all, protocol.folds, protocol.seed, || {
            DecisionTree::new(protocol.tree)
        }),
    };
    let confusion = confusion_matrix(&preds, all.labels(), pulp_energy::NUM_CLASSES);
    println!("\nconfusion matrix (static features, one CV pass):");
    print!("{}", render_confusion(&confusion));

    println!("\nshape verdicts:");
    let verdict = |ok: bool| if ok { "OK" } else { "DEVIATES" };
    println!(
        "  [{}] tolerance helps a lot (@5% - @0% > 10 pts)",
        verdict(h.static_at_5 - h.static_at_0 > 0.10)
    );
    println!(
        "  [{}] static @5% is strong (>70%)",
        verdict(h.static_at_5 > 0.70)
    );
    println!(
        "  [{}] static @8% exceeds 85%%-ish (>80%)",
        verdict(h.static_at_8 > 0.80)
    );
    println!(
        "  [{}] dynamic beats static by a bounded margin (gap in [-2%, 15%])",
        verdict(h.gap_at_5 > -0.02 && h.gap_at_5 < 0.15)
    );
    println!(
        "  [{}] tree beats always-8 @5%",
        verdict(h.static_at_5 > h.always8_at_5)
    );

    args.dump_json(&h);

    // Every figure of the record lands in the journal tail so
    // `pulp_cli bench history` can read trajectories from journals alone.
    let mut record = bench_record(
        &model,
        args.quick,
        &h,
        start.elapsed().as_millis() as u64,
        opts.cache.as_ref().map(|c| c.stats()),
    );
    if let Some(j) = journal.as_mut() {
        if let Err(e) = record.journal(j) {
            eprintln!("[headline] warning: journal write failed: {e}");
        }
    }
    args.finish_journal(journal);

    // Provenance + the benchmark-trajectory record `bench diff` compares.
    let manifest = args.write_manifest("headline", &opts, Some(&protocol), start);
    record.manifest_hash = manifest.manifest_hash();
    let out = bench_out_path(&model);
    match record.write(&out) {
        Err(e) => eprintln!("warning: {e}"),
        Ok(()) if !args.quiet => args.logger().info(
            "bench",
            "headline record written",
            &[("path", out.display().to_string())],
        ),
        Ok(()) => {}
    }
}
