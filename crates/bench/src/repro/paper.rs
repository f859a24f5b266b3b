//! The paper's evaluation, E1–E6: Table I, the §IV-B dataset statistics,
//! Figure 2 left and right, Table IV and the headline accuracies.

use super::{Output, Run, Stop};
use crate::record::ACCURACY_TOLERANCE;
use crate::{BenchRecord, Better, Tolerance};
use pulp_energy::pipeline::LabeledDataset;
use pulp_energy::report::{
    render_class_distribution, render_confusion, render_curves, render_importances,
};
use pulp_energy::{
    always_n_curve, default_tolerances, rank_features, tolerance_curve, top_feature_columns,
    CacheStats, RankedFeature, StaticFeatureSet, ToleranceCurve,
};
use pulp_energy_model::{energy_of, EnergyModel};
use pulp_ml::{confusion_matrix, cross_val_predict, DecisionTree};
use pulp_obs::journal_stage;
use pulp_sim::{
    simulate, AddrExpr, ClusterConfig, FpOp, OpKind, Program, SegOp, L2_BASE, TCDM_BASE,
};
use serde::Serialize;
use std::collections::BTreeMap;

fn microbench(kind: OpKind, addr: Option<u32>, n: u64) -> Program {
    let instr = SegOp::Instr {
        kind,
        addr: addr.map(AddrExpr::constant),
    };
    Program::new(vec![vec![
        SegOp::LoopBegin { trip: n },
        instr,
        SegOp::LoopEnd,
    ]])
}

/// Marginal energy per event: subtract a baseline run with half the events
/// so the per-cycle platform overheads cancel exactly for 1-cycle ops.
fn marginal(config: &ClusterConfig, model: &EnergyModel, kind: OpKind, addr: Option<u32>) -> f64 {
    let energy = |n: u64| {
        energy_of(
            &simulate(config, &microbench(kind, addr, n)).expect("sim"),
            model,
            config,
        )
        .total()
    };
    (energy(4096) - energy(2048)) / 2048.0
}

/// E1 — Table I: regenerate the per-instruction-class energy table.
///
/// The paper derives Table I from post-layout simulation of synthetic
/// benchmarks, each containing a single class of instructions. This
/// experiment does the simulator-side equivalent: it runs
/// single-instruction-class microbenchmarks on one core and reports the
/// *marginal* energy per event next to the Table-I coefficient it should
/// reproduce. Deviations expose accounting bugs (each event must be
/// charged exactly once).
pub(super) fn table1_energy_model(run: &mut Run) -> Result<Output, Stop> {
    #[derive(Serialize)]
    struct Row {
        class: &'static str,
        table1_fj: f64,
        measured_fj_per_event: f64,
        error_percent: f64,
    }

    let config = ClusterConfig::default();
    let model = EnergyModel::table1();

    // Per-cycle platform overhead (leakage + idle of every component while
    // one core runs) — subtracted to isolate the PE-side op energy: the
    // marginal energy of one NOP cycle minus the NOP coefficient and
    // I-cache use.
    let idle_per_cycle =
        marginal(&config, &model, OpKind::Nop, None) - model.pe.nop - model.icache.use_;

    let cases: Vec<(&'static str, OpKind, Option<u32>, f64)> = vec![
        ("PE NOP", OpKind::Nop, None, model.pe.nop),
        ("PE ALU", OpKind::Alu, None, model.pe.alu),
        (
            "PE FP",
            OpKind::Fp(FpOp::Mul),
            None,
            model.pe.fp + model.fpu.operative,
        ),
        (
            "PE L1 (+bank read)",
            OpKind::Load,
            Some(TCDM_BASE),
            model.pe.l1 + model.l1_bank.read - model.l1_bank.idle,
        ),
        (
            "PE L1 (+bank write)",
            OpKind::Store,
            Some(TCDM_BASE),
            model.pe.l1 + model.l1_bank.write - model.l1_bank.idle,
        ),
        (
            "PE L2 (+bank read, +14 wait)",
            OpKind::Load,
            Some(L2_BASE),
            model.pe.l2 + model.l2_bank.read - model.l2_bank.idle
                + 14.0 * (model.pe.nop + idle_per_cycle),
        ),
    ];

    let out = &mut *run.out;
    writeln!(
        out,
        "E1 / Table I — energy model calibration (single-class microbenchmarks, 1 core)"
    )?;
    writeln!(
        out,
        "platform overhead per active cycle: {idle_per_cycle:.0} fJ"
    )?;
    writeln!(
        out,
        "{:<30} {:>12} {:>12} {:>8}",
        "class", "table1 fJ", "measured fJ", "err%"
    )?;
    let mut rows = Vec::new();
    for (class, kind, addr, expected) in cases {
        // Measured removes the I-cache fetch and the platform overhead
        // shared by all classes; the NOP row keeps the overhead on the
        // expected side instead.
        let nop = kind == OpKind::Nop;
        let measured = marginal(&config, &model, kind, addr)
            - model.icache.use_
            - if nop { 0.0 } else { idle_per_cycle };
        let adjusted_expected = expected + if nop { idle_per_cycle } else { 0.0 };
        let err = 100.0 * (measured - adjusted_expected) / adjusted_expected;
        writeln!(
            out,
            "{class:<30} {adjusted_expected:>12.0} {measured:>12.0} {err:>7.2}%"
        )?;
        rows.push(Row {
            class,
            table1_fj: adjusted_expected,
            measured_fj_per_event: measured,
            error_percent: err,
        });
    }
    let worst = rows
        .iter()
        .map(|r| r.error_percent.abs())
        .fold(0.0, f64::max);
    writeln!(
        out,
        "\nmax |error| = {worst:.2}% (expected ~0: the accounting charges each event once)"
    )?;
    Ok(Output::json(&rows))
}

/// E2 — §IV-B dataset statistics.
///
/// The paper reports 448 samples with "a class unbalance between 5% and
/// 15%, except for the class with label 8 which accounts for the 34.8% of
/// the samples collection". This regenerates the class distribution of the
/// measured dataset, plus per-suite and per-dtype breakdowns.
pub(super) fn dataset_stats(run: &mut Run, data: &LabeledDataset) -> Result<Output, Stop> {
    #[derive(Serialize)]
    struct Record {
        total_samples: usize,
        class_counts: Vec<usize>,
        class_shares: Vec<f64>,
        by_suite: BTreeMap<String, usize>,
        by_dtype: BTreeMap<String, usize>,
        mean_label_by_payload: BTreeMap<usize, f64>,
    }

    let out = &mut *run.out;
    writeln!(out, "E2 / §IV-B — dataset statistics\n")?;
    writeln!(out, "samples: {} (paper: 448)", data.len())?;
    let counts = data.class_counts();
    writeln!(out, "\nminimum-energy class distribution:")?;
    write!(out, "{}", render_class_distribution(&counts))?;

    let total = data.len() as f64;
    let shares: Vec<f64> = counts.iter().map(|&c| c as f64 / total).collect();
    writeln!(
        out,
        "\nlargest class: {} cores with {:.1}% (paper: class 8 at 34.8%)",
        counts
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .map(|(i, _)| i + 1)
            .unwrap_or(0),
        shares.iter().cloned().fold(0.0, f64::max) * 100.0
    )?;

    let mut by_suite: BTreeMap<String, usize> = BTreeMap::new();
    let mut by_dtype: BTreeMap<String, usize> = BTreeMap::new();
    for s in &data.samples {
        *by_suite.entry(s.suite.to_string()).or_insert(0) += 1;
        *by_dtype.entry(s.dtype.to_string()).or_insert(0) += 1;
    }
    writeln!(out, "\nby suite: {by_suite:?}")?;
    writeln!(out, "by dtype: {by_dtype:?}")?;

    // Problem size influences the optimum: report the mean optimal core
    // count per payload size.
    let mut by_payload: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    for s in &data.samples {
        let e = by_payload.entry(s.payload_bytes).or_insert((0, 0));
        e.0 += s.label + 1;
        e.1 += 1;
    }
    writeln!(out, "\nmean optimal cores by payload size:")?;
    let mut mean_label_by_payload = BTreeMap::new();
    for (size, (sum, n)) in &by_payload {
        let mean = *sum as f64 / *n as f64;
        writeln!(out, "  {size:>6} B: {mean:.2} cores")?;
        mean_label_by_payload.insert(*size, mean);
    }

    Ok(Output::json(&Record {
        total_samples: data.len(),
        class_counts: counts.to_vec(),
        class_shares: shares,
        by_suite,
        by_dtype,
        mean_label_by_payload,
    }))
}

/// The accuracy of `curve` at tolerance `t`.
fn at(curve: &ToleranceCurve, t: f64) -> f64 {
    curve.at(t).expect("non-empty tolerance grid")
}

/// E3 — Figure 2 (left): classification accuracy vs energy tolerance for
/// static (AGG) features, dynamic features, and the naive always-8 policy.
///
/// Expected shape (paper): the decision tree always beats always-8; AGG
/// static features exceed 75% accuracy at 5% tolerance; dynamic features
/// sit above static ones by a bounded margin.
pub(super) fn fig2_left(run: &mut Run, data: &LabeledDataset) -> Result<Output, Stop> {
    let protocol = &run.protocol;
    let tolerances = default_tolerances();
    let energies = data.energies();
    if !run.args.quiet {
        run.args.logger().info(
            "fig2-left",
            "cross-validating",
            &[
                ("folds", protocol.folds.to_string()),
                ("repeats", protocol.repeats.to_string()),
                ("samples", data.len().to_string()),
            ],
        );
    }

    let agg = data
        .static_dataset(StaticFeatureSet::Agg)
        .expect("static dataset");
    let static_curve = tolerance_curve("static(AGG)", &agg, &energies, &tolerances, protocol);
    let dyn_data = data.dynamic_dataset().expect("dynamic dataset");
    let dynamic_curve = tolerance_curve("dynamic", &dyn_data, &energies, &tolerances, protocol);
    let naive = always_n_curve(8, &energies, &tolerances);

    let curves = vec![static_curve, dynamic_curve, naive];
    let out = &mut *run.out;
    writeln!(out, "E3 / Figure 2 (left) — accuracy vs energy tolerance\n")?;
    write!(out, "{}", render_curves(&curves))?;

    writeln!(out, "\nshape checks:")?;
    let [s, d, n] = &curves[..] else {
        unreachable!("three curves")
    };
    writeln!(
        out,
        "  static(AGG) @5%  = {:.1}%  (paper: >75%)",
        at(s, 0.05) * 100.0
    )?;
    writeln!(out, "  static(AGG) @0%  = {:.1}%", at(s, 0.0) * 100.0)?;
    writeln!(out, "  dynamic     @5%  = {:.1}%", at(d, 0.05) * 100.0)?;
    writeln!(out, "  always-8    @5%  = {:.1}%", at(n, 0.05) * 100.0)?;
    writeln!(
        out,
        "  tree beats always-8 at every tolerance: {}",
        s.tolerances.iter().all(|&t| at(s, t) >= at(n, t))
    )?;
    Ok(Output::json(&curves))
}

/// Features kept by the pruning step (the paper's "optimised" classifier).
const OPTIMIZED_FEATURES: usize = 6;

/// E4 — Figure 2 (right): classification accuracy vs energy tolerance
/// across static feature families (RAW, AGG, MCA, RAW+AGG, ALL) plus the
/// importance-pruned "optimised" set.
///
/// Expected shape (paper): the families are roughly coherent at 0%
/// tolerance (~57%), approach 80% at 5%, and pruning to the most important
/// features improves the 0%-tolerance accuracy.
pub(super) fn fig2_right(run: &mut Run, data: &LabeledDataset) -> Result<Output, Stop> {
    let (args, protocol) = (run.args, &run.protocol);
    let tolerances = default_tolerances();
    let energies = data.energies();

    let mut curves: Vec<ToleranceCurve> = Vec::new();
    for set in StaticFeatureSet::ALL_SETS {
        let ds = data.static_dataset(set).expect("static dataset");
        if !args.quiet {
            args.logger().info(
                "fig2-right",
                "evaluating feature set",
                &[
                    ("set", set.name().to_string()),
                    ("features", ds.n_features().to_string()),
                ],
            );
        }
        curves.push(tolerance_curve(
            set.name(),
            &ds,
            &energies,
            &tolerances,
            protocol,
        ));
    }

    // Optimised: rank the full static vector, keep the top features.
    let all = data
        .static_dataset(StaticFeatureSet::All)
        .expect("static dataset");
    let top = top_feature_columns(&all, OPTIMIZED_FEATURES, protocol);
    let kept: Vec<&str> = top
        .iter()
        .map(|&c| all.feature_names()[c].as_str())
        .collect();
    if !args.quiet {
        args.logger().info(
            "fig2-right",
            "optimised set keeps",
            &[("features", format!("{kept:?}"))],
        );
    }
    let optimized = all.select_features(&top);
    curves.push(tolerance_curve(
        "optimised",
        &optimized,
        &energies,
        &tolerances,
        protocol,
    ));

    let out = &mut *run.out;
    writeln!(out, "E4 / Figure 2 (right) — static feature families\n")?;
    write!(out, "{}", render_curves(&curves))?;
    writeln!(out, "\noptimised set keeps: {kept:?}")?;

    writeln!(out, "\nshape checks:")?;
    for c in &curves {
        writeln!(
            out,
            "  {:<10} @0% = {:>5.1}%   @5% = {:>5.1}%",
            c.label,
            at(c, 0.0) * 100.0,
            at(c, 0.05) * 100.0
        )?;
    }
    Ok(Output::json(&curves))
}

/// E5 — Table IV: most relevant features.
///
/// Ranks dynamic and static features by decision-tree importance. Expected
/// shape (paper): `PE_sleep` at extreme parallelism dominates the dynamic
/// ranking; `avgws`, `F4` and `F1` dominate the static ranking, with a few
/// MCA port pressures in the tail.
pub(super) fn table4_importance(run: &mut Run, data: &LabeledDataset) -> Result<Output, Stop> {
    #[derive(Serialize)]
    struct Record {
        dynamic: Vec<RankedFeature>,
        static_: Vec<RankedFeature>,
    }

    let protocol = &run.protocol;
    let dynamic = rank_features(&data.dynamic_dataset().expect("dynamic"), protocol);
    let static_ = rank_features(
        &data.static_dataset(StaticFeatureSet::All).expect("static"),
        protocol,
    );

    let out = &mut *run.out;
    writeln!(out, "E5 / Table IV — most relevant features\n")?;
    write!(
        out,
        "{}",
        render_importances("Dynamic features (top 12):", &dynamic, 12)
    )?;
    writeln!(out)?;
    write!(
        out,
        "{}",
        render_importances("Static features (top 9):", &static_, 9)
    )?;

    writeln!(out, "\nshape checks:")?;
    let top_dynamic: Vec<&str> = dynamic.iter().take(4).map(|r| r.name.as_str()).collect();
    writeln!(
        out,
        "  PE_sleep among top dynamic features: {} (top 4: {:?})",
        top_dynamic.iter().any(|n| n.starts_with("PE_sleep")),
        top_dynamic
    )?;
    let top_static: Vec<&str> = static_.iter().take(3).map(|r| r.name.as_str()).collect();
    writeln!(
        out,
        "  avgws/F-features lead static ranking: {} (top 3: {:?})",
        top_static
            .iter()
            .any(|n| matches!(*n, "avgws" | "F1" | "F3" | "F4" | "transfer")),
        top_static
    )?;
    Ok(Output::json(&Record { dynamic, static_ }))
}

#[derive(Serialize)]
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

/// The `BENCH_headline.json` record `pulp_cli bench diff` consumes: the
/// nine accuracy figures, each gated on a one-point drop, then context —
/// how much the model beats the always-8 policy at 5% tolerance, the wall
/// time and the sweep-cache counters of `--cache-dir` runs.
fn headline_record(
    quick: bool,
    h: &Headline,
    wall_time_ms: u64,
    cache: Option<CacheStats>,
) -> BenchRecord {
    use Better::{Higher, Lower};
    let accuracy = Some(Tolerance::Absolute(ACCURACY_TOLERANCE));
    let mut record = BenchRecord::from_report("headline", quick, h, &[], |_, _| {
        ("ratio", Higher, accuracy)
    });
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

/// E6 — headline numbers of the paper, regenerated on our platform:
///
/// * static features reach ~57% accuracy at 0% tolerance and approach 80%
///   at 5% tolerance over eight classes;
/// * pruning to the most important features ("optimised") improves the
///   0%-tolerance accuracy (paper: 61% / 79%);
/// * static features exceed 85% accuracy within an 8% tolerance;
/// * the static-vs-dynamic accuracy gap stays below ~10 points.
///
/// Also writes the `BENCH_headline.json` bench record (`--out` to
/// retarget) and journals the evaluation as a `train_eval` stage.
pub(super) fn headline(run: &mut Run, data: &LabeledDataset) -> Result<Output, Stop> {
    let tolerances = default_tolerances();
    let energies = data.energies();
    let protocol = run.protocol;
    let all = data.static_dataset(StaticFeatureSet::All).expect("static");
    let mut journal = run.journal.as_mut();
    let (static_curve, optimized_curve, dynamic_curve) =
        journal_stage(&mut journal, "train_eval", |_| {
            let static_curve = tolerance_curve("static", &all, &energies, &tolerances, &protocol);
            let top = top_feature_columns(&all, OPTIMIZED_FEATURES, &protocol);
            let optimized = all.select_features(&top);
            let optimized_curve =
                tolerance_curve("optimised", &optimized, &energies, &tolerances, &protocol);
            let dynamic = data.dynamic_dataset().expect("dynamic");
            let dynamic_curve =
                tolerance_curve("dynamic", &dynamic, &energies, &tolerances, &protocol);
            (static_curve, optimized_curve, dynamic_curve)
        });
    let naive = always_n_curve(8, &energies, &tolerances);

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

    let out = &mut *run.out;
    writeln!(out, "E6 — headline numbers (ours [tree] vs paper [tree])\n")?;
    writeln!(out, "{:<34} {:>8} {:>10}", "metric", "ours", "paper")?;
    let pct = |v: f64| format!("{:.1}%", v * 100.0);
    for (metric, ours, paper) in [
        ("static accuracy @0% tolerance", h.static_at_0, "~57%"),
        ("static accuracy @5% tolerance", h.static_at_5, "~80%"),
        ("static accuracy @8% tolerance", h.static_at_8, ">85%"),
        ("optimised accuracy @0%", h.optimized_at_0, "61%"),
        ("optimised accuracy @5%", h.optimized_at_5, "79%"),
        ("dynamic accuracy @5%", h.dynamic_at_5, "-"),
        ("static-dynamic gap @5%", h.gap_at_5, "<10%"),
        ("always-8 accuracy @5%", h.always8_at_5, "-"),
    ] {
        writeln!(out, "{metric:<34} {:>8} {paper:>10}", pct(ours))?;
    }

    // One CV pass for the confusion structure: most confusion should sit
    // between adjacent core counts (near-ties), as on the real platform.
    let preds = cross_val_predict(&all, protocol.folds, protocol.seed, || {
        DecisionTree::new(protocol.tree)
    });
    let confusion = confusion_matrix(&preds, all.labels(), pulp_energy::NUM_CLASSES);
    writeln!(out, "\nconfusion matrix (static features, one CV pass):")?;
    write!(out, "{}", render_confusion(&confusion))?;

    writeln!(out, "\nshape verdicts:")?;
    for (ok, claim) in [
        (
            h.static_at_5 - h.static_at_0 > 0.10,
            "tolerance helps a lot (@5% - @0% > 10 pts)",
        ),
        (h.static_at_5 > 0.70, "static @5% is strong (>70%)"),
        (h.static_at_8 > 0.80, "static @8% exceeds 85%%-ish (>80%)"),
        (
            h.gap_at_5 > -0.02 && h.gap_at_5 < 0.15,
            "dynamic beats static by a bounded margin (gap in [-2%, 15%])",
        ),
        (h.static_at_5 > h.always8_at_5, "tree beats always-8 @5%"),
    ] {
        writeln!(out, "  [{}] {claim}", if ok { "OK" } else { "DEVIATES" })?;
    }

    let record = headline_record(
        run.args.quick,
        &h,
        run.start.elapsed().as_millis() as u64,
        run.opts.cache.as_ref().map(|c| c.stats()),
    );
    Ok(Output::bench(&h, record))
}
