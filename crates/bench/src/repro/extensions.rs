//! Extensions beyond the paper: the platform-mechanism ablation (E7),
//! loop unrolling (E9), the learning curve (E10), alternative cluster
//! shapes (E11) and leave-one-suite-out generalisation (E12).

use super::{Output, Run};
use crate::QUICK_KERNELS;
use kernel_ir::{lower, unroll_innermost, DType};
use pulp_energy::pipeline::{LabeledDataset, PipelineOptions};
use pulp_energy::report::render_class_distribution;
use pulp_energy::{measure_kernel, static_feature_vector, EnergyPredictor, StaticFeatureSet};
use pulp_energy_model::{energy_of, EnergyModel};
use pulp_kernels::{registry, KernelDef, KernelParams};
use pulp_ml::{
    mean_std, parallel_seeds, stratified_folds, tolerance_accuracy, DecisionTree, TreeParams,
};
use pulp_sim::{simulate, ClusterConfig};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// The registry entry of kernel `name`.
fn kernel_def(name: &str) -> KernelDef {
    registry()
        .into_iter()
        .find(|d| d.name == name)
        .expect("kernel")
}

/// E7 (ablation) — which platform mechanisms create the labels?
///
/// DESIGN.md claims the energy/parallelism trade-off is driven by clock
/// gating, FPU sharing and TCDM bank conflicts. This relabels the dataset
/// with each mechanism disabled and reports how the class distribution
/// and the labels move. If an ablated platform leaves labels unchanged,
/// that mechanism was irrelevant — the paper's premise would not hold on
/// our substrate. The manifest records the *baseline* configuration; the
/// ablated variants are derived from it deterministically.
pub(super) fn ablation_platform(run: &mut Run) -> Result<Output, String> {
    #[derive(Serialize)]
    struct AblationRecord {
        name: String,
        class_counts: Vec<usize>,
        label_agreement_with_baseline: f64,
        mean_label: f64,
    }

    let args = run.args;
    let base_cfg = ClusterConfig::default();
    let variants: Vec<(&str, ClusterConfig)> = vec![
        ("baseline", base_cfg.clone()),
        ("no-clock-gating", base_cfg.clone().without_clock_gating()),
        (
            "no-fpu-contention",
            base_cfg.clone().without_fpu_contention(),
        ),
        ("no-bank-conflicts", base_cfg.without_bank_conflicts()),
    ];

    let mut datasets: BTreeMap<&str, LabeledDataset> = BTreeMap::new();
    for (name, config) in &variants {
        let mut opts = if args.quick {
            PipelineOptions::quick(QUICK_KERNELS)
        } else {
            PipelineOptions {
                // The ablation sweep rebuilds the dataset 4x; keep the
                // full kernel set but the two payload extremes unless
                // --quick.
                payload_sizes: vec![512, 32768],
                ..PipelineOptions::default()
            }
        };
        opts.threads = args.threads;
        opts.config = config.clone();
        if !args.quiet {
            args.logger().info(
                "ablation",
                "building dataset",
                &[("variant", name.to_string())],
            );
        }
        let data = LabeledDataset::build(&opts).map_err(|e| format!("dataset build: {e}"))?;
        datasets.insert(name, data);
    }
    let baseline = &datasets["baseline"];
    let base_labels = baseline.labels();

    println!(
        "E7 — platform-mechanism ablation ({} samples per variant)\n",
        baseline.len()
    );
    let mut records = Vec::new();
    for (name, _) in &variants {
        let d = &datasets[name];
        let labels = d.labels();
        let agree = labels
            .iter()
            .zip(&base_labels)
            .filter(|(a, b)| a == b)
            .count() as f64
            / labels.len() as f64;
        let mean = labels.iter().map(|&l| (l + 1) as f64).sum::<f64>() / labels.len() as f64;
        println!("--- {name} ---");
        print!("{}", render_class_distribution(&d.class_counts()));
        println!("label agreement with baseline: {:.1}%", agree * 100.0);
        println!("mean optimal cores: {mean:.2}\n");
        records.push(AblationRecord {
            name: name.to_string(),
            class_counts: d.class_counts().to_vec(),
            label_agreement_with_baseline: agree,
            mean_label: mean,
        });
    }

    println!("shape checks:");
    let find = |n: &str| records.iter().find(|r| r.name == n);
    let mean_of = |n: &str| find(n).map_or(0.0, |r| r.mean_label);
    println!(
        "  removing clock gating changes labels ({}% agreement)",
        (find("no-clock-gating").map_or(1.0, |r| r.label_agreement_with_baseline) * 100.0).round()
    );
    println!(
        "  removing FPU contention pushes optima to more cores: {:.2} -> {:.2}",
        mean_of("baseline"),
        mean_of("no-fpu-contention")
    );
    println!(
        "  removing bank conflicts pushes optima to more cores: {:.2} -> {:.2}",
        mean_of("baseline"),
        mean_of("no-bank-conflicts")
    );
    Ok(Output::json(&records))
}

/// E9 (extension) — compiler-knob sensitivity: loop unrolling.
///
/// The paper extracts static features from one fixed compilation of each
/// kernel. This ablation asks how robust the approach is to a compiler
/// knob it holds fixed: innermost-loop unrolling changes both the energy
/// landscape (fewer loop-control instructions, more I-cache refills) and
/// the static features (bigger `op`/`tcdm` counts). Per unroll factor it
/// measures the energy at the optimum, whether the optimal core count
/// moves, and whether a predictor trained on factor-1 code still places
/// unrolled kernels within tolerance.
pub(super) fn unroll_ablation(run: &mut Run, data: &LabeledDataset) -> Result<Output, String> {
    #[derive(Serialize)]
    struct Row {
        kernel: String,
        factor: u32,
        optimal_cores: usize,
        energy_at_optimum_uj: f64,
        energy_saved_vs_rolled: f64,
        static_op: f64,
        predictor_waste: f64,
    }

    let config = ClusterConfig::default();
    let model = EnergyModel::table1();
    if !run.args.quiet {
        run.args
            .logger()
            .info("unroll", "training factor-1 predictor", &[]);
    }
    let predictor =
        EnergyPredictor::train(data, StaticFeatureSet::All, TreeParams::default()).expect("train");

    println!("E9 — loop-unrolling ablation\n");
    println!(
        "{:<12} {:>7} {:>6} {:>12} {:>10} {:>10} {:>12}",
        "kernel", "unroll", "best", "E@best [uJ]", "saved", "static op", "pred waste"
    );
    let mut rows = Vec::new();
    for name in ["fir", "gemm", "autocorr", "conv2d_5x5"] {
        let base = kernel_def(name)
            .build(&KernelParams::new(DType::I32, 8196))
            .expect("build");
        let mut rolled_energy = 0.0;
        for factor in [1u32, 2, 4, 8] {
            let kernel = unroll_innermost(&base, factor);
            let profile = measure_kernel(&kernel, &config, &model).expect("measure");
            let best = profile.label();
            let e_best = profile.energy[best];
            if factor == 1 {
                rolled_energy = e_best;
            }
            let predicted = predictor.predict_cores(&kernel) - 1;
            let waste = profile.waste(predicted);
            let op = static_feature_vector(&kernel)[0];
            println!(
                "{:<12} {:>7} {:>6} {:>12.4} {:>9.1}% {:>10} {:>11.1}%",
                name,
                factor,
                best + 1,
                e_best * 1e-9,
                (1.0 - e_best / rolled_energy) * 100.0,
                op,
                waste * 100.0
            );
            rows.push(Row {
                kernel: name.to_string(),
                factor,
                optimal_cores: best + 1,
                energy_at_optimum_uj: e_best * 1e-9,
                energy_saved_vs_rolled: 1.0 - e_best / rolled_energy,
                static_op: op,
                predictor_waste: waste,
            });
        }
    }

    println!("\nshape checks:");
    let saved_any = rows
        .iter()
        .any(|r| r.factor > 1 && r.energy_saved_vs_rolled > 0.02);
    println!("  unrolling saves energy somewhere (> 2%): {saved_any}");
    let max_waste = rows
        .iter()
        .filter(|r| r.factor > 1)
        .map(|r| r.predictor_waste)
        .fold(0.0f64, f64::max);
    println!(
        "  factor-1 predictor stays within {:.1}% waste on unrolled code",
        max_waste * 100.0
    );
    Ok(Output::json(&rows))
}

/// E10 (extension) — learning curve: how many measured samples does the
/// static classifier need?
///
/// Building the training set is the expensive part of the paper's pipeline
/// (each sample costs 8 cycle-accurate simulations). This trains on a
/// growing stratified fraction of the dataset and tests on the held-out
/// remainder, answering how quickly accuracy saturates — i.e. how much
/// smaller the paper's measurement campaign could have been.
pub(super) fn learning_curve(run: &mut Run, data: &LabeledDataset) -> Result<Output, String> {
    #[derive(Serialize)]
    struct Point {
        train_fraction: f64,
        train_samples: usize,
        acc_at_0_mean: f64,
        acc_at_0_std: f64,
        acc_at_5_mean: f64,
        acc_at_5_std: f64,
    }

    let protocol = &run.protocol;
    let all = data.static_dataset(StaticFeatureSet::All).expect("static");
    let energies = data.energies();

    // 10 stratified folds; training on the first `k` of them sweeps the
    // fraction in 10% steps while keeping class balance.
    let folds_per_step = 10usize;
    let repeats = protocol.repeats.clamp(3, 30);

    println!("E10 — learning curve (static ALL features, {repeats} repetitions)\n");
    println!(
        "{:>10} {:>9} {:>16} {:>16}",
        "fraction", "samples", "acc@0% (std)", "acc@5% (std)"
    );
    let mut points = Vec::new();
    for train_folds in 1..folds_per_step {
        // Each repetition derives everything from its index, so fanning
        // them over `--cv-threads` workers is deterministic.
        let rep = |(): &mut (), rep: usize| {
            let folds = stratified_folds(all.labels(), folds_per_step, rep as u64);
            let train: Vec<usize> = folds[..train_folds].iter().flatten().copied().collect();
            let test: Vec<usize> = folds[train_folds..].iter().flatten().copied().collect();
            let mut tree = DecisionTree::new(TreeParams::default());
            tree.fit_rows(&all, &train);
            let preds: Vec<usize> = test.iter().map(|&r| tree.predict(all.row(r))).collect();
            let test_energies: Vec<Vec<f64>> = test.iter().map(|&r| energies[r].clone()).collect();
            (
                train.len(),
                tolerance_accuracy(&preds, &test_energies, 0.0),
                tolerance_accuracy(&preds, &test_energies, 0.05),
            )
        };
        let (reps, _) = parallel_seeds(repeats, protocol.cv_threads, |_| (), rep);
        let train_samples = reps.last().map_or(0, |r| r.0);
        let acc0: Vec<f64> = reps.iter().map(|r| r.1).collect();
        let acc5: Vec<f64> = reps.iter().map(|r| r.2).collect();
        let (m0, s0) = mean_std(&acc0);
        let (m5, s5) = mean_std(&acc5);
        let fraction = train_folds as f64 / folds_per_step as f64;
        println!(
            "{:>9.0}% {:>9} {:>9.1}% ({:>4.1}) {:>9.1}% ({:>4.1})",
            fraction * 100.0,
            train_samples,
            m0 * 100.0,
            s0 * 100.0,
            m5 * 100.0,
            s5 * 100.0
        );
        points.push(Point {
            train_fraction: fraction,
            train_samples,
            acc_at_0_mean: m0,
            acc_at_0_std: s0,
            acc_at_5_mean: m5,
            acc_at_5_std: s5,
        });
    }

    println!("\nshape checks:");
    let first = points.first().expect("points");
    let last = points.last().expect("points");
    println!(
        "  accuracy grows with data: {:.1}% -> {:.1}% @5% tolerance",
        first.acc_at_5_mean * 100.0,
        last.acc_at_5_mean * 100.0
    );
    let half = &points[points.len() / 2];
    println!(
        "  half the dataset already reaches {:.1}% of the full-data accuracy",
        100.0 * half.acc_at_5_mean / last.acc_at_5_mean
    );
    Ok(Output::json(&points))
}

/// E11 (extension) — beyond `8c4flp`: energy/parallelism landscapes on
/// alternative cluster shapes.
///
/// The paper fixes the platform to the 8-core/4-FPU instance. This sweeps
/// the team size on three cluster shapes — the paper's `8c4flp`, a
/// 16-core/8-FPU scale-up, and an FPU-starved 8-core/2-FPU variant — and
/// reports where the minimum-energy configuration lands for representative
/// kernels. It shows the labels are a property of the *platform*, not the
/// kernel alone: the same source moves its optimum when the cluster shape
/// changes. The manifest records the paper-shape baseline.
pub(super) fn cluster_sweep(_: &mut Run) -> Result<Output, String> {
    #[derive(Serialize)]
    struct Row {
        cluster: String,
        kernel: String,
        dtype: String,
        optimal_cores: usize,
        max_cores: usize,
        energy_at_optimum_uj: f64,
    }

    let base = ClusterConfig::default();
    let mut big = base.clone().with_cores(16);
    big.num_fpus = 8;
    big.tcdm_banks = 32;
    let mut starved = base.clone();
    starved.num_fpus = 2;
    let shapes = [("8c4f (paper)", base), ("16c8f", big), ("8c2f", starved)];
    let model = EnergyModel::table1();
    let kernels = [
        ("gemm", DType::F32),
        ("fpu_storm", DType::F32),
        ("bank_hammer", DType::I32),
        ("compute_dense", DType::I32),
        ("fir", DType::F32),
    ];

    println!("E11 — cluster-shape sweep (payload 8196 B)\n");
    println!(
        "{:<14} {:<16} {:>6} {:>10} {:>14}",
        "cluster", "kernel", "dtype", "best", "E@best [uJ]"
    );
    let mut rows = Vec::new();
    for (cluster_name, config) in shapes {
        for (name, dtype) in kernels {
            let kernel = kernel_def(name)
                .build(&KernelParams::new(dtype, 8196))
                .expect("build");
            let mut best = (0usize, f64::INFINITY);
            for team in 1..=config.num_cores {
                let lowered = lower(&kernel, team, &config).expect("lower");
                let stats = simulate(&config, &lowered.program).expect("simulate");
                let e = energy_of(&stats, &model, &config).total();
                if e < best.1 {
                    best = (team, e);
                }
            }
            println!(
                "{:<14} {:<16} {:>6} {:>7}/{:<2} {:>14.4}",
                cluster_name,
                name,
                dtype.to_string(),
                best.0,
                config.num_cores,
                best.1 * 1e-9
            );
            rows.push(Row {
                cluster: cluster_name.to_string(),
                kernel: name.to_string(),
                dtype: dtype.to_string(),
                optimal_cores: best.0,
                max_cores: config.num_cores,
                energy_at_optimum_uj: best.1 * 1e-9,
            });
        }
    }

    println!("\nshape checks:");
    let opt = |cluster: &str, kernel: &str| {
        rows.iter()
            .find(|r| r.cluster.starts_with(cluster) && r.kernel == kernel)
            .map_or(0, |r| r.optimal_cores)
    };
    println!(
        "  fpu_storm/f32 optimum tracks the FPU count: 8c2f={} 8c4f={} 16c8f={}",
        opt("8c2f", "fpu_storm"),
        opt("8c4f", "fpu_storm"),
        opt("16c8f", "fpu_storm")
    );
    println!(
        "  bank_hammer stays low everywhere: 8c4f={} 16c8f={}",
        opt("8c4f", "bank_hammer"),
        opt("16c8f", "bank_hammer")
    );
    Ok(Output::json(&rows))
}

/// E12 (extension) — leave-one-suite-out generalisation.
///
/// The paper's 10-fold CV mixes samples from all three suites, so a
/// kernel's sibling instantiations (other sizes/dtypes) can appear in the
/// training folds. This asks the harder question a deployed predictor
/// faces: **does the model generalise to kernel families it has never
/// seen?** Train on two suites, test on the third — and, stricter still,
/// leave single kernels out entirely.
pub(super) fn suite_generalization(_: &mut Run, data: &LabeledDataset) -> Result<Output, String> {
    #[derive(Serialize)]
    struct Row {
        held_out: String,
        test_samples: usize,
        acc_at_0: f64,
        acc_at_5: f64,
        acc_at_10: f64,
    }

    let all = data.static_dataset(StaticFeatureSet::All).expect("static");
    let energies = data.energies();
    // Trains on every sample outside `held_out` and returns the
    // predictions and energies of the held-out ones.
    let holdout = |held_out: &dyn Fn(usize) -> bool| {
        let (test, train): (Vec<usize>, Vec<usize>) = (0..data.len()).partition(|&i| held_out(i));
        let mut tree = DecisionTree::new(TreeParams::default());
        tree.fit_rows(&all, &train);
        let preds: Vec<usize> = test.iter().map(|&r| tree.predict(all.row(r))).collect();
        let e: Vec<Vec<f64>> = test.iter().map(|&r| energies[r].clone()).collect();
        (preds, e)
    };
    let row = |held_out: String, preds: &[usize], e: &[Vec<f64>]| {
        let row = Row {
            held_out,
            test_samples: preds.len(),
            acc_at_0: tolerance_accuracy(preds, e, 0.0),
            acc_at_5: tolerance_accuracy(preds, e, 0.05),
            acc_at_10: tolerance_accuracy(preds, e, 0.10),
        };
        println!(
            "{:<22} {:>8} {:>7.1}% {:>7.1}% {:>7.1}%",
            row.held_out,
            row.test_samples,
            row.acc_at_0 * 100.0,
            row.acc_at_5 * 100.0,
            row.acc_at_10 * 100.0
        );
        row
    };

    println!("E12 — leave-one-suite-out generalisation (static ALL features)\n");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8}",
        "held-out", "samples", "acc@0%", "acc@5%", "acc@10%"
    );
    let mut rows = Vec::new();
    for suite in ["polybench", "utdsp", "custom"] {
        let (preds, e) = holdout(&|i| data.samples[i].suite.to_string() == suite);
        rows.push(row(format!("suite:{suite}"), &preds, &e));
    }

    // Leave-one-kernel-out over every kernel, pooled.
    let kernels: BTreeSet<&str> = data.samples.iter().map(|s| s.kernel.as_str()).collect();
    let mut loko_preds: Vec<usize> = Vec::new();
    let mut loko_energy: Vec<Vec<f64>> = Vec::new();
    for kernel in kernels {
        let (preds, e) = holdout(&|i| data.samples[i].kernel == kernel);
        loko_preds.extend(preds);
        loko_energy.extend(e);
    }
    let mut loko = row("kernel (LOKO, pooled)".into(), &loko_preds, &loko_energy);
    loko.held_out = "kernel:LOKO".into();
    let loko_at_5 = loko.acc_at_5;
    rows.push(loko);

    println!("\nshape checks:");
    let within_suite = rows
        .iter()
        .take(3)
        .map(|r| r.acc_at_5)
        .fold(f64::INFINITY, f64::min);
    println!(
        "  worst held-out-suite acc@5%: {:.1}%",
        within_suite * 100.0
    );
    println!(
        "  LOKO acc@5% {:.1}% vs mixed-CV ~94%: unseen-kernel generalisation is the hard case",
        loko_at_5 * 100.0
    );
    Ok(Output::json(&rows))
}
