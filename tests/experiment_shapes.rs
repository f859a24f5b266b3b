//! Shape checks for the paper's experiments on a reduced-but-diverse
//! dataset (the full-dataset equivalents are regenerated by
//! `pulp_cli repro <name>`; see EXPERIMENTS.md).

use pulp_energy::{
    evaluation::{rank_features, tolerance_curve, Protocol},
    pipeline::{LabeledDataset, PipelineOptions},
    StaticFeatureSet,
};

fn dataset() -> LabeledDataset {
    let mut opts = PipelineOptions::quick(&[
        "gemm",
        "mvt",
        "fir",
        "iir",
        "vec_scale",
        "dot_product",
        "fpu_storm",
        "bank_hammer",
        "bank_stride",
        "reduction_critical",
        "compute_dense",
        "tiny_regions",
        "l2_stream",
        "stream_copy",
        "critical_light",
        "divergent_div",
    ]);
    opts.payload_sizes = vec![512, 2048, 8196];
    LabeledDataset::build(&opts).expect("dataset build")
}

/// Figure 2's qualitative core: accuracy grows substantially once a small
/// energy tolerance is allowed.
#[test]
fn tolerance_lifts_accuracy_substantially() {
    let data = dataset();
    let ds = data.static_dataset(StaticFeatureSet::All).expect("static");
    let tolerances = vec![0.0, 0.05, 0.08];
    let curve = tolerance_curve(
        "static",
        &ds,
        &data.energies(),
        &tolerances,
        &Protocol::quick(),
    );
    assert!(
        curve.at(0.08).expect("grid") >= curve.at(0.0).expect("grid") + 0.05,
        "tolerance should recover near-optimal predictions: {:?}",
        curve.mean
    );
}

/// Table IV's qualitative core for dynamic features: the clock-gating
/// fraction (PE_sleep) at some parallelism is among the most informative
/// features.
#[test]
fn pe_sleep_ranks_high_among_dynamic_features() {
    let data = dataset();
    let dynamic = data.dynamic_dataset().expect("dynamic");
    let ranked = rank_features(&dynamic, &Protocol::quick());
    let top8: Vec<&str> = ranked.iter().take(8).map(|r| r.name.as_str()).collect();
    assert!(
        top8.iter()
            .any(|n| n.starts_with("PE_sleep") || n.starts_with("PE_idle")),
        "expected PE_sleep/PE_idle in the top dynamic features, got {top8:?}"
    );
}

/// Table IV's qualitative core for static features: parallel work
/// descriptors (avgws/F3), the compute/memory ratio (F4) or the data-rate
/// feature (F1/transfer) carry the static signal.
#[test]
fn work_descriptors_rank_high_among_static_features() {
    let data = dataset();
    let all = data.static_dataset(StaticFeatureSet::All).expect("static");
    let ranked = rank_features(&all, &Protocol::quick());
    let top5: Vec<&str> = ranked.iter().take(5).map(|r| r.name.as_str()).collect();
    assert!(
        top5.iter().any(|n| matches!(
            *n,
            "avgws" | "F3" | "F4" | "F1" | "transfer" | "op" | "tcdm"
        )),
        "expected a RAW/AGG descriptor among the top static features, got {top5:?}"
    );
}

/// Pruning static features to the most important ones must not destroy
/// accuracy (the paper's "optimised" classifier improves it).
#[test]
fn pruned_feature_set_remains_competitive() {
    let data = dataset();
    let all = data.static_dataset(StaticFeatureSet::All).expect("static");
    let protocol = Protocol::quick();
    let tolerances = vec![0.05];
    let energies = data.energies();

    let full_curve = tolerance_curve("all", &all, &energies, &tolerances, &protocol);
    let top = pulp_energy::top_feature_columns(&all, 6, &protocol);
    let pruned = all.select_features(&top);
    let pruned_curve = tolerance_curve("optimised", &pruned, &energies, &tolerances, &protocol);

    let pruned5 = pruned_curve.at(0.05).expect("grid");
    let full5 = full_curve.at(0.05).expect("grid");
    assert!(
        pruned5 >= full5 - 0.08,
        "optimised set {pruned5:.3} collapsed vs full {full5:.3}"
    );
}

/// MCA features alone carry some signal (they are a usable fingerprint,
/// which is all the paper claims for them).
#[test]
fn mca_features_beat_chance() {
    let data = dataset();
    let mca = data.static_dataset(StaticFeatureSet::Mca).expect("mca");
    let preds =
        pulp_ml::cross_val_predict(
            &mca,
            5,
            0,
            || pulp_ml::DecisionTree::new(Default::default()),
        );
    let acc = pulp_ml::accuracy(&preds, mca.labels());
    assert!(acc > 0.2, "MCA-only accuracy too low: {acc}");
}
