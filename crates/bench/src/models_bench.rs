//! `pulp_cli bench models` — model-zoo evaluation benchmark.
//!
//! Successor of the retired `forest_extension` binary: runs every model in
//! the zoo (decision tree, random forest, gradient-boosted trees, kNN) on
//! the same static features and repeated-CV protocol, and reports each
//! model's tolerance accuracy at 0% and 5% energy waste.
//!
//! On top of the accuracy table, the benchmark is the release gate for the
//! quantized flat inference path: every flattenable model is also fitted
//! on the **full** dataset, compiled to a [`FlatModel`], and its integer
//! predictions are compared row-by-row against the float reference. The
//! mismatch counts land in the record, whose zero limit fails the run and
//! `pulp_cli bench diff` on any count above zero — so a quantization bug
//! can never ship silently.
//!
//! Determinism: predictions come from
//! [`repeated_cross_val_predict`], which places each repetition's
//! predictions by its index whichever worker claims it, so the record is
//! bit-identical at any `--cv-threads` value. Forests and GBTs are ~50x
//! the training cost of a tree; their repetition counts are scaled down
//! (`repeats / 10`, minimum 2) while keeping the fold structure, exactly
//! as `forest_extension` did.

use crate::record::{BenchRecord, Better, Tolerance, ACCURACY_TOLERANCE};
use pulp_energy::evaluation::curve_from_predictions;
use pulp_energy::pipeline::LabeledDataset;
use pulp_energy::{default_tolerances, Protocol, StaticFeatureSet};
use pulp_ml::cv::repeated_cross_val_predict;
use pulp_ml::{
    DecisionTree, FlatModel, ForestParams, Gbt, GbtParams, KNearestNeighbors, KnnParams,
    RandomForest,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Zoo members in report order. `knn` has no tree structure and therefore
/// no flat compilation; the other three are gated on flat/float parity.
pub const MODELS: [&str; 4] = ["tree", "forest", "gbt", "knn"];

/// One zoo member's results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelsBenchRow {
    /// Model identifier (see [`MODELS`]).
    pub model: String,
    /// CV repetitions behind the accuracy figures (forest/GBT run fewer;
    /// see the module docs).
    pub repeats: usize,
    /// Mean repeated-CV accuracy at 0% energy-waste tolerance.
    pub static_at_0: f64,
    /// Mean repeated-CV accuracy at 5% energy-waste tolerance.
    pub static_at_5: f64,
    /// Std-dev across repetitions of the 5%-tolerance accuracy.
    pub std_at_5: f64,
    /// Nodes in the flat compilation of the full-dataset fit (`None` for
    /// models without a tree structure).
    pub flat_nodes: Option<u64>,
    /// Trees in the flat compilation (`None` when not flattenable).
    pub flat_trees: Option<u64>,
    /// Rows of the full dataset where the flat (quantized integer)
    /// prediction differed from the float reference. `Some(0)` is the only
    /// acceptable value for flattenable models; the record's limit fails
    /// anything greater.
    pub flat_mismatches: Option<u64>,
}

/// The full benchmark report; its `record()` is written to `BENCH_models.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelsBenchReport {
    /// Tool identifier for downstream diffing (`"models"`).
    pub bench: String,
    /// `true` for `--quick` runs (not comparable to full runs).
    pub quick: bool,
    /// CV folds behind every row.
    pub folds: usize,
    /// Base repetition count (trees and kNN; forests/GBTs scale down).
    pub repeats: usize,
    /// Protocol seed.
    pub seed: u64,
    /// Dataset samples evaluated.
    pub samples: usize,
    /// One row per zoo member.
    pub rows: Vec<ModelsBenchRow>,
    /// Wall time of the evaluation, seconds.
    pub wall_s: f64,
}

impl ModelsBenchReport {
    /// The `BENCH_models.json` record: every figure of the report, zoo
    /// members as `model/field`, gated on static@5 accuracy
    /// ([`ACCURACY_TOLERANCE`]) and on zero flat/float mismatches. Models
    /// without a flat form carry no flat metrics.
    pub fn record(&self) -> BenchRecord {
        use Better::{Higher, Lower};
        let accuracy = Some(Tolerance::Absolute(ACCURACY_TOLERANCE));
        let flat = Some(Tolerance::Limit(0.0));
        BenchRecord::from_report(
            &self.bench,
            self.quick,
            self,
            &["model"],
            |_, field| match field {
                "static_at_5" => ("ratio", Higher, accuracy),
                "static_at_0" => ("ratio", Higher, None),
                "std_at_5" => ("ratio", Lower, None),
                "flat_mismatches" => ("count", Lower, flat),
                "flat_nodes" | "flat_trees" => ("count", Lower, None),
                "wall_s" => ("s", Lower, None),
                _ => ("count", Higher, None),
            },
        )
    }

    /// Renders the human-readable table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "model zoo: {} samples, {} folds x {} repeats (seed {}), {:.2}s",
            self.samples, self.folds, self.repeats, self.seed, self.wall_s
        );
        let _ = writeln!(
            out,
            "{:<8} {:>7} {:>8} {:>8} {:>8} {:>10} {:>6} {:>10}",
            "model", "repeats", "acc@0%", "acc@5%", "std@5%", "flat nodes", "trees", "mismatches"
        );
        for r in &self.rows {
            let opt = |v: Option<u64>| v.map_or("-".to_string(), |n| n.to_string());
            let _ = writeln!(
                out,
                "{:<8} {:>7} {:>7.1}% {:>7.1}% {:>7.1}% {:>10} {:>6} {:>10}",
                r.model,
                r.repeats,
                r.static_at_0 * 100.0,
                r.static_at_5 * 100.0,
                r.std_at_5 * 100.0,
                opt(r.flat_nodes),
                opt(r.flat_trees),
                opt(r.flat_mismatches),
            );
        }
        out
    }
}

/// Counts rows of `data` where `flat` disagrees with the float `predict`
/// closure, reusing one quantization scratch buffer across rows.
fn count_mismatches(
    data: &pulp_ml::Dataset,
    flat: &FlatModel,
    predict: impl Fn(&[f64]) -> usize,
) -> u64 {
    let mut scratch = Vec::new();
    (0..data.len())
        .filter(|&i| {
            let x = data.row(i);
            flat.predict_with(&mut scratch, x) != predict(x)
        })
        .count() as u64
}

/// Runs the zoo evaluation on a built dataset.
///
/// # Panics
///
/// Panics when the static feature matrix cannot be assembled — there is
/// nothing to evaluate without it.
pub fn run_models_bench(
    data: &LabeledDataset,
    protocol: &Protocol,
    quick: bool,
) -> ModelsBenchReport {
    let start = Instant::now();
    let energies = data.energies();
    let tolerances = default_tolerances();
    let all = data.static_dataset(StaticFeatureSet::All).expect("static");
    // Forests and GBTs are ~50x the training cost of a tree; scale their
    // repetitions down while keeping the fold structure.
    let slow_repeats = (protocol.repeats / 10).max(2);

    let accuracy = |label: &str, repeats: usize, reps: &[Vec<usize>]| {
        let curve = curve_from_predictions(label, reps, &energies, &tolerances);
        let i5 = curve
            .tolerances
            .iter()
            .position(|&t| (t - 0.05).abs() < 1e-9)
            .expect("default tolerance grid contains 5%");
        (
            repeats,
            curve.at(0.0).expect("non-empty tolerance grid"),
            curve.at(0.05).expect("non-empty tolerance grid"),
            curve.std[i5],
        )
    };

    let tree_preds = repeated_cross_val_predict(
        &all,
        protocol.folds,
        protocol.repeats,
        protocol.seed,
        protocol.cv_threads,
        |_seed| DecisionTree::new(protocol.tree),
    );
    // Each repetition's forest/GBT is seeded from the repetition seed
    // itself, so the run is deterministic at any `--cv-threads` value.
    // `seed + 1` keeps the forest's bootstrap streams aligned with the
    // retired `forest_extension` binary, so old and new records compare.
    let forest_preds = repeated_cross_val_predict(
        &all,
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
    let gbt_preds = repeated_cross_val_predict(
        &all,
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
    let knn_preds = repeated_cross_val_predict(
        &all,
        protocol.folds,
        protocol.repeats,
        protocol.seed,
        protocol.cv_threads,
        |_seed| KNearestNeighbors::new(KnnParams::default()),
    );

    // Flat-fidelity pass: fit each flattenable model on the full dataset,
    // compile it, and demand row-for-row agreement with the float path.
    let mut tree = DecisionTree::new(protocol.tree);
    tree.fit(&all);
    let tree_flat = FlatModel::from_tree(&tree);
    let tree_mismatches = count_mismatches(&all, &tree_flat, |x| tree.predict(x));

    let mut forest = RandomForest::new(ForestParams {
        n_trees: 50,
        tree: protocol.tree,
        max_features: None,
        seed: protocol.seed + 1,
    });
    forest.fit(&all);
    let forest_flat = FlatModel::from_forest(&forest);
    let forest_mismatches = count_mismatches(&all, &forest_flat, |x| forest.predict(x));

    let mut gbt = Gbt::new(GbtParams {
        seed: protocol.seed,
        ..GbtParams::default()
    });
    gbt.fit(&all);
    let gbt_flat = FlatModel::from_gbt(&gbt);
    let gbt_mismatches = count_mismatches(&all, &gbt_flat, |x| gbt.predict(x));

    let row = |model: &str,
               (repeats, at0, at5, std5): (usize, f64, f64, f64),
               flat: Option<(&FlatModel, u64)>| {
        ModelsBenchRow {
            model: model.to_string(),
            repeats,
            static_at_0: at0,
            static_at_5: at5,
            std_at_5: std5,
            flat_nodes: flat.map(|(f, _)| f.n_nodes() as u64),
            flat_trees: flat.map(|(f, _)| f.n_trees() as u64),
            flat_mismatches: flat.map(|(_, m)| m),
        }
    };
    let rows = vec![
        row(
            "tree",
            accuracy("tree", protocol.repeats, &tree_preds),
            Some((&tree_flat, tree_mismatches)),
        ),
        row(
            "forest",
            accuracy("forest", slow_repeats, &forest_preds),
            Some((&forest_flat, forest_mismatches)),
        ),
        row(
            "gbt",
            accuracy("gbt", slow_repeats, &gbt_preds),
            Some((&gbt_flat, gbt_mismatches)),
        ),
        row(
            "knn",
            accuracy("knn(5)", protocol.repeats, &knn_preds),
            None,
        ),
    ];

    ModelsBenchReport {
        bench: "models".to_string(),
        quick,
        folds: protocol.folds,
        repeats: protocol.repeats,
        seed: protocol.seed,
        samples: data.len(),
        rows,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy_report() -> ModelsBenchReport {
        let row = |model: &str, flat: bool| ModelsBenchRow {
            model: model.to_string(),
            repeats: 2,
            static_at_0: 0.5,
            static_at_5: 0.9,
            std_at_5: 0.02,
            flat_nodes: flat.then_some(100),
            flat_trees: flat.then_some(1),
            flat_mismatches: flat.then_some(0),
        };
        ModelsBenchReport {
            bench: "models".to_string(),
            quick: true,
            folds: 5,
            repeats: 5,
            seed: 0,
            samples: 64,
            rows: vec![
                row("tree", true),
                row("forest", true),
                row("gbt", true),
                row("knn", false),
            ],
            wall_s: 1.0,
        }
    }

    #[test]
    fn report_round_trips_through_json_with_null_flat_fields() {
        let r = healthy_report();
        let json = serde_json::to_string_pretty(&r).expect("serialise");
        assert!(json.contains("\"flat_mismatches\""), "{json}");
        let back: ModelsBenchReport = serde_json::from_str(&json).expect("deserialise");
        assert_eq!(r, back);
        assert_eq!(back.rows[3].flat_mismatches, None, "knn has no flat form");
    }

    #[test]
    fn record_gates_accuracy_and_flat_parity() {
        let record = healthy_report().record();
        assert_eq!(record.profile, "quick");
        let gate = |name: &str| record.get(name).and_then(|m| m.tolerance);
        assert_eq!(
            gate("tree/static_at_5"),
            Some(Tolerance::Absolute(ACCURACY_TOLERANCE))
        );
        assert_eq!(gate("gbt/flat_mismatches"), Some(Tolerance::Limit(0.0)));
        assert_eq!(gate("tree/static_at_0"), None);
        assert!(record.get("knn/static_at_5").is_some());
        assert!(
            record.get("knn/flat_mismatches").is_none(),
            "kNN has no flat form"
        );
        assert!(record.regressions(&record).expect("comparable").is_empty());
        assert_eq!(record.breaches(), Vec::<String>::new());

        let mut r = healthy_report();
        r.rows[1].flat_mismatches = Some(3);
        assert_eq!(
            r.record().breaches(),
            ["forest/flat_mismatches: 3 count above the 0 limit"]
        );
        // A zoo member gone from a candidate is a regression against any
        // baseline that gated it.
        r.rows.retain(|row| row.model != "gbt");
        let missing = record.regressions(&r.record()).expect("comparable");
        assert!(
            missing.contains(&"gbt/static_at_5: missing from candidate".to_string()),
            "{missing:?}"
        );
    }

    #[test]
    fn render_table_names_every_model() {
        let table = healthy_report().render_table();
        for model in MODELS {
            assert!(table.contains(model), "{table}");
        }
        assert!(table.contains("mismatches"), "{table}");
    }
}
