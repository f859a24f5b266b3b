//! The paper's evaluation protocol: repeated stratified cross-validation
//! scored under an energy-waste tolerance sweep (Figure 2), plus feature
//! importance ranking and pruning (Table IV and the "optimised"
//! classifier).

use crate::labeling::NUM_CLASSES;
use pulp_ml::{
    mean_std, repeated_cross_val_predict, tolerance_accuracy, Dataset, DecisionTree, TreeParams,
};
use serde::{Deserialize, Serialize};

/// Default tolerance grid (0%..=20%), matching Figure 2's x-axis.
pub fn default_tolerances() -> Vec<f64> {
    (0..=20).map(|t| t as f64 / 100.0).collect()
}

/// Accuracy as a function of energy-waste tolerance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToleranceCurve {
    /// Display label (e.g. the feature-set name).
    pub label: String,
    /// Tolerance grid (fractional).
    pub tolerances: Vec<f64>,
    /// Mean accuracy per tolerance across CV repetitions.
    pub mean: Vec<f64>,
    /// Sample standard deviation per tolerance.
    pub std: Vec<f64>,
}

impl ToleranceCurve {
    /// Mean accuracy at the finite tolerance closest to `t`, or `None` for
    /// an empty grid (or one containing only non-finite tolerances).
    ///
    /// Curves built through [`curve_from_predictions`] have their grid
    /// sanitised at construction, so `None` only ever signals a curve that
    /// was empty to begin with — it used to be a panic deep inside an
    /// experiment binary.
    pub fn at(&self, t: f64) -> Option<f64> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &tol) in self.tolerances.iter().enumerate() {
            if !tol.is_finite() {
                continue;
            }
            let d = (tol - t).abs();
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        best.and_then(|(i, _)| self.mean.get(i).copied())
    }
}

/// Drops non-finite entries from a tolerance grid, warning when anything
/// is discarded. Called at curve construction so [`ToleranceCurve::at`]
/// and the accuracy sweep only ever see finite thresholds.
fn sanitize_tolerances(tolerances: &[f64]) -> Vec<f64> {
    let finite: Vec<f64> = tolerances
        .iter()
        .copied()
        .filter(|t| t.is_finite())
        .collect();
    if finite.len() < tolerances.len() {
        eprintln!(
            "[evaluation] warning: dropped {} non-finite tolerance(s) from the grid",
            tolerances.len() - finite.len()
        );
    }
    finite
}

/// Evaluation protocol parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Protocol {
    /// Cross-validation folds (paper: 10).
    pub folds: usize,
    /// Seeded repetitions (paper: 100).
    pub repeats: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Tree hyperparameters.
    pub tree: TreeParams,
    /// Worker threads for the repeated-CV fan-out (`0` = all cores;
    /// predictions are bit-identical at any value).
    pub cv_threads: usize,
}

impl Default for Protocol {
    fn default() -> Self {
        Self {
            folds: 10,
            repeats: 100,
            seed: 0,
            tree: TreeParams::default(),
            cv_threads: 0,
        }
    }
}

impl Protocol {
    /// A faster protocol for tests and demos (5 folds × 5 repeats).
    pub fn quick() -> Self {
        Self {
            folds: 5,
            repeats: 5,
            ..Self::default()
        }
    }
}

/// Runs the full protocol on `data`, scoring against `energies` over
/// `tolerances`.
///
/// Out-of-fold predictions are computed once per repetition; every
/// tolerance is then evaluated on the same predictions (exactly how the
/// paper sweeps its threshold).
pub fn tolerance_curve(
    label: impl Into<String>,
    data: &Dataset,
    energies: &[Vec<f64>],
    tolerances: &[f64],
    protocol: &Protocol,
) -> ToleranceCurve {
    let reps = repeated_cross_val_predict(
        data,
        protocol.folds,
        protocol.repeats,
        protocol.seed,
        protocol.cv_threads,
        |_seed| DecisionTree::new(protocol.tree),
    );
    curve_from_predictions(label, &reps, energies, tolerances)
}

/// Builds a curve from precomputed per-repetition predictions.
pub fn curve_from_predictions(
    label: impl Into<String>,
    reps: &[Vec<usize>],
    energies: &[Vec<f64>],
    tolerances: &[f64],
) -> ToleranceCurve {
    let tolerances = sanitize_tolerances(tolerances);
    let mut mean = Vec::with_capacity(tolerances.len());
    let mut std = Vec::with_capacity(tolerances.len());
    for &t in &tolerances {
        let accs: Vec<f64> = reps
            .iter()
            .map(|preds| tolerance_accuracy(preds, energies, t))
            .collect();
        let (m, s) = mean_std(&accs);
        mean.push(m);
        std.push(s);
    }
    ToleranceCurve {
        label: label.into(),
        tolerances,
        mean,
        std,
    }
}

/// The naive "always-N" policy curve (the paper compares to always-8).
pub fn always_n_curve(cores: usize, energies: &[Vec<f64>], tolerances: &[f64]) -> ToleranceCurve {
    assert!((1..=NUM_CLASSES).contains(&cores), "cores out of range");
    let preds = vec![vec![cores - 1; energies.len()]];
    curve_from_predictions(format!("always-{cores}"), &preds, energies, tolerances)
}

/// One feature with its importance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedFeature {
    /// Feature name.
    pub name: String,
    /// Column in the source dataset.
    pub column: usize,
    /// Normalised importance.
    pub importance: f64,
}

/// Ranks features by decision-tree importance, averaged over `repeats`
/// stratified refits (subsampling via CV folds stabilises the ranking the
/// same way the paper's repeated protocol does).
pub fn rank_features(data: &Dataset, protocol: &Protocol) -> Vec<RankedFeature> {
    let mut total = vec![0.0f64; data.n_features()];
    let repeats = protocol.repeats.max(1);
    for r in 0..repeats {
        let folds =
            pulp_ml::stratified_folds(data.labels(), protocol.folds, protocol.seed + r as u64);
        // Train on all but the first fold — a (k-1)/k subsample per seed.
        let rows: Vec<usize> = folds.iter().skip(1).flatten().copied().collect();
        if rows.is_empty() {
            continue;
        }
        let mut tree = DecisionTree::new(protocol.tree);
        tree.fit_rows(data, &rows);
        for (c, imp) in tree.feature_importances().iter().enumerate() {
            total[c] += imp;
        }
    }
    let norm: f64 = total.iter().sum();
    let mut ranked: Vec<RankedFeature> = total
        .into_iter()
        .enumerate()
        .map(|(column, imp)| RankedFeature {
            name: data.feature_names()[column].clone(),
            column,
            importance: if norm > 0.0 { imp / norm } else { 0.0 },
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.importance
            .partial_cmp(&a.importance)
            .expect("finite importances")
    });
    ranked
}

/// Columns of the `n` most important features of `data` (the paper's
/// pruning step producing the "optimised" classifier).
pub fn top_feature_columns(data: &Dataset, n: usize, protocol: &Protocol) -> Vec<usize> {
    rank_features(data, protocol)
        .into_iter()
        .take(n)
        .map(|r| r.column)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic task: label = argmin energy; feature 0 encodes the label
    /// noisily, feature 1 is noise.
    fn synthetic(n: usize) -> (Dataset, Vec<Vec<f64>>) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        let mut energies = Vec::new();
        for i in 0..n {
            let class = i % 4;
            features.push(vec![
                class as f64 + ((i * 7) % 3) as f64 * 0.1,
                (i % 5) as f64,
            ]);
            labels.push(class);
            // Energy grows with distance from the optimal class.
            let e: Vec<f64> = (0..NUM_CLASSES)
                .map(|c| 10.0 + (c as f64 - class as f64).abs())
                .collect();
            energies.push(e);
        }
        let data = Dataset::new(
            features,
            labels,
            vec!["signal".into(), "noise".into()],
            NUM_CLASSES,
        )
        .expect("dataset");
        (data, energies)
    }

    #[test]
    fn curve_is_monotone_in_tolerance() {
        let (data, energies) = synthetic(120);
        let tol = default_tolerances();
        let c = tolerance_curve("test", &data, &energies, &tol, &Protocol::quick());
        for w in c.mean.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-12,
                "curve must be non-decreasing: {:?}",
                c.mean
            );
        }
    }

    #[test]
    fn learned_curve_beats_always_8_on_structured_task() {
        let (data, energies) = synthetic(120);
        let tol = vec![0.0, 0.05];
        let learned = tolerance_curve("tree", &data, &energies, &tol, &Protocol::quick());
        let naive = always_n_curve(8, &energies, &tol);
        assert!(learned.at(0.0).expect("grid") > naive.at(0.0).expect("grid"));
    }

    #[test]
    fn always_n_rejects_bad_core_counts() {
        let energies = vec![vec![1.0; NUM_CLASSES]];
        let c = always_n_curve(8, &energies, &[0.0]);
        assert_eq!(c.label, "always-8");
    }

    #[test]
    #[should_panic(expected = "cores out of range")]
    fn always_0_panics() {
        let energies = vec![vec![1.0; NUM_CLASSES]];
        let _ = always_n_curve(0, &energies, &[0.0]);
    }

    #[test]
    fn ranking_puts_signal_first() {
        let (data, _) = synthetic(120);
        let ranked = rank_features(&data, &Protocol::quick());
        assert_eq!(ranked[0].name, "signal");
        assert!(ranked[0].importance > ranked[1].importance);
        let total: f64 = ranked.iter().map(|r| r.importance).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_columns_select_the_best() {
        let (data, _) = synthetic(120);
        assert_eq!(top_feature_columns(&data, 1, &Protocol::quick()), vec![0]);
    }

    #[test]
    fn curve_at_finds_nearest_tolerance() {
        let c = ToleranceCurve {
            label: "x".into(),
            tolerances: vec![0.0, 0.05, 0.10],
            mean: vec![0.5, 0.7, 0.9],
            std: vec![0.0; 3],
        };
        assert_eq!(c.at(0.051), Some(0.7));
        assert_eq!(c.at(1.0), Some(0.9));
    }

    #[test]
    fn curve_at_survives_empty_and_nan_grids() {
        // Regression: both shapes used to panic inside `min_by`.
        let empty = ToleranceCurve {
            label: "empty".into(),
            tolerances: Vec::new(),
            mean: Vec::new(),
            std: Vec::new(),
        };
        assert_eq!(empty.at(0.05), None);

        let nan_grid = ToleranceCurve {
            label: "nan".into(),
            tolerances: vec![f64::NAN, 0.05, f64::INFINITY],
            mean: vec![0.1, 0.7, 0.2],
            std: vec![0.0; 3],
        };
        assert_eq!(
            nan_grid.at(0.0),
            Some(0.7),
            "non-finite entries are skipped"
        );
        let all_nan = ToleranceCurve {
            label: "all-nan".into(),
            tolerances: vec![f64::NAN],
            mean: vec![0.1],
            std: vec![0.0],
        };
        assert_eq!(all_nan.at(0.0), None);
    }

    #[test]
    fn construction_sanitises_non_finite_tolerances() {
        let preds = vec![vec![0usize]];
        let energies = vec![vec![1.0; NUM_CLASSES]];
        let c = curve_from_predictions("s", &preds, &energies, &[f64::NAN, 0.0, f64::INFINITY]);
        assert_eq!(c.tolerances, vec![0.0]);
        assert_eq!(c.mean.len(), 1);
        let none = curve_from_predictions("e", &preds, &energies, &[]);
        assert!(none.tolerances.is_empty() && none.at(0.0).is_none());
    }

    #[test]
    fn cv_threads_do_not_change_the_curve() {
        let (data, energies) = synthetic(80);
        let tol = vec![0.0, 0.05, 0.10];
        let serial = Protocol {
            cv_threads: 1,
            ..Protocol::quick()
        };
        let parallel = Protocol {
            cv_threads: 4,
            ..Protocol::quick()
        };
        let c1 = tolerance_curve("t", &data, &energies, &tol, &serial);
        let c4 = tolerance_curve("t", &data, &energies, &tol, &parallel);
        assert_eq!(c1, c4, "curves must be bit-identical at any thread count");
    }
}
