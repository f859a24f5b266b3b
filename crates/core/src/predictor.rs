//! The deployable predictor — the paper's end product.
//!
//! [`EnergyPredictor`] packages a trained decision tree together with the
//! feature recipe it was trained on, so a compiler or build system can
//! pick the minimum-energy core count of a new kernel **at compile time**
//! ("automatic system configuration for energy minimisation", as the
//! abstract puts it). Predictors serialise to JSON for embedding in a
//! toolchain.

use crate::features::{static_feature_vector, StaticFeatureSet};
use crate::labeling::NUM_CLASSES;
use crate::pipeline::LabeledDataset;
use kernel_ir::Kernel;
use pulp_ml::{DatasetError, DecisionTree, FlatModel, TreeParams};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Width of the full static vector: RAW (4), AGG (3) and MCA features, in
/// the order of [`static_feature_names`](crate::static_feature_names).
const STATIC_WIDTH: usize = 7 + pulp_mca::MCA_FEATURE_NAMES.len();

/// Errors produced when building or loading a predictor.
#[derive(Debug)]
pub enum PredictorError {
    /// The training data could not be assembled.
    Dataset(DatasetError),
    /// A serialised predictor could not be parsed.
    Parse(serde_json::Error),
    /// A caller-supplied feature vector has the wrong width.
    FeatureWidth {
        /// Width the predictor was trained against (full static vector).
        expected: usize,
        /// Width the caller supplied.
        got: usize,
    },
}

impl fmt::Display for PredictorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Dataset(e) => write!(f, "training data: {e}"),
            Self::Parse(e) => write!(f, "predictor deserialisation: {e}"),
            Self::FeatureWidth { expected, got } => write!(
                f,
                "feature vector has {got} dims, expected the full static vector ({expected})"
            ),
        }
    }
}

impl std::error::Error for PredictorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Dataset(e) => Some(e),
            Self::Parse(e) => Some(e),
            Self::FeatureWidth { .. } => None,
        }
    }
}

impl From<DatasetError> for PredictorError {
    fn from(e: DatasetError) -> Self {
        Self::Dataset(e)
    }
}

/// Descriptive metadata of a trained [`EnergyPredictor`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorMetadata {
    /// Feature family name (`RAW`, `AGG`, `MCA`, `RAW+AGG`, `ALL`).
    pub feature_set: String,
    /// Number of input features after column selection.
    pub n_features: usize,
    /// Number of output classes (core counts).
    pub n_classes: usize,
    /// Fitted tree depth.
    pub tree_depth: usize,
    /// Fitted tree node count.
    pub tree_nodes: usize,
    /// Configured depth cap.
    pub max_depth: usize,
}

/// A trained, serialisable minimum-energy-configuration predictor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyPredictor {
    tree: DecisionTree,
    feature_set: StaticFeatureSet,
    /// Columns of the full static vector this predictor consumes (after
    /// optional importance pruning).
    columns: Vec<usize>,
    feature_names: Vec<String>,
    /// Quantized flat compilation of `tree` — derived state, rebuilt
    /// deterministically from the tree on load so the two can never
    /// drift. The batch path walks this instead of the boxed float tree.
    flat: FlatModel,
}

impl EnergyPredictor {
    /// Trains a predictor on a measured dataset using one static feature
    /// family.
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset's feature matrices are
    /// inconsistent.
    pub fn train(
        data: &LabeledDataset,
        feature_set: StaticFeatureSet,
        params: TreeParams,
    ) -> Result<Self, PredictorError> {
        Self::train_on_columns(data, feature_set, feature_set.columns(), params)
    }

    /// Trains on an explicit column subset of the full static vector (the
    /// paper's "optimised" pruned classifier).
    ///
    /// # Errors
    ///
    /// Returns an error if the dataset's feature matrices are
    /// inconsistent.
    ///
    /// # Panics
    ///
    /// Panics if a column index exceeds the full static vector width.
    pub fn train_on_columns(
        data: &LabeledDataset,
        feature_set: StaticFeatureSet,
        columns: Vec<usize>,
        params: TreeParams,
    ) -> Result<Self, PredictorError> {
        let full = data.static_dataset_all()?;
        let projected = full.select_features(&columns);
        let mut tree = DecisionTree::new(params);
        tree.fit(&projected);
        let flat = FlatModel::from_tree(&tree);
        Ok(Self {
            tree,
            feature_set,
            feature_names: projected.feature_names().to_vec(),
            columns,
            flat,
        })
    }

    /// Predicts the minimum-energy core count (1..=8) of `kernel` from
    /// its static features only — no simulation involved. One row through
    /// the flat walk of [`predict_cores_batch`](Self::predict_cores_batch).
    pub fn predict_cores(&self, kernel: &Kernel) -> usize {
        let full = static_feature_vector(kernel);
        self.predict_cores_batch(std::slice::from_ref(&full))
            .expect("static_feature_vector width matches training")[0]
    }

    /// Predicts the minimum-energy core count (1..=8) for a batch of
    /// caller-built **full** static feature vectors (the 20-dim layout of
    /// [`static_feature_vector`]) — the prediction service's path. The
    /// whole batch is validated up front, then every row walks the
    /// **quantized flat compilation** of the tree ([`pulp_ml::FlatModel`]):
    /// contiguous breadth-first node arrays with integer compares, reusing
    /// one projection and one quantization scratch buffer across rows.
    ///
    /// Flat decisions are bit-exact against the float tree for any input
    /// on the quantization grid (see `pulp_ml::flat`), which covers every
    /// feature vector the pipeline produces; the dataset-wide equality is
    /// pinned by tests and by `bench models`' mismatch gate.
    ///
    /// # Errors
    ///
    /// Returns [`PredictorError::FeatureWidth`] naming the first row whose
    /// width does not cover every trained column; no row is predicted
    /// until all widths check out.
    pub fn predict_cores_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<usize>, PredictorError> {
        let mut scratch = Vec::with_capacity(self.columns.len());
        self.predict_rows(rows, |x| self.flat.predict_with(&mut scratch, x))
    }

    /// [`predict_cores_batch`](Self::predict_cores_batch) through the
    /// float reference tree instead of the flat compilation — the oracle
    /// the flat walk is tested and benchmarked against; it serves no
    /// requests.
    ///
    /// # Errors
    ///
    /// Returns [`PredictorError::FeatureWidth`] exactly like the flat
    /// path.
    pub fn predict_cores_batch_float(
        &self,
        rows: &[Vec<f64>],
    ) -> Result<Vec<usize>, PredictorError> {
        self.predict_rows(rows, |x| self.tree.predict(x))
    }

    /// Checks that `full` is a **full** static feature vector (the 20-dim
    /// layout of [`static_feature_vector`]), the input of every batch walk.
    ///
    /// # Errors
    ///
    /// Returns [`PredictorError::FeatureWidth`] for any other width.
    pub fn check_feature_width(full: &[f64]) -> Result<(), PredictorError> {
        if full.len() == STATIC_WIDTH {
            Ok(())
        } else {
            Err(PredictorError::FeatureWidth {
                expected: STATIC_WIDTH,
                got: full.len(),
            })
        }
    }

    /// The width check and column projection both batch walks share:
    /// validates every row, then maps each row's trained columns through
    /// `walk` (a 0-based class) to a core count.
    fn predict_rows(
        &self,
        rows: &[Vec<f64>],
        mut walk: impl FnMut(&[f64]) -> usize,
    ) -> Result<Vec<usize>, PredictorError> {
        rows.iter().try_for_each(|r| Self::check_feature_width(r))?;
        let mut projected = vec![0.0; self.columns.len()];
        Ok(rows
            .iter()
            .map(|full| {
                for (dst, &c) in projected.iter_mut().zip(&self.columns) {
                    *dst = full[c];
                }
                walk(&projected) + 1
            })
            .collect())
    }

    /// The quantized flat compilation backing the batch path.
    pub fn flat(&self) -> &FlatModel {
        &self.flat
    }

    /// Serialisable description of the trained model — what a service
    /// exposes as `pulp_model_info` metric labels and what reports embed
    /// as provenance.
    pub fn metadata(&self) -> PredictorMetadata {
        PredictorMetadata {
            feature_set: self.feature_set.name().to_string(),
            n_features: self.columns.len(),
            n_classes: NUM_CLASSES,
            tree_depth: self.tree.depth(),
            tree_nodes: self.tree.node_count(),
            max_depth: self.tree.params().max_depth,
        }
    }

    /// The feature names this predictor consumes.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The learned decision rules, rendered for inspection.
    pub fn rules(&self) -> String {
        self.tree.render(&self.feature_names)
    }

    /// Serialises the predictor to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("predictor is serialisable")
    }

    /// Loads a predictor from its JSON form.
    ///
    /// The flat compilation is rebuilt from the deserialised tree rather
    /// than trusted from the wire: compilation is deterministic, so a
    /// faithful encoding round-trips to an equal predictor, while a
    /// hand-edited `flat` section can never desynchronise the two
    /// prediction paths.
    ///
    /// # Errors
    ///
    /// Returns an error when the JSON does not describe a predictor.
    pub fn from_json(text: &str) -> Result<Self, PredictorError> {
        let mut p: Self = serde_json::from_str(text).map_err(PredictorError::Parse)?;
        p.flat = FlatModel::from_tree(&p.tree);
        Ok(p)
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        NUM_CLASSES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineOptions;

    fn data() -> LabeledDataset {
        LabeledDataset::build(&PipelineOptions::quick(&[
            "vec_scale",
            "fpu_storm",
            "bank_hammer",
            "compute_dense",
        ]))
        .expect("dataset")
    }

    fn sample_kernel() -> Kernel {
        pulp_kernels::registry()
            .into_iter()
            .find(|d| d.name == "stream_copy")
            .expect("kernel")
            .build(&pulp_kernels::KernelParams::new(
                kernel_ir::DType::I32,
                2048,
            ))
            .expect("build")
    }

    #[test]
    fn trains_and_predicts_in_range() {
        let p = EnergyPredictor::train(&data(), StaticFeatureSet::All, TreeParams::default())
            .expect("train");
        let cores = p.predict_cores(&sample_kernel());
        assert!((1..=8).contains(&cores), "prediction out of range: {cores}");
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let d = data();
        let p = EnergyPredictor::train(&d, StaticFeatureSet::All, TreeParams::default())
            .expect("train");
        let restored = EnergyPredictor::from_json(&p.to_json()).expect("load");
        assert_eq!(p, restored);
        let k = sample_kernel();
        assert_eq!(p.predict_cores(&k), restored.predict_cores(&k));
    }

    #[test]
    fn pruned_predictor_uses_selected_columns() {
        let d = data();
        let p = EnergyPredictor::train_on_columns(
            &d,
            StaticFeatureSet::All,
            vec![3, 6], // avgws, F4
            TreeParams::default(),
        )
        .expect("train");
        assert_eq!(p.feature_names(), &["avgws".to_string(), "F4".to_string()]);
        let _ = p.predict_cores(&sample_kernel());
    }

    #[test]
    fn rules_mention_trained_features() {
        let d = data();
        let p = EnergyPredictor::train(&d, StaticFeatureSet::Agg, TreeParams::default())
            .expect("train");
        let rules = p.rules();
        assert!(
            rules.contains("F1") || rules.contains("F3") || rules.contains("F4"),
            "rules:\n{rules}"
        );
    }

    #[test]
    fn static_vector_path_matches_kernel_path() {
        let p = EnergyPredictor::train(&data(), StaticFeatureSet::All, TreeParams::default())
            .expect("train");
        let k = sample_kernel();
        let full = static_feature_vector(&k);
        assert_eq!(crate::features::static_feature_names().len(), STATIC_WIDTH);
        assert_eq!(
            p.predict_cores_batch_float(std::slice::from_ref(&full))
                .expect("width ok"),
            vec![p.predict_cores(&k)]
        );
        let err = p.predict_cores_batch(&[full[..5].to_vec()]).unwrap_err();
        assert!(matches!(
            err,
            PredictorError::FeatureWidth {
                expected: 20,
                got: 5
            }
        ));
    }

    #[test]
    fn batch_prediction_is_bit_identical_to_sequential() {
        let d = data();
        let p = EnergyPredictor::train(&d, StaticFeatureSet::All, TreeParams::default())
            .expect("train");
        // A mix of real kernels and synthetic vectors.
        let mut rows: Vec<Vec<f64>> = vec![static_feature_vector(&sample_kernel())];
        for seed in 0..5 {
            rows.push(
                (0..20)
                    .map(|i| (i as f64) * 1.5 + f64::from(seed))
                    .collect(),
            );
        }
        let batch = p.predict_cores_batch(&rows).expect("batch predicts");
        let sequential: Vec<usize> = rows
            .iter()
            .map(|r| {
                p.predict_cores_batch_float(std::slice::from_ref(r))
                    .expect("row")[0]
            })
            .collect();
        assert_eq!(batch, sequential);
        // Works for pruned-column predictors too.
        let pruned = EnergyPredictor::train_on_columns(
            &d,
            StaticFeatureSet::All,
            vec![3, 6],
            TreeParams::default(),
        )
        .expect("train");
        assert_eq!(
            pruned.predict_cores_batch(&rows).expect("batch"),
            rows.iter()
                .map(|r| pruned
                    .predict_cores_batch_float(std::slice::from_ref(r))
                    .expect("row")[0])
                .collect::<Vec<_>>()
        );
        // Empty batches are fine; a bad row fails the whole batch up front.
        assert!(p.predict_cores_batch(&[]).expect("empty").is_empty());
        let bad = vec![vec![1.0; 20], vec![1.0; 3]];
        assert!(matches!(
            p.predict_cores_batch(&bad).unwrap_err(),
            PredictorError::FeatureWidth {
                expected: 20,
                got: 3
            }
        ));
    }

    #[test]
    fn flat_batch_is_bit_exact_vs_float_reference() {
        // The quantized flat path must agree with the float tree on every
        // sample the pipeline produces (the full-dataset version of this
        // check is `bench models`' mismatch gate) and on the kernel path.
        let d = data();
        let p = EnergyPredictor::train(&d, StaticFeatureSet::All, TreeParams::default())
            .expect("train");
        let full = d.static_dataset_all().expect("static dataset");
        let rows: Vec<Vec<f64>> = (0..full.len()).map(|i| full.row(i).to_vec()).collect();
        assert_eq!(
            p.predict_cores_batch(&rows).expect("flat batch"),
            p.predict_cores_batch_float(&rows).expect("float batch"),
            "flat and float paths diverged on pipeline samples"
        );
        assert!(p.flat().n_nodes() >= 1);
        assert_eq!(p.flat().n_trees(), 1);
        // Width validation is shared between the two paths.
        let bad = vec![vec![0.0; 3]];
        assert!(p.predict_cores_batch_float(&bad).is_err());
    }

    #[test]
    fn metadata_describes_the_trained_tree() {
        let p = EnergyPredictor::train(&data(), StaticFeatureSet::Agg, TreeParams::default())
            .expect("train");
        let meta = p.metadata();
        assert_eq!(meta.feature_set, "AGG");
        assert_eq!(meta.n_features, 3);
        assert_eq!(meta.n_classes, 8);
        assert!(meta.tree_nodes >= 1 && meta.tree_depth <= meta.max_depth);
    }

    #[test]
    fn rejects_garbage_json() {
        assert!(EnergyPredictor::from_json("not json").is_err());
        assert!(EnergyPredictor::from_json("{}").is_err());
    }

    #[test]
    fn predictor_matches_feature_set_width() {
        let d = data();
        let p = EnergyPredictor::train(&d, StaticFeatureSet::Agg, TreeParams::default())
            .expect("train");
        assert_eq!(p.feature_names().len(), 3);
        assert_eq!(p.n_classes(), 8);
    }
}
