//! # pulp-ml — classical machine learning for the energy-classification task
//!
//! A from-scratch implementation of the learning stack the paper uses:
//!
//! * a CART [`DecisionTree`] with Gini impurity and feature importances
//!   (the paper's classifier — chosen over deep models precisely because
//!   its importances are inspectable, Table IV);
//! * a [`RandomForest`] for the paper's future-work comparison;
//! * a gradient-boosted ensemble ([`Gbt`]) — one-vs-rest shallow trees
//!   with shrinkage, rounding out the model zoo;
//! * a quantized flat compiler ([`FlatModel`]) that lowers any zoo model
//!   to contiguous breadth-first node arrays (u16 feature ids, i32
//!   fixed-point thresholds) for the serving hot path;
//! * stratified k-fold cross-validation with seeded repetitions
//!   ([`cv::cross_val_predict`]), matching the paper's "10-fold stratified
//!   cross-validation repeated 100 times with random seeds";
//! * plain and *energy-tolerance* accuracy
//!   ([`metrics::tolerance_accuracy`]) — the evaluation axis of Figure 2.
//!
//! # Examples
//!
//! ```
//! use pulp_ml::{Dataset, DecisionTree, TreeParams, cv::cross_val_predict, metrics::accuracy};
//!
//! # fn main() -> Result<(), pulp_ml::DatasetError> {
//! let features: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
//! let labels: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
//! let data = Dataset::new(features, labels.clone(), vec!["x".into()], 2)?;
//! let preds = cross_val_predict(&data, 5, 0, || DecisionTree::new(TreeParams::default()));
//! assert!(accuracy(&preds, &labels) > 0.9);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cv;
pub mod dataset;
pub mod flat;
pub mod forest;
pub mod gbt;
pub mod knn;
pub mod metrics;
pub mod split;
pub mod tree;

pub use cv::{
    cross_val_predict, parallel_seeds, repeated_cross_val_predict, resolve_threads,
    stratified_folds, Classifier,
};
pub use dataset::{Dataset, DatasetError};
pub use flat::{FlatModel, MAX_SCALE_BITS};
pub use forest::{ForestParams, RandomForest};
pub use gbt::{Gbt, GbtParams};
pub use knn::{KNearestNeighbors, KnnParams};
pub use metrics::{
    accuracy, class_scores, confusion_matrix, mean_std, tolerance_accuracy, ClassScore,
};
pub use split::{entropy, gini, Criterion};
pub use tree::{DecisionTree, NodeView, TreeParams};
