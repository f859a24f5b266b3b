//! Tabular datasets for the classification task.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced when assembling a [`Dataset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Feature matrix and label vector lengths differ.
    LengthMismatch {
        /// Number of feature rows.
        rows: usize,
        /// Number of labels.
        labels: usize,
    },
    /// A row has the wrong number of features.
    RaggedRow {
        /// Index of the offending row.
        row: usize,
        /// Its length.
        len: usize,
        /// Expected length.
        expected: usize,
    },
    /// A label is outside `0..n_classes`.
    LabelOutOfRange {
        /// Index of the offending sample.
        row: usize,
        /// The label value.
        label: usize,
        /// Number of classes.
        n_classes: usize,
    },
    /// Feature-name count disagrees with the matrix width.
    NameMismatch {
        /// Number of names provided.
        names: usize,
        /// Matrix width.
        width: usize,
    },
    /// A feature value is NaN.
    NanFeature {
        /// Row index.
        row: usize,
        /// Column index.
        col: usize,
    },
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LengthMismatch { rows, labels } => {
                write!(f, "{rows} feature rows but {labels} labels")
            }
            Self::RaggedRow { row, len, expected } => {
                write!(f, "row {row} has {len} features, expected {expected}")
            }
            Self::LabelOutOfRange {
                row,
                label,
                n_classes,
            } => {
                write!(f, "row {row}: label {label} outside 0..{n_classes}")
            }
            Self::NameMismatch { names, width } => {
                write!(f, "{names} feature names for a width-{width} matrix")
            }
            Self::NanFeature { row, col } => write!(f, "NaN feature at ({row}, {col})"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// A labelled feature matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    features: Vec<Vec<f64>>,
    labels: Vec<usize>,
    feature_names: Vec<String>,
    n_classes: usize,
}

impl Dataset {
    /// Assembles and checks a dataset.
    ///
    /// # Errors
    ///
    /// Returns an error for shape mismatches, out-of-range labels or NaN
    /// features.
    pub fn new(
        features: Vec<Vec<f64>>,
        labels: Vec<usize>,
        feature_names: Vec<String>,
        n_classes: usize,
    ) -> Result<Self, DatasetError> {
        if features.len() != labels.len() {
            return Err(DatasetError::LengthMismatch {
                rows: features.len(),
                labels: labels.len(),
            });
        }
        let width = features.first().map_or(feature_names.len(), Vec::len);
        if feature_names.len() != width {
            return Err(DatasetError::NameMismatch {
                names: feature_names.len(),
                width,
            });
        }
        for (i, row) in features.iter().enumerate() {
            if row.len() != width {
                return Err(DatasetError::RaggedRow {
                    row: i,
                    len: row.len(),
                    expected: width,
                });
            }
            for (j, v) in row.iter().enumerate() {
                if v.is_nan() {
                    return Err(DatasetError::NanFeature { row: i, col: j });
                }
            }
        }
        for (i, &l) in labels.iter().enumerate() {
            if l >= n_classes {
                return Err(DatasetError::LabelOutOfRange {
                    row: i,
                    label: l,
                    n_classes,
                });
            }
        }
        Ok(Self {
            features,
            labels,
            feature_names,
            n_classes,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` for an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i]
    }

    /// Label of sample `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Projects the dataset onto a subset of feature columns (used for the
    /// paper's feature-pruning experiments).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_features(&self, columns: &[usize]) -> Dataset {
        let features = self
            .features
            .iter()
            .map(|row| columns.iter().map(|&c| row[c]).collect())
            .collect();
        let feature_names = columns
            .iter()
            .map(|&c| self.feature_names[c].clone())
            .collect();
        Dataset {
            features,
            labels: self.labels.clone(),
            feature_names,
            n_classes: self.n_classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::new(
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
            vec![0, 1, 1],
            vec!["a".into(), "b".into()],
            2,
        )
        .expect("valid dataset")
    }

    #[test]
    fn accessors_work() {
        let d = small();
        assert_eq!(d.len(), 3);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(1), &[3.0, 4.0]);
        assert_eq!(d.label(2), 1);
        assert_eq!(d.class_counts(), vec![1, 2]);
    }

    #[test]
    fn rejects_shape_mismatches() {
        assert!(matches!(
            Dataset::new(vec![vec![1.0]], vec![0, 1], vec!["a".into()], 2),
            Err(DatasetError::LengthMismatch { .. })
        ));
        assert!(matches!(
            Dataset::new(
                vec![vec![1.0], vec![1.0, 2.0]],
                vec![0, 1],
                vec!["a".into()],
                2
            ),
            Err(DatasetError::RaggedRow { row: 1, .. })
        ));
        assert!(matches!(
            Dataset::new(vec![vec![1.0]], vec![5], vec!["a".into()], 2),
            Err(DatasetError::LabelOutOfRange { .. })
        ));
        assert!(matches!(
            Dataset::new(vec![vec![f64::NAN]], vec![0], vec!["a".into()], 2),
            Err(DatasetError::NanFeature { .. })
        ));
        assert!(matches!(
            Dataset::new(vec![vec![1.0]], vec![0], vec![], 2),
            Err(DatasetError::NameMismatch { .. })
        ));
    }

    #[test]
    fn select_features_projects_columns() {
        let d = small().select_features(&[1]);
        assert_eq!(d.n_features(), 1);
        assert_eq!(d.row(0), &[2.0]);
        assert_eq!(d.feature_names(), &["b".to_string()]);
    }
}
