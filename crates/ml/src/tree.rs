//! CART decision tree — the paper's classifier.
//!
//! The paper deliberately uses a decision tree rather than a deep model
//! because it "supports decisions by checking a sequence of control
//! statements" and allows insight into which features matter (Table IV
//! reports its feature importances).
//!
//! A fit sorts each feature of its training rows once
//! ([`Presort`](crate::split)); every node then scans its own range of
//! each sorted block and a split stable-partitions those ranges, so no
//! node re-sorts. The trees are bit-identical to those of a search that
//! re-sorts at every node: a split depends only on the class counts at the
//! boundaries between distinct values, scanned in ascending value order,
//! and those do not depend on how tied values are ordered. Both searches
//! share the threshold, impurity and tie-break expressions, and a
//! differential test against the re-sorting search checks every node and
//! importance bit for bit.

use crate::dataset::Dataset;
use crate::split::{Criterion, Presort};
use serde::{Deserialize, Serialize};

/// Decision-tree hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each leaf.
    pub min_samples_leaf: usize,
    /// Split-quality criterion (the paper uses Gini).
    pub criterion: Criterion,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 16,
            min_samples_split: 2,
            min_samples_leaf: 1,
            criterion: Criterion::Gini,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        class: usize,
    },
    Internal {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A borrowed view of one fitted tree node, for compilation passes (such
/// as [`crate::flat::FlatModel`]) that need to walk the structure without
/// exposing the private storage. Node ids index the tree's internal
/// pre-order array; the root is always id 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeView {
    /// Terminal node predicting `class`.
    Leaf {
        /// Predicted class index.
        class: usize,
    },
    /// Internal test: samples with `x[feature] <= threshold` descend left.
    Internal {
        /// Feature column tested.
        feature: usize,
        /// Split threshold (`<=` goes left).
        threshold: f64,
        /// Node id of the left child.
        left: usize,
        /// Node id of the right child.
        right: usize,
    },
}

/// A fitted CART decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    params: TreeParams,
    nodes: Vec<Node>,
    importances: Vec<f64>,
    n_features: usize,
}

impl DecisionTree {
    /// Creates an unfitted tree with `params`.
    pub fn new(params: TreeParams) -> Self {
        Self {
            params,
            nodes: Vec::new(),
            importances: Vec::new(),
            n_features: 0,
        }
    }

    /// Fits the tree on all rows of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(&mut self, data: &Dataset) {
        let rows: Vec<usize> = (0..data.len()).collect();
        self.fit_rows(data, &rows);
    }

    /// Fits the tree on a row subset (used by cross-validation and
    /// bagging). `rows` may repeat a row (bootstrap samples).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn fit_rows(&mut self, data: &Dataset, rows: &[usize]) {
        assert!(!rows.is_empty(), "cannot fit on an empty training set");
        self.nodes.clear();
        self.n_features = data.n_features();
        self.importances = vec![0.0; data.n_features()];
        let mut presort = Presort::new(data, rows);
        let mut counts = vec![0usize; data.n_classes()];
        for &r in rows {
            counts[data.label(r)] += 1;
        }
        self.grow(&mut presort, &mut counts, 0, rows.len(), 0);
        let norm: f64 = self.importances.iter().sum();
        if norm > 0.0 {
            for i in &mut self.importances {
                *i /= norm;
            }
        }
    }

    /// Grows the subtree of the node `[lo, hi)` at `depth` and returns its
    /// id. `counts` stacks one class-count histogram per depth: the node's
    /// own is slot `depth`, and its children use slot `depth + 1` in turn
    /// (a subtree writes only to slots deeper than its own).
    fn grow(
        &mut self,
        presort: &mut Presort<'_>,
        counts: &mut Vec<usize>,
        lo: usize,
        hi: usize,
        depth: usize,
    ) -> usize {
        let (k, n_total) = (presort.n_classes(), presort.n_rows());
        let here = depth * k..(depth + 1) * k;
        let split = if depth >= self.params.max_depth || hi - lo < self.params.min_samples_split {
            None
        } else {
            presort.best_split(
                lo,
                hi,
                &counts[here.clone()],
                self.params.min_samples_leaf,
                n_total,
                self.params.criterion,
            )
        };
        let Some(split) = split else {
            let class = counts[here]
                .iter()
                .enumerate()
                .max_by_key(|&(_, c)| c)
                .map(|(i, _)| i)
                .unwrap_or(0);
            self.nodes.push(Node::Leaf { class });
            return self.nodes.len() - 1;
        };
        self.importances[split.feature] += split.weighted_decrease;
        let child = (depth + 1) * k..(depth + 2) * k;
        if counts.len() < child.end {
            counts.resize(child.end, 0);
        }
        let mid = presort.partition(lo, hi, &split, &mut counts[child.clone()]);
        let id = self.nodes.len();
        // Reserve the slot; children are appended after.
        self.nodes.push(Node::Leaf { class: 0 });
        let left = self.grow(presort, counts, lo, mid, depth + 1);
        // The left subtree left its own counts in slot `depth + 1`.
        for (i, j) in here.zip(child) {
            counts[j] = counts[i] - counts[j];
        }
        let right = self.grow(presort, counts, mid, hi, depth + 1);
        self.nodes[id] = Node::Internal {
            feature: split.feature,
            threshold: split.threshold,
            left,
            right,
        };
        id
    }

    /// Predicts the class of one feature vector.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted or `x` is shorter than the training
    /// feature count.
    pub fn predict(&self, x: &[f64]) -> usize {
        assert!(!self.nodes.is_empty(), "predict called on an unfitted tree");
        let mut id = 0;
        loop {
            match &self.nodes[id] {
                Node::Leaf { class } => return *class,
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    id = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// Normalised feature importances (mean impurity decrease); sums to 1
    /// for any tree with at least one split.
    pub fn feature_importances(&self) -> &[f64] {
        &self.importances
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A view of node `id` (`0..node_count()`); the root is id 0.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (including any call on an unfitted
    /// tree, which has no nodes).
    pub fn node(&self, id: usize) -> NodeView {
        match &self.nodes[id] {
            Node::Leaf { class } => NodeView::Leaf { class: *class },
            Node::Internal {
                feature,
                threshold,
                left,
                right,
            } => NodeView::Internal {
                feature: *feature,
                threshold: *threshold,
                left: *left,
                right: *right,
            },
        }
    }

    /// Id of the leaf that `x` falls into (the node-id counterpart of
    /// [`predict`](Self::predict), used for leaf-value fitting in
    /// gradient boosting).
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted or `x` is shorter than the training
    /// feature count.
    pub fn leaf_id(&self, x: &[f64]) -> usize {
        assert!(!self.nodes.is_empty(), "leaf_id called on an unfitted tree");
        let mut id = 0;
        loop {
            match &self.nodes[id] {
                Node::Leaf { .. } => return id,
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    id = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    /// The hyperparameters this tree was configured with.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// Number of features seen at fit time (0 for an unfitted tree).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Renders the fitted tree as indented if/else rules — the
    /// interpretability the paper cites as the reason to prefer trees
    /// over deep models.
    ///
    /// `feature_names` maps column indices to labels; columns beyond the
    /// slice fall back to `f<idx>`.
    ///
    /// # Panics
    ///
    /// Panics if the tree is unfitted.
    pub fn render(&self, feature_names: &[String]) -> String {
        assert!(!self.nodes.is_empty(), "render called on an unfitted tree");
        fn name(names: &[String], f: usize) -> String {
            names.get(f).cloned().unwrap_or_else(|| format!("f{f}"))
        }
        fn rec(nodes: &[Node], names: &[String], id: usize, indent: usize, out: &mut String) {
            let pad = "  ".repeat(indent);
            match &nodes[id] {
                Node::Leaf { class } => {
                    out.push_str(&format!("{pad}-> class {class}\n"));
                }
                Node::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    out.push_str(&format!(
                        "{pad}if {} <= {threshold:.4} {{\n",
                        name(names, *feature)
                    ));
                    rec(nodes, names, *left, indent + 1, out);
                    out.push_str(&format!("{pad}}} else {{\n"));
                    rec(nodes, names, *right, indent + 1, out);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
        }
        let mut out = String::new();
        rec(&self.nodes, feature_names, 0, 0, &mut out);
        out
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 0,
                Node::Internal { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::oracle;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// The tree the per-node re-sorting search grows: the fit the
    /// presorted one replaced, kept as its differential oracle.
    fn fit_reference(params: TreeParams, data: &Dataset, rows: &[usize]) -> DecisionTree {
        fn grow(
            t: &mut DecisionTree,
            data: &Dataset,
            rows: &mut [usize],
            depth: usize,
            n_total: usize,
        ) -> usize {
            let features: Vec<usize> = (0..data.n_features()).collect();
            let split = if depth >= t.params.max_depth || rows.len() < t.params.min_samples_split {
                None
            } else {
                oracle::best_split_with(
                    data,
                    rows,
                    &features,
                    t.params.min_samples_leaf,
                    n_total,
                    t.params.criterion,
                )
            };
            let Some(split) = split else {
                let mut counts = vec![0usize; data.n_classes()];
                for &r in rows.iter() {
                    counts[data.label(r)] += 1;
                }
                let class = counts
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, c)| c)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                t.nodes.push(Node::Leaf { class });
                return t.nodes.len() - 1;
            };
            t.importances[split.feature] += split.weighted_decrease;
            let (mut left_rows, mut right_rows): (Vec<usize>, Vec<usize>) = rows
                .iter()
                .partition(|&&r| data.row(r)[split.feature] <= split.threshold);
            let id = t.nodes.len();
            t.nodes.push(Node::Leaf { class: 0 });
            let left = grow(t, data, &mut left_rows, depth + 1, n_total);
            let right = grow(t, data, &mut right_rows, depth + 1, n_total);
            t.nodes[id] = Node::Internal {
                feature: split.feature,
                threshold: split.threshold,
                left,
                right,
            };
            id
        }
        let mut t = DecisionTree::new(params);
        t.n_features = data.n_features();
        t.importances = vec![0.0; data.n_features()];
        grow(&mut t, data, &mut rows.to_vec(), 0, rows.len());
        let norm: f64 = t.importances.iter().sum();
        if norm > 0.0 {
            for i in &mut t.importances {
                *i /= norm;
            }
        }
        t
    }

    /// Every node and importance of `t`, floats by their bits.
    fn bits(t: &DecisionTree) -> (Vec<[u64; 4]>, Vec<u64>) {
        let nodes = (0..t.node_count())
            .map(|id| match t.node(id) {
                NodeView::Leaf { class } => [u64::MAX, class as u64, 0, 0],
                NodeView::Internal {
                    feature,
                    threshold,
                    left,
                    right,
                } => [
                    feature as u64,
                    threshold.to_bits(),
                    left as u64,
                    right as u64,
                ],
            })
            .collect();
        let importances = t
            .feature_importances()
            .iter()
            .map(|i| i.to_bits())
            .collect();
        (nodes, importances)
    }

    /// A random 8-class dataset with some classes absent and columns that
    /// are constant, heavily tied or continuous. A tied column takes 3-5
    /// of a few values that include both signed zeros and pairs whose
    /// midpoint overflows to infinity.
    fn random_dataset(rng: &mut StdRng) -> Dataset {
        let n = rng.gen_range(2..90);
        let width = rng.gen_range(1..7);
        let present: Vec<usize> = (0..8).filter(|_| rng.gen_range(0..5) < 3).collect();
        let present = if present.is_empty() { vec![5] } else { present };
        let columns: Vec<Vec<f64>> = (0..width)
            .map(|_| match rng.gen_range(0..4) {
                0 => vec![rng.gen_range(-3.0..3.0); n],
                1 | 2 => {
                    let mut levels = vec![0.0, -0.0, 1.5, -2.0, 7.25, 1e308, 1.7e308, f64::MAX];
                    levels.shuffle(rng);
                    levels.truncate(rng.gen_range(3..6));
                    (0..n)
                        .map(|_| levels[rng.gen_range(0..levels.len())])
                        .collect()
                }
                _ => (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect(),
            })
            .collect();
        let features = (0..n)
            .map(|i| columns.iter().map(|c| c[i]).collect())
            .collect();
        let labels = (0..n)
            .map(|_| present[rng.gen_range(0..present.len())])
            .collect();
        let names = (0..width).map(|i| format!("f{i}")).collect();
        Dataset::new(features, labels, names, 8).expect("valid dataset")
    }

    #[test]
    fn presorted_fit_matches_the_resorting_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut internal = 0;
        for case in 0..150 {
            let d = random_dataset(&mut rng);
            let n = d.len();
            let rows: Vec<usize> = match case % 3 {
                0 => (0..n).collect(),
                // A bootstrap sample: duplicates, some rows left out.
                1 => (0..n).map(|_| rng.gen_range(0..n)).collect(),
                _ => (0..n)
                    .filter(|_| rng.gen_range(0..10) < 7)
                    .chain([0])
                    .collect(),
            };
            for criterion in [Criterion::Gini, Criterion::Entropy] {
                for min_samples_leaf in [1, 3] {
                    for max_depth in [2, 16] {
                        let params = TreeParams {
                            max_depth,
                            min_samples_leaf,
                            criterion,
                            ..TreeParams::default()
                        };
                        let mut t = DecisionTree::new(params);
                        t.fit_rows(&d, &rows);
                        let want = fit_reference(params, &d, &rows);
                        assert_eq!(bits(&t), bits(&want), "case {case}, {params:?}");
                        internal += t.node_count() / 2;
                    }
                }
            }
        }
        assert!(
            internal > 1000,
            "the cases must grow real trees: {internal}"
        );
    }

    fn xor_data() -> Dataset {
        // XOR needs depth 2.
        Dataset::new(
            vec![
                vec![0.0, 0.0],
                vec![0.0, 1.0],
                vec![1.0, 0.0],
                vec![1.0, 1.0],
            ],
            vec![0, 1, 1, 0],
            vec!["x".into(), "y".into()],
            2,
        )
        .expect("valid dataset")
    }

    #[test]
    fn learns_xor_perfectly() {
        let d = xor_data();
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&d);
        for i in 0..d.len() {
            assert_eq!(t.predict(d.row(i)), d.label(i));
        }
        assert!(t.depth() >= 2);
    }

    #[test]
    fn max_depth_zero_gives_majority_leaf() {
        let d = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![2.0]],
            vec![1, 1, 0],
            vec!["x".into()],
            2,
        )
        .expect("valid dataset");
        let mut t = DecisionTree::new(TreeParams {
            max_depth: 0,
            ..TreeParams::default()
        });
        t.fit(&d);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[999.0]), 1);
    }

    #[test]
    fn importances_sum_to_one() {
        let d = xor_data();
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&d);
        let sum: f64 = t.feature_importances().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn irrelevant_feature_gets_zero_importance() {
        let d = Dataset::new(
            vec![
                vec![0.0, 7.0],
                vec![1.0, 7.0],
                vec![10.0, 7.0],
                vec![11.0, 7.0],
            ],
            vec![0, 0, 1, 1],
            vec!["signal".into(), "constant".into()],
            2,
        )
        .expect("valid dataset");
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&d);
        assert_eq!(t.feature_importances()[1], 0.0);
        assert!((t.feature_importances()[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fit_rows_ignores_excluded_samples() {
        let d = Dataset::new(
            vec![vec![0.0], vec![1.0], vec![100.0]],
            vec![0, 0, 1],
            vec!["x".into()],
            2,
        )
        .expect("valid dataset");
        let mut t = DecisionTree::new(TreeParams::default());
        // Train without the only class-1 sample: tree must be a pure leaf.
        t.fit_rows(&d, &[0, 1]);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict(&[100.0]), 0);
    }

    #[test]
    #[should_panic(expected = "unfitted")]
    fn predict_requires_fit() {
        let t = DecisionTree::new(TreeParams::default());
        let _ = t.predict(&[0.0]);
    }

    #[test]
    fn render_produces_readable_rules() {
        let d = xor_data();
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&d);
        let rules = t.render(&["x".to_string(), "y".to_string()]);
        assert!(rules.contains("if x <=") || rules.contains("if y <="));
        assert!(rules.contains("-> class 0"));
        assert!(rules.contains("-> class 1"));
        // Braces balance: every internal node opens and closes two blocks.
        let opens = rules.matches('{').count();
        let closes = rules.matches('}').count();
        assert_eq!(opens, closes, "unbalanced rules:\n{rules}");
        assert!(opens >= 2, "xor needs at least two splits");
    }

    #[test]
    fn render_falls_back_on_missing_names() {
        let d = xor_data();
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&d);
        let rules = t.render(&[]);
        assert!(rules.contains("if f0") || rules.contains("if f1"));
    }

    #[test]
    fn entropy_criterion_also_learns_xor() {
        let d = xor_data();
        let mut t = DecisionTree::new(TreeParams {
            criterion: Criterion::Entropy,
            ..TreeParams::default()
        });
        t.fit(&d);
        for i in 0..d.len() {
            assert_eq!(t.predict(d.row(i)), d.label(i));
        }
    }

    #[test]
    fn node_views_replay_predictions() {
        let d = xor_data();
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&d);
        // Walking the public node views must reach the same class as
        // predict, and leaf_id must land on a leaf view.
        for i in 0..d.len() {
            let x = d.row(i);
            let mut id = 0;
            let class = loop {
                match t.node(id) {
                    NodeView::Leaf { class } => break class,
                    NodeView::Internal {
                        feature,
                        threshold,
                        left,
                        right,
                    } => id = if x[feature] <= threshold { left } else { right },
                }
            };
            assert_eq!(class, t.predict(x));
            assert!(matches!(t.node(t.leaf_id(x)), NodeView::Leaf { class: c } if c == class));
        }
    }

    #[test]
    fn deterministic_across_fits() {
        let d = xor_data();
        let mut a = DecisionTree::new(TreeParams::default());
        let mut b = DecisionTree::new(TreeParams::default());
        a.fit(&d);
        b.fit(&d);
        assert_eq!(a, b);
    }
}
