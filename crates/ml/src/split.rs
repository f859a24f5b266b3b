//! Impurity measures and the presorted best-split search for CART trees.
//!
//! `Presort` sorts every feature of the training rows once per fit.
//! Each tree node owns the same `[lo, hi)` range of every feature's
//! sorted block, so the split scan walks values in order without
//! re-sorting, and a split stable-partitions each block's range into the
//! children's ranges.

use crate::dataset::Dataset;
use serde::{Deserialize, Serialize};

/// Split-quality criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Criterion {
    /// Gini impurity (the paper's setting, scikit-learn default).
    #[default]
    Gini,
    /// Shannon entropy (information gain).
    Entropy,
}

impl Criterion {
    /// Impurity of a class-count histogram under this criterion.
    pub fn impurity(self, counts: &[usize]) -> f64 {
        self.impurity_of(counts, counts.iter().sum())
    }

    /// Impurity of `counts`, whose entries sum to `total`. Zero counts are
    /// skipped: each would add an exact `0.0` to a sum whose terms are all
    /// of one sign, so skipping them leaves every bit of the result as is.
    fn impurity_of(self, counts: &[usize], total: usize) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        let mut sum = 0.0;
        match self {
            Criterion::Gini => {
                for &c in counts {
                    if c > 0 {
                        sum += (c as f64 / t).powi(2);
                    }
                }
                1.0 - sum
            }
            Criterion::Entropy => {
                for &c in counts {
                    if c > 0 {
                        let p = c as f64 / t;
                        sum += p * p.log2();
                    }
                }
                -sum
            }
        }
    }
}

/// Shannon entropy (bits) of a class-count histogram.
pub fn entropy(counts: &[usize]) -> f64 {
    Criterion::Entropy.impurity(counts)
}

/// Gini impurity of a class-count histogram.
///
/// `1 - Σ p_c²`; zero for pure nodes, approaching `1 - 1/C` for uniform
/// mixtures over `C` classes.
pub fn gini(counts: &[usize]) -> f64 {
    Criterion::Gini.impurity(counts)
}

/// A candidate axis-aligned split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Split {
    /// Feature column to test.
    pub(crate) feature: usize,
    /// Samples with `x[feature] <= threshold` go left.
    pub(crate) threshold: f64,
    /// Impurity decrease, weighted by the node's sample fraction of `n_total`.
    pub(crate) weighted_decrease: f64,
}

/// The training rows of one fit, presorted per feature.
///
/// A *position* `p` indexes `rows` (not the dataset), so duplicated rows
/// (bootstrap samples) are distinct positions. Feature `f`'s block
/// `order[f * n..(f + 1) * n]` lists positions; a node's `[lo, hi)` range
/// of it holds the node's positions sorted by value. (A feature constant
/// in a node is not partitioned below it: its range then holds that one
/// value, which is all the scan reads of it.) `rank[f * n + p]` is the
/// dense rank of position `p`'s value of feature `f` among the rows, so
/// two positions hold equal values exactly when their ranks are equal.
pub(crate) struct Presort<'a> {
    data: &'a Dataset,
    rows: &'a [usize],
    n_features: usize,
    labels: Vec<u32>,
    order: Vec<u32>,
    rank: Vec<u32>,
    /// Per position: goes to the left child of the split being applied.
    go_left: Vec<bool>,
    /// Right-hand entries of the block range being partitioned.
    spill: Vec<u32>,
    /// Running class counts left and right of the scanned boundary.
    left: Vec<usize>,
    right: Vec<usize>,
}

impl<'a> Presort<'a> {
    /// Sorts every feature of `rows` once.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or a label does not fit in `u32`.
    pub(crate) fn new(data: &'a Dataset, rows: &'a [usize]) -> Self {
        let n = rows.len();
        let n_features = data.n_features();
        assert!(u32::try_from(n).is_ok(), "fit size fits in u32");
        let labels = rows
            .iter()
            .map(|&r| u32::try_from(data.label(r)).expect("label fits in u32"))
            .collect();
        let mut order = vec![0u32; n_features * n];
        let mut rank = vec![0u32; n_features * n];
        let mut keyed: Vec<(f64, u32)> = Vec::with_capacity(n);
        for f in 0..n_features {
            keyed.clear();
            keyed.extend(rows.iter().zip(0..).map(|(&r, p)| (data.row(r)[f], p)));
            keyed.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN features"));
            let (block, ranks) = (&mut order[f * n..], &mut rank[f * n..]);
            let mut r = 0;
            for (i, &(v, p)) in keyed.iter().enumerate() {
                if i > 0 && v != keyed[i - 1].0 {
                    r += 1;
                }
                block[i] = p;
                ranks[p as usize] = r;
            }
        }
        Self {
            data,
            rows,
            n_features,
            labels,
            order,
            rank,
            go_left: vec![false; n],
            spill: Vec::with_capacity(n),
            left: vec![0; data.n_classes()],
            right: vec![0; data.n_classes()],
        }
    }

    /// Number of training positions.
    pub(crate) fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of classes of the dataset.
    pub(crate) fn n_classes(&self) -> usize {
        self.left.len()
    }

    /// Value of feature `f` at position `p`.
    fn value(&self, p: u32, f: usize) -> f64 {
        self.data.row(self.rows[p as usize])[f]
    }

    /// Finds the best split of the node `[lo, hi)`, whose class counts are
    /// `counts`.
    ///
    /// Returns `None` when no split satisfies `min_leaf` on both sides or no
    /// feature separates the samples. `n_total` is the size of the full
    /// training set, used to weight the impurity decrease for feature
    /// importances (matching scikit-learn's convention).
    pub(crate) fn best_split(
        &mut self,
        lo: usize,
        hi: usize,
        counts: &[usize],
        min_leaf: usize,
        n_total: usize,
        criterion: Criterion,
    ) -> Option<Split> {
        let n = hi - lo;
        if n < 2 * min_leaf.max(1) {
            return None;
        }
        let parent_impurity = criterion.impurity_of(counts, n);
        if parent_impurity == 0.0 {
            return None;
        }

        let rows = self.rows.len();
        // (feature, last position left, first position right, decrease)
        let mut best: Option<(usize, u32, u32, f64)> = None;
        for f in 0..self.n_features {
            let block = &self.order[f * rows + lo..f * rows + hi];
            let rank = &self.rank[f * rows..(f + 1) * rows];
            if rank[block[0] as usize] == rank[block[n - 1] as usize] {
                continue; // constant in this node: no boundary
            }
            self.left.fill(0);
            self.right.copy_from_slice(counts);
            for i in 0..n - 1 {
                let p = block[i];
                let l = self.labels[p as usize] as usize;
                self.left[l] += 1;
                self.right[l] -= 1;
                if rank[p as usize] == rank[block[i + 1] as usize] {
                    continue; // cannot split between equal values
                }
                let n_left = i + 1;
                let n_right = n - n_left;
                if n_left < min_leaf || n_right < min_leaf {
                    continue;
                }
                let child = (n_left as f64 * criterion.impurity_of(&self.left, n_left)
                    + n_right as f64 * criterion.impurity_of(&self.right, n_right))
                    / n as f64;
                let decrease = (n as f64 / n_total as f64) * (parent_impurity - child);
                // Zero-decrease splits are kept (like scikit-learn's
                // splitter): XOR-style problems need a first split that
                // only pays off one level deeper. Ties keep the earliest
                // feature/threshold for determinism.
                if decrease >= 0.0 && best.is_none_or(|b| decrease > b.3) {
                    best = Some((f, p, block[i + 1], decrease));
                }
            }
        }
        best.map(|(feature, below, above, weighted_decrease)| Split {
            feature,
            threshold: 0.5 * (self.value(below, feature) + self.value(above, feature)),
            weighted_decrease,
        })
    }

    /// Applies `split` to the node `[lo, hi)`: stable-partitions every
    /// feature block's range so the positions with
    /// `x[split.feature] <= split.threshold` come first, writes their class
    /// counts to `left_counts` and returns the boundary `mid` between the
    /// children `[lo, mid)` and `[mid, hi)`.
    pub(crate) fn partition(
        &mut self,
        lo: usize,
        hi: usize,
        split: &Split,
        left_counts: &mut [usize],
    ) -> usize {
        let rows = self.rows.len();
        let f = split.feature;
        left_counts.fill(0);
        let mut mid = lo;
        for &p in &self.order[f * rows + lo..f * rows + hi] {
            let goes_left = self.value(p, f) <= split.threshold;
            self.go_left[p as usize] = goes_left;
            if goes_left {
                left_counts[self.labels[p as usize] as usize] += 1;
                mid += 1;
            }
        }
        for g in 0..self.n_features {
            let block = &mut self.order[g * rows + lo..g * rows + hi];
            let rank = &self.rank[g * rows..(g + 1) * rows];
            // The split feature's block is sorted, so its left side is
            // already a prefix. A block constant in the node holds one
            // value in any sub-range, so both children see it as constant
            // and never read its positions.
            if g == f || rank[block[0] as usize] == rank[block[block.len() - 1] as usize] {
                continue;
            }
            self.spill.clear();
            let mut w = 0;
            for i in 0..block.len() {
                let p = block[i];
                if self.go_left[p as usize] {
                    block[w] = p;
                    w += 1;
                } else {
                    self.spill.push(p);
                }
            }
            block[w..].copy_from_slice(&self.spill);
        }
        mid
    }
}

/// The per-node re-sorting split search the presorted one replaced, kept
/// verbatim (impurity formulas included) as the differential oracle.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{Criterion, Split};
    use crate::dataset::Dataset;

    fn impurity(criterion: Criterion, counts: &[usize]) -> f64 {
        let total: usize = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let t = total as f64;
        match criterion {
            Criterion::Gini => 1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>(),
            Criterion::Entropy => -counts
                .iter()
                .filter(|&&c| c > 0)
                .map(|&c| {
                    let p = c as f64 / t;
                    p * p.log2()
                })
                .sum::<f64>(),
        }
    }

    /// Best split of `rows` over `features`, re-sorting each feature.
    pub(crate) fn best_split_with(
        data: &Dataset,
        rows: &[usize],
        features: &[usize],
        min_leaf: usize,
        n_total: usize,
        criterion: Criterion,
    ) -> Option<Split> {
        let n = rows.len();
        if n < 2 * min_leaf.max(1) {
            return None;
        }
        let mut parent_counts = vec![0usize; data.n_classes()];
        for &r in rows {
            parent_counts[data.label(r)] += 1;
        }
        let parent_gini = impurity(criterion, &parent_counts);
        if parent_gini == 0.0 {
            return None;
        }

        let mut best: Option<Split> = None;
        let mut scratch: Vec<(f64, usize)> = Vec::with_capacity(n);
        for &f in features {
            scratch.clear();
            scratch.extend(rows.iter().map(|&r| (data.row(r)[f], data.label(r))));
            scratch.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN features"));

            let mut left = vec![0usize; data.n_classes()];
            let mut right = parent_counts.clone();
            for i in 0..n - 1 {
                let (v, l) = scratch[i];
                left[l] += 1;
                right[l] -= 1;
                let next_v = scratch[i + 1].0;
                if v == next_v {
                    continue;
                }
                let n_left = i + 1;
                let n_right = n - n_left;
                if n_left < min_leaf || n_right < min_leaf {
                    continue;
                }
                let child = (n_left as f64 * impurity(criterion, &left)
                    + n_right as f64 * impurity(criterion, &right))
                    / n as f64;
                let decrease = (n as f64 / n_total as f64) * (parent_gini - child);
                if decrease >= 0.0 && best.as_ref().is_none_or(|b| decrease > b.weighted_decrease) {
                    best = Some(Split {
                        feature: f,
                        threshold: 0.5 * (v + next_v),
                        weighted_decrease: decrease,
                    });
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(rows: Vec<Vec<f64>>, labels: Vec<usize>) -> Dataset {
        let width = rows[0].len();
        let names = (0..width).map(|i| format!("f{i}")).collect();
        Dataset::new(rows, labels, names, 3).expect("valid dataset")
    }

    /// The root split of all rows of `d`, through the presorted search.
    fn best_split_with(
        d: &Dataset,
        min_leaf: usize,
        n_total: usize,
        criterion: Criterion,
    ) -> Option<Split> {
        let rows: Vec<usize> = (0..d.len()).collect();
        let mut counts = vec![0; d.n_classes()];
        for &l in d.labels() {
            counts[l] += 1;
        }
        Presort::new(d, &rows).best_split(0, d.len(), &counts, min_leaf, n_total, criterion)
    }

    fn best_split(d: &Dataset, min_leaf: usize, n_total: usize) -> Option<Split> {
        best_split_with(d, min_leaf, n_total, Criterion::Gini)
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[10, 0]), 0.0);
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    #[test]
    fn finds_perfect_split() {
        let d = data(
            vec![vec![1.0], vec![2.0], vec![10.0], vec![11.0]],
            vec![0, 0, 1, 1],
        );
        let s = best_split(&d, 1, 4).expect("split");
        assert_eq!(s.feature, 0);
        assert!(s.threshold > 2.0 && s.threshold < 10.0);
        // Perfect split of a 50/50 node: decrease = parent gini = 0.5.
        assert!((s.weighted_decrease - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pure_node_has_no_split() {
        let d = data(vec![vec![1.0], vec![2.0]], vec![1, 1]);
        assert!(best_split(&d, 1, 2).is_none());
    }

    #[test]
    fn constant_feature_has_no_split() {
        let d = data(vec![vec![3.0], vec![3.0]], vec![0, 1]);
        assert!(best_split(&d, 1, 2).is_none());
    }

    #[test]
    fn min_leaf_is_respected() {
        let d = data(
            vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]],
            vec![0, 1, 1, 1],
        );
        // min_leaf = 3 cannot be satisfied on 4 samples.
        assert!(best_split(&d, 3, 4).is_none());
        // min_leaf = 2 forces the only legal threshold (2.5).
        let s = best_split(&d, 2, 4).expect("split");
        assert!((s.threshold - 2.5).abs() < 1e-12);
        assert!(best_split(&d, 1, 4).is_some());
    }

    #[test]
    fn picks_most_informative_feature() {
        // f0 is noise, f1 separates perfectly.
        let d = data(
            vec![
                vec![5.0, 1.0],
                vec![1.0, 2.0],
                vec![5.0, 10.0],
                vec![1.0, 11.0],
            ],
            vec![0, 0, 2, 2],
        );
        let s = best_split(&d, 1, 4).expect("split");
        assert_eq!(s.feature, 1);
    }

    #[test]
    fn entropy_extremes() {
        assert_eq!(entropy(&[10, 0]), 0.0);
        assert!((entropy(&[5, 5]) - 1.0).abs() < 1e-12);
        assert!((entropy(&[4, 4, 4, 4]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy(&[]), 0.0);
    }

    #[test]
    fn entropy_criterion_finds_the_same_perfect_split() {
        let d = data(
            vec![vec![1.0], vec![2.0], vec![10.0], vec![11.0]],
            vec![0, 0, 1, 1],
        );
        let s = best_split_with(&d, 1, 4, Criterion::Entropy).expect("split");
        assert_eq!(s.feature, 0);
        assert!(s.threshold > 2.0 && s.threshold < 10.0);
        // Perfect split of a 50/50 node: decrease = 1 bit.
        assert!((s.weighted_decrease - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighting_scales_with_node_fraction() {
        let d = data(
            vec![vec![1.0], vec![2.0], vec![10.0], vec![11.0]],
            vec![0, 0, 1, 1],
        );
        // Same node, but pretend it is half of a bigger training set.
        let s = best_split(&d, 1, 8).expect("split");
        assert!((s.weighted_decrease - 0.25).abs() < 1e-12);
    }
}
