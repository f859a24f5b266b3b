//! Stratified cross-validation.
//!
//! The paper evaluates every classifier with "10-fold stratified
//! cross-validation ... repeated 100 times with random seeds, for ensuring
//! to get unbiased accuracy results". This module implements that exact
//! protocol, fanning the seeded repetitions out over a scoped worker pool:
//! each repetition derives its RNG purely from its own seed, so the
//! predictions are bit-identical at any thread count.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A model trainable on row subsets — implemented by the decision tree and
/// the random forest.
pub trait Classifier {
    /// Fits on the given training rows of `data`.
    fn fit_rows(&mut self, data: &Dataset, rows: &[usize]);
    /// Predicts the class of one feature vector.
    fn predict(&self, x: &[f64]) -> usize;
}

impl Classifier for crate::tree::DecisionTree {
    fn fit_rows(&mut self, data: &Dataset, rows: &[usize]) {
        crate::tree::DecisionTree::fit_rows(self, data, rows);
    }
    fn predict(&self, x: &[f64]) -> usize {
        crate::tree::DecisionTree::predict(self, x)
    }
}

impl Classifier for crate::forest::RandomForest {
    fn fit_rows(&mut self, data: &Dataset, rows: &[usize]) {
        crate::forest::RandomForest::fit_rows(self, data, rows);
    }
    fn predict(&self, x: &[f64]) -> usize {
        crate::forest::RandomForest::predict(self, x)
    }
}

/// Splits sample indices into `k` stratified folds.
///
/// Each class's samples are shuffled and dealt round-robin, so every fold
/// approximates the global class distribution and fold sizes differ by at
/// most one.
///
/// Edge cases are handled without panicking:
///
/// * **Empty input** returns `k` empty folds.
/// * **Classes with fewer than `k` samples** are dealt into distinct
///   consecutive folds; with fewer than `k` samples overall some folds are
///   (necessarily) empty — callers such as [`cross_val_predict`] skip
///   them.
/// * **Gaps in the label space** (e.g. labels `{0, 7, 1_000_000}`) are
///   fine: classes are bucketed by value, never used as a dense index, so
///   a large label cannot blow up allocation. Classes are processed in
///   ascending label order, keeping the output identical to the historical
///   dense-indexing behaviour for gapless label sets.
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn stratified_folds(labels: &[usize], k: usize, seed: u64) -> Vec<Vec<usize>> {
    assert!(k > 0, "need at least one fold");
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    if labels.is_empty() {
        return folds;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_class: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, &l) in labels.iter().enumerate() {
        per_class.entry(l).or_default().push(i);
    }
    let mut next = 0usize;
    for class_rows in per_class.values_mut() {
        class_rows.shuffle(&mut rng);
        for &row in class_rows.iter() {
            folds[next % k].push(row);
            next += 1;
        }
    }
    folds
}

/// Out-of-fold predictions for every sample under k-fold CV.
///
/// `make` builds a fresh classifier per fold (keeping folds independent).
/// Returns one predicted label per sample, aligned with `data` rows.
pub fn cross_val_predict<C: Classifier>(
    data: &Dataset,
    k: usize,
    seed: u64,
    mut make: impl FnMut() -> C,
) -> Vec<usize> {
    let folds = stratified_folds(data.labels(), k, seed);
    let mut predictions = vec![0usize; data.len()];
    for test_fold in &folds {
        if test_fold.is_empty() {
            continue;
        }
        let train: Vec<usize> = folds
            .iter()
            .filter(|f| !std::ptr::eq(*f, test_fold))
            .flatten()
            .copied()
            .collect();
        if train.is_empty() {
            continue;
        }
        let mut model = make();
        model.fit_rows(data, &train);
        for &row in test_fold {
            predictions[row] = model.predict(data.row(row));
        }
    }
    predictions
}

/// Picks the worker count for `jobs` independent jobs: `0` means all
/// available cores, and the result never exceeds the job count.
pub fn resolve_threads(requested: usize, jobs: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    t.clamp(1, jobs.max(1))
}

/// Runs [`cross_val_predict`] `repeats` times with seeds `0..repeats`
/// (offset by `base_seed`) fanned out over `threads` workers (`0` = all
/// cores), returning each repetition's predictions in repetition order.
///
/// `make` receives the repetition's seed, so classifiers needing their own
/// randomness (e.g. a random forest) stay a pure function of the
/// repetition — predictions are **bit-identical at any thread count**.
pub fn repeated_cross_val_predict<C: Classifier>(
    data: &Dataset,
    k: usize,
    repeats: usize,
    base_seed: u64,
    threads: usize,
    make: impl Fn(u64) -> C + Sync,
) -> Vec<Vec<usize>> {
    let rep = |(): &mut (), r: usize| {
        let seed = base_seed + r as u64;
        cross_val_predict(data, k, seed, || make(seed))
    };
    parallel_seeds(repeats, threads, |_| (), rep).0
}

/// Fans `n` independent seeded jobs out over `threads` workers (`0` = all
/// cores, clamped to `1..=n`) and returns `f(state, 0), ..., f(state, n - 1)`
/// in index order, plus every worker's final state in worker order.
///
/// Worker `t` starts from `init(t)` and claims the next unclaimed index
/// from one shared counter until none are left, so a worker that draws
/// short jobs keeps claiming while another finishes a long one; its state
/// carries whatever it accumulates across its jobs (a simulator scratch, a
/// private recorder, journal buffers). Each worker claims its indices in
/// increasing order. At one thread the jobs run inline on the caller's
/// thread. `f` must derive all randomness from its index argument to stay
/// deterministic across thread counts. This is the one worker pool of the
/// workspace: [`repeated_cross_val_predict`], the feature ranking's
/// refits, the labelling sweep driver and the learning-curve harness all
/// run on it.
pub fn parallel_seeds<S: Send, T: Send>(
    n: usize,
    threads: usize,
    init: impl Fn(usize) -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> (Vec<T>, Vec<S>) {
    let threads = resolve_threads(threads, n);
    // The counter hands out indices only; results reach the caller through
    // the join, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let worker = |t: usize| {
        let mut state = init(t);
        let mut results = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            results.push((i, f(&mut state, i)));
        }
        (results, state)
    };
    let shards: Vec<_> = if threads == 1 {
        vec![worker(0)]
    } else {
        let worker = &worker;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| scope.spawn(move || worker(t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("seed worker panicked"))
                .collect()
        })
    };
    let mut indexed = Vec::with_capacity(n);
    let mut states = Vec::with_capacity(threads);
    for (results, state) in shards {
        indexed.extend(results);
        states.push(state);
    }
    indexed.sort_unstable_by_key(|&(i, _)| i);
    (indexed.into_iter().map(|(_, r)| r).collect(), states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{DecisionTree, TreeParams};

    #[test]
    fn folds_partition_the_dataset() {
        let labels: Vec<usize> = (0..100).map(|i| i % 3).collect();
        let folds = stratified_folds(&labels, 10, 7);
        assert_eq!(folds.len(), 10);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn folds_are_stratified() {
        // 80 of class 0, 20 of class 1 → every fold of 10 gets 2 ones.
        let labels: Vec<usize> = std::iter::repeat_n(0, 80)
            .chain(std::iter::repeat_n(1, 20))
            .collect();
        let folds = stratified_folds(&labels, 10, 3);
        for f in &folds {
            let ones = f.iter().filter(|&&i| labels[i] == 1).count();
            assert_eq!(ones, 2, "fold with {ones} minority samples");
        }
    }

    #[test]
    fn folds_differ_by_seed_but_not_within() {
        let labels: Vec<usize> = (0..60).map(|i| i % 2).collect();
        assert_eq!(
            stratified_folds(&labels, 5, 1),
            stratified_folds(&labels, 5, 1)
        );
        assert_ne!(
            stratified_folds(&labels, 5, 1),
            stratified_folds(&labels, 5, 2)
        );
    }

    #[test]
    fn empty_labels_give_empty_folds() {
        let folds = stratified_folds(&[], 4, 0);
        assert_eq!(folds.len(), 4);
        assert!(folds.iter().all(Vec::is_empty));
    }

    #[test]
    fn class_smaller_than_k_lands_in_distinct_folds() {
        // 3 samples of class 1, k = 5: each lands in its own fold and the
        // partition stays complete.
        let labels = vec![0, 0, 0, 0, 0, 0, 0, 1, 1, 1];
        let folds = stratified_folds(&labels, 5, 11);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        for f in &folds {
            let minority = f.iter().filter(|&&i| labels[i] == 1).count();
            assert!(minority <= 1, "minority class bunched into one fold");
        }
    }

    #[test]
    fn fewer_samples_than_folds_leaves_empty_folds_but_partitions() {
        let labels = vec![0, 1, 0];
        let folds = stratified_folds(&labels, 10, 0);
        assert_eq!(folds.len(), 10);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
    }

    #[test]
    fn gaps_in_the_label_space_are_handled() {
        // Labels are values, not indices: a huge label must not allocate a
        // dense class table (the old implementation indexed `Vec` by label
        // and would try to allocate ~1e9 buckets here).
        let labels = vec![0, 7, 7, 1_000_000_007, 0, 7];
        let folds = stratified_folds(&labels, 3, 5);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
        // Fold sizes stay balanced to within one sample.
        let sizes: Vec<usize> = folds.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn dense_labels_match_historical_dealing_order() {
        // The BTreeMap bucketing must keep the exact output the old
        // dense-indexed implementation produced for gapless labels (other
        // tests pin downstream results to it).
        let labels: Vec<usize> = (0..40).map(|i| (i * 7) % 4).collect();
        let folds = stratified_folds(&labels, 5, 9);
        // Class 0 is shuffled first, then classes 1..=3 continue the same
        // round-robin counter.
        let mut expected_sizes = vec![8usize; 5];
        expected_sizes.sort_unstable();
        let mut sizes: Vec<usize> = folds.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, expected_sizes);
    }

    #[test]
    fn cross_val_predict_learns_separable_data() {
        // Class = x > 5, plenty of samples.
        let features: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let labels: Vec<usize> = (0..100).map(|i| usize::from(i >= 50)).collect();
        let data = Dataset::new(features, labels.clone(), vec!["x".into()], 2).expect("dataset");
        let preds = cross_val_predict(&data, 10, 0, || DecisionTree::new(TreeParams::default()));
        let correct = preds.iter().zip(&labels).filter(|(p, l)| p == l).count();
        assert!(correct >= 98, "cv accuracy too low: {correct}/100");
    }

    #[test]
    fn repeated_cv_produces_independent_repetitions() {
        let features: Vec<Vec<f64>> = (0..40).map(|i| vec![(i % 7) as f64, i as f64]).collect();
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let data =
            Dataset::new(features, labels, vec!["a".into(), "b".into()], 2).expect("dataset");
        let reps = repeated_cross_val_predict(&data, 5, 3, 0, 1, |_| {
            DecisionTree::new(TreeParams::default())
        });
        assert_eq!(reps.len(), 3);
        assert_eq!(reps[0].len(), 40);
    }

    #[test]
    fn repeated_cv_is_bit_identical_across_thread_counts() {
        let features: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i % 9) as f64, (i % 4) as f64, i as f64 * 0.25])
            .collect();
        let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let data = Dataset::new(
            features,
            labels,
            vec!["a".into(), "b".into(), "c".into()],
            3,
        )
        .expect("dataset");
        let make = |_seed: u64| DecisionTree::new(TreeParams::default());
        let serial = repeated_cross_val_predict(&data, 5, 8, 42, 1, make);
        let four = repeated_cross_val_predict(&data, 5, 8, 42, 4, make);
        let odd = repeated_cross_val_predict(&data, 5, 8, 42, 3, make);
        let auto = repeated_cross_val_predict(&data, 5, 8, 42, 0, make);
        assert_eq!(serial, four, "1 vs 4 threads diverged");
        assert_eq!(serial, odd, "1 vs 3 threads diverged");
        assert_eq!(serial, auto, "1 vs auto threads diverged");
    }

    #[test]
    fn zoo_models_are_bit_identical_across_thread_counts() {
        // The acceptance bar for the model zoo: forest and GBT runs under
        // repeated CV must not depend on --cv-threads. The forest derives
        // all randomness from the per-repetition seed; the GBT fit is
        // deterministic outright.
        use crate::forest::{ForestParams, RandomForest};
        use crate::gbt::{Gbt, GbtParams};
        let features: Vec<Vec<f64>> = (0..48)
            .map(|i| vec![(i % 8) as f64, (i % 5) as f64 * 0.5, i as f64])
            .collect();
        let labels: Vec<usize> = (0..48).map(|i| i % 3).collect();
        let data = Dataset::new(
            features,
            labels,
            vec!["a".into(), "b".into(), "c".into()],
            3,
        )
        .expect("dataset");

        let make_forest = |seed: u64| {
            RandomForest::new(ForestParams {
                n_trees: 7,
                seed: seed + 1,
                ..ForestParams::default()
            })
        };
        assert_eq!(
            repeated_cross_val_predict(&data, 4, 4, 0, 1, make_forest),
            repeated_cross_val_predict(&data, 4, 4, 0, 4, make_forest),
            "forest diverged across thread counts"
        );

        let make_gbt = |seed: u64| {
            Gbt::new(GbtParams {
                n_rounds: 6,
                seed,
                ..GbtParams::default()
            })
        };
        assert_eq!(
            repeated_cross_val_predict(&data, 4, 4, 0, 1, make_gbt),
            repeated_cross_val_predict(&data, 4, 4, 0, 4, make_gbt),
            "gbt diverged across thread counts"
        );
    }

    #[test]
    fn parallel_seeds_preserves_index_order() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // (jobs, requested threads, expected workers)
        let table = [
            (17, 4, 4),
            (5, 0, cores.min(5)),
            (5, 1, 1),
            (5, 3, 3),
            (12, 8, 8),
            (3, 8, 3),
            (0, 4, 1),
        ];
        for (n, threads, workers) in table {
            let (out, states) = parallel_seeds(
                n,
                threads,
                |t| (t, Vec::new()),
                |(_, seen): &mut (usize, Vec<usize>), i| {
                    seen.push(i);
                    i * i
                },
            );
            let case = format!("n = {n}, threads = {threads}");
            assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>(), "{case}");
            assert_eq!(states.len(), workers, "{case}");
            let mut visited: Vec<usize> = Vec::new();
            for (w, (t, seen)) in states.iter().enumerate() {
                assert_eq!(*t, w, "states come back in worker order ({case})");
                assert!(
                    seen.windows(2).all(|p| p[0] < p[1]),
                    "worker {w} claims increasing indices ({case})"
                );
                visited.extend(seen);
            }
            visited.sort_unstable();
            assert_eq!(
                visited,
                (0..n).collect::<Vec<_>>(),
                "each index once ({case})"
            );
        }
    }

    #[test]
    fn parallel_seeds_balances_uneven_jobs() {
        use std::time::{Duration, Instant};
        // Job 0 waits for jobs 1..=5. Whichever worker claims job 0 is
        // held there, so the other must claim all five; under a static
        // round-robin or chunked split job 0's worker would own some of
        // them and job 0 would time out.
        let finished = AtomicUsize::new(0);
        let (out, _) = parallel_seeds(
            6,
            2,
            |_| (),
            |(), i| {
                if i > 0 {
                    finished.fetch_add(1, Ordering::SeqCst);
                    return true;
                }
                let deadline = Instant::now() + Duration::from_secs(10);
                while finished.load(Ordering::SeqCst) < 5 && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                finished.load(Ordering::SeqCst) == 5
            },
        );
        assert_eq!(out, [true; 6], "job 0 saw jobs 1..=5 finish");
    }
}
