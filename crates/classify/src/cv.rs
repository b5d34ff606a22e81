//! k-fold cross-validation and grid search (§3.5.3: "Using grid search to
//! tune the hyperparameters … With 5-fold cross-validation, we achieve an
//! F1 score of 0.87").
//!
//! ADASYN is applied **inside** each fold, to the training split only —
//! oversampling before splitting would leak synthetic copies of test
//! samples into training, inflating F1.
//!
//! All folds are oversampled up front in one shared neighbour pass
//! ([`adasyn_splits`]): every training split is a subset of the same
//! corpus, so each sample's distance row is computed once, not once per
//! fold and grid candidate. Each fold's ADASYN draws from its own seed
//! stream split by the stable fold id ([`fold_splits`]), and the folds
//! then train and score independently ([`run_fold`]), so serial and
//! sharded execution produce identical confusions.

use crate::adasyn::{adasyn_splits, AdasynConfig, TrainSplit};
use crate::metrics::Confusion;
use crate::shard;
use crate::svm::{LinearSvm, SparseVec, SvmConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Assign each of `n` samples to one of `k` folds, shuffled by `seed`.
pub fn fold_assignment(n: usize, k: usize, seed: u64) -> Vec<usize> {
    assert!(k >= 2, "need at least two folds");
    assert!(n >= k, "fewer samples than folds");
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut folds = vec![0usize; n];
    for (pos, &i) in idx.iter().enumerate() {
        folds[i] = pos % k;
    }
    folds
}

/// Result of one cross-validated evaluation.
#[derive(Debug, Clone)]
pub struct CvResult {
    /// Pooled confusion matrix across folds.
    pub confusion: Confusion,
    /// Hyperparameters used.
    pub config: SvmConfig,
}

impl CvResult {
    /// Support-weighted F1 (the headline metric).
    pub fn weighted_f1(&self) -> f64 {
        self.confusion.weighted_f1()
    }
}

/// The k training splits of a fold assignment: split `f` holds every
/// sample outside fold `f`, ascending, and oversamples with the ADASYN
/// seed `stream_seed(cfg.seed, f)`. The seed is split by the stable fold
/// id — never the thread that runs the fold — so a pool executing folds in
/// any order reproduces the serial confusion exactly.
pub fn fold_splits(folds: &[usize], k: usize, cfg: AdasynConfig) -> Vec<TrainSplit> {
    (0..k)
        .map(|fold| TrainSplit {
            members: (0..folds.len()).filter(|&i| folds[i] != fold).collect(),
            cfg: AdasynConfig { seed: shard::stream_seed(cfg.seed, fold as u64), ..cfg },
        })
        .collect()
}

/// Every fold's training set, in fold order: the training split, run
/// through one shared ADASYN pass when `oversample` is set.
fn training_sets(
    samples: &[(SparseVec, usize)],
    folds: &[usize],
    k: usize,
    classes: usize,
    oversample: Option<AdasynConfig>,
    workers: usize,
) -> Vec<Vec<(SparseVec, usize)>> {
    let splits = fold_splits(folds, k, oversample.unwrap_or_default());
    match oversample {
        Some(_) => adasyn_splits(samples, classes, &splits, workers),
        None => splits
            .iter()
            .map(|split| split.members.iter().map(|&i| samples[i].clone()).collect())
            .collect(),
    }
}

/// Train on `train` — fold `fold`'s training split, already oversampled
/// when the experiment oversamples — and score the held-out fold.
pub fn run_fold(
    samples: &[(SparseVec, usize)],
    folds: &[usize],
    fold: usize,
    classes: usize,
    svm_cfg: SvmConfig,
    train: &[(SparseVec, usize)],
) -> Confusion {
    let model = LinearSvm::train(train, classes, svm_cfg);
    let mut confusion = Confusion::new(classes);
    for (s, &f) in samples.iter().zip(folds) {
        if f == fold {
            confusion.add(s.1, model.predict(&s.0));
        }
    }
    confusion
}

/// Evaluate one SVM configuration with k-fold CV; ADASYN applied per-fold
/// when `oversample` is set. Serial; identical to
/// [`cross_validate_sharded`] at any worker count.
pub fn cross_validate(
    samples: &[(SparseVec, usize)],
    classes: usize,
    k: usize,
    svm_cfg: SvmConfig,
    oversample: Option<AdasynConfig>,
    seed: u64,
) -> CvResult {
    cross_validate_sharded(samples, classes, k, svm_cfg, oversample, seed, 1)
}

/// [`cross_validate`] with folds executed on `workers` threads and the
/// per-fold confusions merged in ascending fold order.
#[allow(clippy::too_many_arguments)]
pub fn cross_validate_sharded(
    samples: &[(SparseVec, usize)],
    classes: usize,
    k: usize,
    svm_cfg: SvmConfig,
    oversample: Option<AdasynConfig>,
    seed: u64,
    workers: usize,
) -> CvResult {
    let folds = fold_assignment(samples.len(), k, seed);
    let train = training_sets(samples, &folds, k, classes, oversample, workers);
    let fold_ids: Vec<usize> = (0..k).collect();
    let per_fold: Vec<Confusion> = shard::map_sharded(&fold_ids, 1, workers, |_, shard| {
        shard
            .iter()
            .map(|&fold| run_fold(samples, &folds, fold, classes, svm_cfg, &train[fold]))
            .collect()
    });
    let mut confusion = Confusion::new(classes);
    for c in &per_fold {
        confusion.merge(c);
    }
    CvResult { confusion, config: svm_cfg }
}

/// Grid search over λ: cross-validate each candidate, return all results
/// sorted by weighted F1 (best first). Candidates run serially; pass
/// `workers` via [`grid_search_sharded`] to fan the (λ, fold) grid out.
pub fn grid_search(
    samples: &[(SparseVec, usize)],
    classes: usize,
    k: usize,
    lambdas: &[f64],
    base: SvmConfig,
    oversample: Option<AdasynConfig>,
    seed: u64,
) -> Vec<CvResult> {
    grid_search_sharded(samples, classes, k, lambdas, base, oversample, seed, 1)
}

/// [`grid_search`] with the flattened (λ, fold) job grid executed on
/// `workers` threads. The fold assignment is shared across candidates
/// (same `seed`), per-fold results merge in fold order per λ, and the
/// final sort is by (F1 desc, candidate index asc) — all independent of
/// scheduling, so output is byte-identical at any worker count.
#[allow(clippy::too_many_arguments)]
pub fn grid_search_sharded(
    samples: &[(SparseVec, usize)],
    classes: usize,
    k: usize,
    lambdas: &[f64],
    base: SvmConfig,
    oversample: Option<AdasynConfig>,
    seed: u64,
    workers: usize,
) -> Vec<CvResult> {
    assert!(!lambdas.is_empty(), "empty grid");
    let folds = fold_assignment(samples.len(), k, seed);
    // Oversampling does not depend on λ: every candidate trains on the
    // same k training sets.
    let train = training_sets(samples, &folds, k, classes, oversample, workers);
    // Flatten to (candidate, fold) jobs so k-fold parallelism is not
    // capped at k when the grid has several candidates.
    let jobs: Vec<(usize, usize)> = (0..lambdas.len())
        .flat_map(|c| (0..k).map(move |fold| (c, fold)))
        .collect();
    let per_job: Vec<Confusion> = shard::map_sharded(&jobs, 1, workers, |_, shard| {
        shard
            .iter()
            .map(|&(c, fold)| {
                let cfg = SvmConfig { lambda: lambdas[c], ..base };
                run_fold(samples, &folds, fold, classes, cfg, &train[fold])
            })
            .collect()
    });
    let mut results: Vec<CvResult> = lambdas
        .iter()
        .enumerate()
        .map(|(c, &lambda)| {
            let mut confusion = Confusion::new(classes);
            for fold in 0..k {
                confusion.merge(&per_job[c * k + fold]);
            }
            CvResult { confusion, config: SvmConfig { lambda, ..base } }
        })
        .collect();
    results.sort_by(|a, b| {
        b.weighted_f1()
            .partial_cmp(&a.weighted_f1())
            .expect("finite F1")
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(pairs: &[(u32, f32)]) -> SparseVec {
        pairs.to_vec()
    }

    fn separable(n_per_class: usize) -> Vec<(SparseVec, usize)> {
        let mut s = Vec::new();
        for i in 0..n_per_class {
            let j = (i % 9) as f32 * 0.01;
            s.push((fv(&[(0, 1.0 + j), (1, 0.3)]), 0usize));
            s.push((fv(&[(8, 1.0 + j), (9, 0.3)]), 1usize));
        }
        s
    }

    #[test]
    fn folds_partition_evenly() {
        let f = fold_assignment(100, 5, 1);
        for fold in 0..5 {
            assert_eq!(f.iter().filter(|&&x| x == fold).count(), 20);
        }
    }

    #[test]
    fn folds_deterministic() {
        assert_eq!(fold_assignment(50, 5, 9), fold_assignment(50, 5, 9));
        assert_ne!(fold_assignment(50, 5, 9), fold_assignment(50, 5, 10));
    }

    #[test]
    fn cv_on_separable_data_is_accurate() {
        let s = separable(25);
        let cfg = SvmConfig { dim: 16, lambda: 1e-3, epochs: 20, seed: 2 };
        let r = cross_validate(&s, 2, 5, cfg, None, 3);
        assert!(r.weighted_f1() > 0.95, "F1 {}", r.weighted_f1());
        assert_eq!(r.confusion.total(), s.len() as u64);
    }

    #[test]
    fn grid_search_sorts_best_first() {
        let s = separable(20);
        let base = SvmConfig { dim: 16, epochs: 10, seed: 2, lambda: 0.0 };
        let results = grid_search(&s, 2, 4, &[1e-4, 1e-1, 10.0], base, None, 3);
        assert_eq!(results.len(), 3);
        for w in results.windows(2) {
            assert!(w[0].weighted_f1() >= w[1].weighted_f1());
        }
        // Huge λ over-regularizes; it should not win.
        assert!(results[0].config.lambda < 10.0);
    }

    #[test]
    fn oversampling_runs_inside_cv() {
        // Imbalanced separable data; with ADASYN the minority class must
        // still be recalled well.
        let mut s = separable(30);
        s.truncate(30 + 6); // 30 of class 0/1 interleaved → trim to imbalance
        let cfg = SvmConfig { dim: 16, lambda: 1e-3, epochs: 15, seed: 2 };
        let r = cross_validate(&s, 2, 3, cfg, Some(AdasynConfig::default()), 5);
        assert!(r.weighted_f1() > 0.9, "F1 {}", r.weighted_f1());
    }

    #[test]
    #[should_panic(expected = "folds")]
    fn too_few_samples_panics() {
        fold_assignment(3, 5, 0);
    }

    #[test]
    fn sharded_cv_identical_for_any_worker_count() {
        let s = separable(15);
        let cfg = SvmConfig { dim: 16, lambda: 1e-3, epochs: 8, seed: 2 };
        let over = Some(AdasynConfig::default());
        let serial = cross_validate_sharded(&s, 2, 3, cfg, over, 5, 1);
        for workers in [2, 8] {
            let par = cross_validate_sharded(&s, 2, 3, cfg, over, 5, workers);
            assert_eq!(par.confusion, serial.confusion, "workers={workers}");
        }
    }

    /// The grid search as it ran before the folds shared one ADASYN
    /// pass: every (λ, fold) job clones its training split and
    /// re-oversamples it on its own.
    fn per_job_grid_reference(
        samples: &[(SparseVec, usize)],
        k: usize,
        lambdas: &[f64],
        base: SvmConfig,
        oversample: AdasynConfig,
        seed: u64,
    ) -> Vec<CvResult> {
        let folds = fold_assignment(samples.len(), k, seed);
        let mut results: Vec<CvResult> = lambdas
            .iter()
            .map(|&lambda| {
                let cfg = SvmConfig { lambda, ..base };
                let mut confusion = Confusion::new(3);
                for fold in 0..k {
                    let train: Vec<(SparseVec, usize)> = samples
                        .iter()
                        .zip(&folds)
                        .filter(|(_, &f)| f != fold)
                        .map(|(s, _)| s.clone())
                        .collect();
                    let fold_cfg = AdasynConfig {
                        seed: shard::stream_seed(oversample.seed, fold as u64),
                        ..oversample
                    };
                    let train = crate::adasyn::adasyn(&train, 3, fold_cfg);
                    let model = LinearSvm::train(&train, 3, cfg);
                    for (s, &f) in samples.iter().zip(&folds) {
                        if f == fold {
                            confusion.add(s.1, model.predict(&s.0));
                        }
                    }
                }
                CvResult { confusion, config: cfg }
            })
            .collect();
        results.sort_by(|a, b| b.weighted_f1().partial_cmp(&a.weighted_f1()).expect("finite F1"));
        results
    }

    #[test]
    fn oversampled_grid_matches_per_job_reference() {
        // Three imbalanced, overlapping classes so ADASYN synthesizes in
        // every fold and the confusions are not all perfect.
        let mut s = Vec::new();
        for i in 0..48 {
            let j = (i % 11) as f32 * 0.05;
            let class = if i % 8 == 0 { 2 } else if i % 3 == 0 { 1 } else { 0 };
            s.push((fv(&[(class as u32, 1.0 + j), (3, 0.2 + j), (4 + (i % 2) as u32, 0.4)]), class));
        }
        let base = SvmConfig { dim: 16, epochs: 6, seed: 2, lambda: 0.0 };
        let lambdas = [1e-4, 1e-2, 1.0];
        let over = AdasynConfig { k: 4, beta: 1.0, seed: 9 };
        let reference = per_job_grid_reference(&s, 4, &lambdas, base, over, 3);
        for workers in [1, 2, 8] {
            let got = grid_search_sharded(&s, 3, 4, &lambdas, base, Some(over), 3, workers);
            assert_eq!(got.len(), reference.len());
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.confusion, b.confusion, "workers={workers}");
                assert_eq!(a.config.lambda, b.config.lambda, "workers={workers}");
            }
        }
    }

    #[test]
    fn fold_splits_hold_out_their_fold_and_split_the_seed() {
        let folds = fold_assignment(20, 4, 1);
        let cfg = AdasynConfig::default();
        let splits = fold_splits(&folds, 4, cfg);
        assert_eq!(splits.len(), 4);
        for (fold, split) in splits.iter().enumerate() {
            assert_eq!(split.members.len(), 15);
            assert!(split.members.iter().all(|&i| folds[i] != fold));
            assert!(split.members.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(split.cfg.seed, shard::stream_seed(cfg.seed, fold as u64));
            assert_eq!((split.cfg.k, split.cfg.beta), (cfg.k, cfg.beta));
        }
    }

    #[test]
    fn sharded_grid_identical_for_any_worker_count() {
        let s = separable(12);
        let base = SvmConfig { dim: 16, epochs: 6, seed: 2, lambda: 0.0 };
        let lambdas = [1e-4, 1e-2];
        let serial = grid_search_sharded(&s, 2, 3, &lambdas, base, None, 3, 1);
        for workers in [2, 8] {
            let par = grid_search_sharded(&s, 2, 3, &lambdas, base, None, 3, workers);
            assert_eq!(par.len(), serial.len());
            for (a, b) in par.iter().zip(&serial) {
                assert_eq!(a.confusion, b.confusion, "workers={workers}");
                assert_eq!(a.config.lambda, b.config.lambda, "workers={workers}");
            }
        }
    }
}
