//! ADASYN oversampling (He et al., 2008).
//!
//! The Davidson training corpus is heavily imbalanced (1,194 hate vs 16,025
//! offensive vs 20,499 neither); the paper notes "Because of the imbalanced
//! complexion of data, we use ADASYN to oversample" (§3.5.3). ADASYN
//! generates synthetic minority samples by interpolating between a minority
//! sample and one of its minority k-nearest neighbors, with more synthesis
//! where the minority class is hardest to learn (neighborhoods dominated by
//! other classes).

use crate::shard;
use crate::svm::{lerp, sq_dist, SparseVec};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Shard size for the neighbour scan and the synthesis pass. Small because
/// each sample's distance row is n evaluations over the whole pool; fixed
/// so shard geometry (and with it the output) never depends on the worker
/// count.
const ADASYN_SHARD: usize = 16;

/// ADASYN parameters.
#[derive(Debug, Clone, Copy)]
pub struct AdasynConfig {
    /// Neighborhood size (paper default k = 5).
    pub k: usize,
    /// Balance level β ∈ (0, 1]: 1.0 fully balances each class up to the
    /// majority count.
    pub beta: f64,
    /// RNG seed for gap sampling and neighbor choice.
    pub seed: u64,
}

impl Default for AdasynConfig {
    fn default() -> Self {
        Self { k: 5, beta: 1.0, seed: 11 }
    }
}

/// One training split of a shared sample pool, oversampled on its own:
/// the pool indices of its members (strictly ascending) and the ADASYN
/// parameters, seed included, it oversamples with.
#[derive(Debug, Clone)]
pub struct TrainSplit {
    /// Pool indices of the split's members, strictly ascending.
    pub members: Vec<usize>,
    /// ADASYN parameters for this split.
    pub cfg: AdasynConfig,
}

/// Oversample `samples` (feature, label) so every class approaches the
/// majority class count. Returns the input plus synthetic samples.
/// Serial entry point; identical output to [`adasyn_sharded`] at any
/// worker count.
pub fn adasyn(samples: &[(SparseVec, usize)], classes: usize, cfg: AdasynConfig) -> Vec<(SparseVec, usize)> {
    adasyn_sharded(samples, classes, cfg, 1)
}

/// [`adasyn`] with the neighbour scan and the synthesis pass sharded over
/// `workers` threads: the one-split case of [`adasyn_splits`]. The scan
/// costs O(m·n) distance evaluations for m minority samples.
///
/// Deterministic across worker counts: each minority sample `m` of a
/// class draws from its own RNG stream seeded by
/// `stream_seed(cfg.seed, class << 32 | m)` — stable ids, not thread
/// identity — and synthetic samples are appended in canonical
/// (class asc, minority position asc, draw asc) order, exactly the
/// order the serial loop produces.
pub fn adasyn_sharded(
    samples: &[(SparseVec, usize)],
    classes: usize,
    cfg: AdasynConfig,
    workers: usize,
) -> Vec<(SparseVec, usize)> {
    let whole = TrainSplit { members: (0..samples.len()).collect(), cfg };
    let mut out = adasyn_splits(samples, classes, std::slice::from_ref(&whole), workers);
    out.pop().expect("one split in, one out")
}

/// A minority sample's neighbourhood within one split: its split-local
/// index, hardness r_i (fraction of its k nearest split members from
/// other classes) and the split-local indices of its same-class
/// neighbours, used for interpolation.
struct Neighbourhood {
    local: usize,
    hardness: f64,
    neighbours: Vec<usize>,
}

/// Oversample every split of one sample pool, sharing the neighbour scan.
///
/// Output `i` is bit-identical to [`adasyn_sharded`] run on split `i`'s
/// members cloned out in order, with `splits[i].cfg`: the members, then
/// that split's synthetic samples. The splits share one pass over the
/// samples that are minority in at least one split: each such sample's
/// distance row to the whole pool is computed once, into a buffer reused
/// across the shard, and every split containing it derives its k nearest
/// members from that row. The per-split candidate list is rebuilt exactly
/// as a per-split scan builds it (members ascending, the sample itself
/// skipped, split-local indices), so neighbour selection, hardness and the
/// RNG draws that follow are unchanged. The cost is one row (n distance
/// evaluations) per needed sample, however many splits share it; memory is
/// one row per worker plus at most k neighbour indices per
/// (split, minority sample) — there is no n×n table.
pub fn adasyn_splits(
    samples: &[(SparseVec, usize)],
    classes: usize,
    splits: &[TrainSplit],
    workers: usize,
) -> Vec<Vec<(SparseVec, usize)>> {
    let n = samples.len();
    // Per split, the synthesis deficit of every class (0: none).
    let deficits: Vec<Vec<usize>> = splits
        .iter()
        .map(|split| {
            let cfg = split.cfg;
            assert!(cfg.k >= 1, "k must be >= 1");
            assert!(cfg.beta > 0.0 && cfg.beta <= 1.0, "beta must be in (0,1]");
            assert!(
                split.members.windows(2).all(|w| w[0] < w[1])
                    && split.members.last().is_none_or(|&last| last < n),
                "split members must be strictly ascending pool indices"
            );
            let mut counts = vec![0usize; classes];
            for &i in &split.members {
                counts[samples[i].1] += 1;
            }
            let majority = counts.iter().copied().max().unwrap_or(0);
            counts
                .iter()
                .map(|&class_count| {
                    if class_count == 0 {
                        return 0;
                    }
                    ((majority - class_count) as f64 * cfg.beta).round() as usize
                })
                .collect()
        })
        .collect();

    // Every sample that is minority in at least one split, ascending, with
    // the (split, local index) pairs that need its neighbourhood.
    let needed: Vec<(usize, Vec<(usize, usize)>)> = (0..n)
        .filter_map(|g| {
            let uses: Vec<(usize, usize)> = splits
                .iter()
                .enumerate()
                .filter(|&(s, _)| deficits[s][samples[g].1] > 0)
                .filter_map(|(s, split)| split.members.binary_search(&g).ok().map(|local| (s, local)))
                .collect();
            (!uses.is_empty()).then_some((g, uses))
        })
        .collect();

    let scans: Vec<Vec<Neighbourhood>> =
        shard::map_sharded(&needed, ADASYN_SHARD, workers, |_, shard| {
            let mut row = vec![0f64; n];
            let mut dists = Vec::new();
            shard
                .iter()
                .map(|(g, uses)| {
                    for (d, (x, _)) in row.iter_mut().zip(samples) {
                        *d = sq_dist(&samples[*g].0, x);
                    }
                    uses.iter()
                        .map(|&(s, local)| {
                            let split = &splits[s];
                            neighbourhood(samples, &split.members, &row, local, split.cfg.k, &mut dists)
                        })
                        .collect()
                })
                .collect()
        });

    // Regroup per (split, class). Split-local order follows pool order, so
    // each list comes out in ascending minority position.
    let mut minorities: Vec<Vec<Vec<Neighbourhood>>> =
        splits.iter().map(|_| (0..classes).map(|_| Vec::new()).collect()).collect();
    for ((g, uses), per_use) in needed.iter().zip(scans) {
        for (&(s, _), hood) in uses.iter().zip(per_use) {
            minorities[s][samples[*g].1].push(hood);
        }
    }

    splits
        .iter()
        .zip(minorities)
        .zip(&deficits)
        .map(|((split, per_class), deficit)| {
            let mut out: Vec<(SparseVec, usize)> =
                split.members.iter().map(|&i| samples[i].clone()).collect();
            for (class, minority) in per_class.iter().enumerate() {
                if deficit[class] > 0 {
                    out.extend(synthesize(samples, split, class, minority, deficit[class], workers));
                }
            }
            out
        })
        .collect()
}

/// k nearest members of split-local sample `i` among the split's other
/// members, from `row` (i's squared distance to every pool sample).
/// `dists` is scratch space, reused across calls.
fn neighbourhood(
    samples: &[(SparseVec, usize)],
    members: &[usize],
    row: &[f64],
    i: usize,
    k: usize,
    dists: &mut Vec<(f64, usize)>,
) -> Neighbourhood {
    let class = samples[members[i]].1;
    dists.clear();
    dists.extend(
        members.iter().enumerate().filter(|&(j, _)| j != i).map(|(j, &g)| (row[g], j)),
    );
    let k = k.min(dists.len());
    let nth = k.saturating_sub(1).min(dists.len().saturating_sub(1));
    dists.select_nth_unstable_by(nth, |a, b| {
        a.0.partial_cmp(&b.0).expect("finite distances")
    });
    let neigh = &dists[..k];
    let label = |j: usize| samples[members[j]].1;
    let foreign = neigh.iter().filter(|(_, j)| label(*j) != class).count();
    let hardness = foreign as f64 / k.max(1) as f64;
    let neighbours = neigh.iter().filter(|(_, j)| label(*j) == class).map(|(_, j)| *j).collect();
    Neighbourhood { local: i, hardness, neighbours }
}

/// Synthetic samples for one minority `class` of one split: per-minority-
/// sample RNG streams, canonical order.
fn synthesize(
    samples: &[(SparseVec, usize)],
    split: &TrainSplit,
    class: usize,
    minority: &[Neighbourhood],
    deficit: usize,
    workers: usize,
) -> Vec<(SparseVec, usize)> {
    let total_hardness: f64 = minority.iter().map(|h| h.hardness).sum();
    let member = |local: usize| &samples[split.members[local]].0;
    shard::map_sharded(minority, ADASYN_SHARD, workers, |shard_id, shard| {
        shard
            .iter()
            .enumerate()
            .flat_map(|(pos, hood)| {
                let m = shard_id * ADASYN_SHARD + pos;
                // Allocation: proportional to hardness; uniform if all easy.
                let share = if total_hardness > 0.0 {
                    hood.hardness / total_hardness
                } else {
                    1.0 / minority.len() as f64
                };
                let g = (share * deficit as f64).round() as usize;
                let sample_id = ((class as u64) << 32) | m as u64;
                let mut rng = StdRng::seed_from_u64(shard::stream_seed(split.cfg.seed, sample_id));
                let base = member(hood.local);
                (0..g)
                    .map(|_| {
                        let synth = if hood.neighbours.is_empty() {
                            base.clone() // isolated sample: duplicate
                        } else {
                            let pick = hood.neighbours[rng.gen_range(0..hood.neighbours.len())];
                            lerp(base, member(pick), rng.gen::<f32>())
                        };
                        (synth, class)
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(pairs: &[(u32, f32)]) -> SparseVec {
        pairs.to_vec()
    }

    fn toy_imbalanced() -> Vec<(SparseVec, usize)> {
        let mut s = Vec::new();
        // Majority class 1: cluster around feature 10.
        for i in 0..40 {
            s.push((fv(&[(10, 1.0 + (i % 7) as f32 * 0.01)]), 1usize));
        }
        // Minority class 0: cluster around feature 0.
        for i in 0..5 {
            s.push((fv(&[(0, 1.0 + i as f32 * 0.02)]), 0usize));
        }
        s
    }

    #[test]
    fn balances_minority_class() {
        let s = toy_imbalanced();
        let out = adasyn(&s, 2, AdasynConfig::default());
        let c0 = out.iter().filter(|(_, y)| *y == 0).count();
        let c1 = out.iter().filter(|(_, y)| *y == 1).count();
        assert!(c0 as f64 >= 0.8 * c1 as f64, "c0={c0} c1={c1}");
        // Originals preserved.
        assert!(out.len() > s.len());
        assert_eq!(&out[..s.len()], &s[..]);
    }

    #[test]
    fn synthetic_samples_stay_in_minority_region() {
        let s = toy_imbalanced();
        let out = adasyn(&s, 2, AdasynConfig::default());
        for (x, y) in &out[s.len()..] {
            assert_eq!(*y, 0, "only the minority class is synthesized");
            // All synthetic vectors interpolate cluster members → only
            // feature 0 present.
            assert!(x.iter().all(|&(i, _)| i == 0), "{x:?}");
        }
    }

    #[test]
    fn balanced_input_is_unchanged() {
        let mut s = Vec::new();
        for i in 0..10 {
            s.push((fv(&[(0, 1.0 + i as f32)]), 0usize));
            s.push((fv(&[(5, 1.0 + i as f32)]), 1usize));
        }
        let out = adasyn(&s, 2, AdasynConfig::default());
        assert_eq!(out.len(), s.len());
    }

    #[test]
    fn beta_scales_synthesis() {
        let s = toy_imbalanced();
        let full = adasyn(&s, 2, AdasynConfig { beta: 1.0, ..Default::default() });
        let half = adasyn(&s, 2, AdasynConfig { beta: 0.5, ..Default::default() });
        let synth_full = full.len() - s.len();
        let synth_half = half.len() - s.len();
        assert!(synth_half < synth_full);
        assert!(synth_half > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let s = toy_imbalanced();
        let a = adasyn(&s, 2, AdasynConfig::default());
        let b = adasyn(&s, 2, AdasynConfig::default());
        assert_eq!(a.len(), b.len());
        assert_eq!(a, b);
    }

    #[test]
    fn sharded_output_identical_for_any_worker_count() {
        let s = toy_imbalanced();
        let serial = adasyn_sharded(&s, 2, AdasynConfig::default(), 1);
        for workers in [2, 3, 8] {
            let par = adasyn_sharded(&s, 2, AdasynConfig::default(), workers);
            assert_eq!(par, serial, "workers={workers}");
        }
        assert_eq!(serial, adasyn(&s, 2, AdasynConfig::default()));
    }

    #[test]
    fn three_class_balances_both_minorities() {
        let mut s = toy_imbalanced();
        for i in 0..3 {
            s.push((fv(&[(20, 1.0 + i as f32 * 0.1)]), 2usize));
        }
        let out = adasyn(&s, 3, AdasynConfig::default());
        let c2 = out.iter().filter(|(_, y)| *y == 2).count();
        assert!(c2 > 3);
    }

    /// A 3-class pool with spread-out features so neighbour sets differ
    /// from split to split: class 0 is 40% of it, class 1 a third, class 2
    /// the rest.
    fn three_class_pool(n: usize) -> Vec<(SparseVec, usize)> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        (0..n)
            .map(|i| {
                let class = if i % 5 < 2 { 0 } else if i % 3 == 0 { 2 } else { 1 };
                let base = class as u32 * 4;
                let x = vec![(base, 0.5 + next()), (base + 1, next()), (13 + (i % 3) as u32, next())];
                (x, class)
            })
            .collect()
    }

    fn bits(v: &[(SparseVec, usize)]) -> Vec<(Vec<(u32, u32)>, usize)> {
        v.iter().map(|(x, y)| (x.iter().map(|&(i, f)| (i, f.to_bits())).collect(), *y)).collect()
    }

    #[test]
    fn shared_scan_matches_per_split_adasyn_bit_for_bit() {
        let pool = three_class_pool(90);
        let cfg = |k, seed| AdasynConfig { k, beta: 1.0, seed };
        let where_ = |keep: &dyn Fn(usize, usize) -> bool| -> Vec<usize> {
            (0..pool.len()).filter(|&i| keep(i, pool[i].1)).collect()
        };
        let splits = vec![
            // The whole pool: class 0 is majority.
            TrainSplit { members: where_(&|_, _| true), cfg: cfg(5, 1) },
            // Most of class 0 dropped: class 1 becomes the majority, so
            // class 0 samples are minority here but not in the whole pool.
            TrainSplit { members: where_(&|i, y| y != 0 || i % 4 == 0), cfg: cfg(5, 2) },
            // No class 2 at all; half of class 1.
            TrainSplit { members: where_(&|i, y| y == 0 || (y == 1 && i % 2 == 0)), cfg: cfg(3, 3) },
            // Three samples with k = 7 ≥ split size.
            TrainSplit { members: vec![0, 2, 5], cfg: cfg(7, 4) },
            // A fold-shaped split with a partial beta.
            TrainSplit { members: where_(&|i, _| i % 5 != 3), cfg: AdasynConfig { beta: 0.6, ..cfg(4, 5) } },
        ];
        for workers in [1, 2, 8] {
            let shared = adasyn_splits(&pool, 3, &splits, workers);
            assert_eq!(shared.len(), splits.len());
            for (s, (split, out)) in splits.iter().zip(&shared).enumerate() {
                let train: Vec<(SparseVec, usize)> =
                    split.members.iter().map(|&i| pool[i].clone()).collect();
                let alone = adasyn_sharded(&train, 3, split.cfg, 1);
                assert!(out.len() > train.len(), "split {s} synthesized nothing");
                assert_eq!(bits(out), bits(&alone), "split {s}, workers={workers}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_split_members_panic() {
        let split = TrainSplit { members: vec![3, 1], cfg: AdasynConfig::default() };
        adasyn_splits(&three_class_pool(10), 3, &[split], 1);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn bad_beta_panics() {
        adasyn(&[], 2, AdasynConfig { beta: 0.0, ..Default::default() });
    }
}
