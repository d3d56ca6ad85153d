//! The all-ranking evaluation protocol (§V-A3).
//!
//! For every evaluation user, *all* items the user has not interacted with
//! in training are candidates. The model provides a score row per user; we
//! mask training items to `-inf`, select the top-K, and aggregate
//! Recall@K / NDCG@K over users.
//!
//! Masking and ranking fan out across users via [`lrgcn_tensor::par`];
//! per-user metric tuples are folded into the report serially in user
//! order, so the report is bitwise identical for any thread count *and*
//! any chunk size. [`evaluate_ranking_parallel`] additionally fans the
//! scoring itself out across threads when the scorer is `Sync`.

use crate::metrics;
use lrgcn_data::Dataset;
use lrgcn_tensor::{par, Matrix};
use std::cmp::Ordering;

/// Which held-out split to evaluate against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Split {
    Val,
    Test,
}

/// Aggregated ranking quality at one cutoff.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RankingMetrics {
    pub k: usize,
    pub recall: f64,
    pub ndcg: f64,
    pub precision: f64,
    pub hit_rate: f64,
}

/// A full evaluation report (one entry per requested K).
#[derive(Clone, Debug, Default)]
pub struct EvalReport {
    pub metrics: Vec<RankingMetrics>,
    pub n_users: usize,
}

impl EvalReport {
    /// Recall@K from the report; panics if K was not evaluated.
    pub fn recall(&self, k: usize) -> f64 {
        self.at(k).recall
    }

    /// NDCG@K from the report; panics if K was not evaluated.
    pub fn ndcg(&self, k: usize) -> f64 {
        self.at(k).ndcg
    }

    fn at(&self, k: usize) -> &RankingMetrics {
        self.metrics
            .iter()
            .find(|m| m.k == k)
            .unwrap_or_else(|| panic!("K={k} was not evaluated"))
    }

    /// A compact `R@10 0.1234 | N@10 0.0567 | ...` line for logs.
    pub fn summary(&self) -> String {
        self.metrics
            .iter()
            .map(|m| format!("R@{} {:.4} N@{} {:.4}", m.k, m.recall, m.k, m.ndcg))
            .collect::<Vec<_>>()
            .join(" | ")
    }
}

/// The one ranking order of the workspace, over `(index, score)` pairs:
/// score descending, ties toward the lower index. `sort_by(rank_order)`
/// puts the best candidate first.
///
/// # Panics
/// Panics if either score is NaN.
pub fn rank_order(a: &(u32, f32), b: &(u32, f32)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .expect("scores must not be NaN")
        .then(a.0.cmp(&b.0))
}

/// Selects the indices of the `k` largest scores (ties broken toward lower
/// index, deterministically), best first. One pass over the scores; see
/// [`top_k_indices_into`].
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<u32> {
    let mut idx = Vec::new();
    top_k_indices_into(scores, k, &mut idx);
    idx
}

/// Scores per threshold test in [`top_k_indices_into`]: a fixed width, so
/// the test compiles to a few vector compares and one branch.
const SELECT_CHUNK: usize = 64;

/// Whether score `s` gets past threshold `t` in [`top_k_indices_into`]:
/// `s > t`, or either one is NaN. Written `s > t` a NaN would be dropped
/// in silence; the negated form hands it on to [`rank_order`], which
/// panics.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline]
fn admits(s: f32, t: f32) -> bool {
    !(s <= t)
}

/// Scratch-buffer variant of [`top_k_indices`]: leaves the selected indices
/// in `idx`, reusing its allocation. Evaluation loops call this once per
/// user with a per-thread scratch vector, turning `n_users` candidate-index
/// allocations into one per thread.
///
/// One pass with a running threshold `t`, the score of the `k`-th best
/// candidate known so far (at first, of the first `k` indices). The scan
/// visits indices in ascending order, so everything already in `idx` has a
/// lower index than the score `s` under the cursor, and under
/// [`rank_order`] an equal score loses to the lower index: `s` can enter
/// the top `k` only if `s > t`, strictly. `s <= t` therefore rejects `s`
/// for good — `k` candidates that rank ahead of it are already held — and
/// a chunk in which it holds for every score is skipped without touching
/// `idx`. The others are appended; at `2k` entries `idx` is cut back to
/// its best `k` with [`rank_order`] and `t` rises. A stale `t` only admits
/// too much, never rejects a winner, and the final cut and sort use
/// [`rank_order`] alone, so the output is that of sorting every index.
///
/// # Panics
/// Panics with `"scores must not be NaN"` on a NaN score, as sorting every
/// index would: the test is `!(s <= t)`, which a NaN on either side gets
/// past, and every index that does meets [`rank_order`].
pub fn top_k_indices_into(scores: &[f32], k: usize, idx: &mut Vec<u32>) {
    idx.clear();
    let k = k.min(scores.len());
    if k == 0 {
        return;
    }
    let by_rank =
        |a: &u32, b: &u32| rank_order(&(*a, scores[*a as usize]), &(*b, scores[*b as usize]));
    idx.extend(0..k as u32);
    if k < scores.len() {
        let worst = *idx.iter().max_by(|a, b| by_rank(a, b)).expect("k > 0");
        let mut t = scores[worst as usize];
        let mut base = k;
        for chunk in scores[k..].chunks(SELECT_CHUNK) {
            // No early exit inside the chunk: a plain OR-reduction is what
            // the compiler vectorises.
            if chunk.iter().fold(false, |hit, &s| hit | admits(s, t)) {
                for (off, &s) in chunk.iter().enumerate() {
                    if admits(s, t) {
                        idx.push((base + off) as u32);
                        if idx.len() == 2 * k {
                            idx.select_nth_unstable_by(k - 1, by_rank);
                            idx.truncate(k);
                            t = scores[idx[k - 1] as usize];
                        }
                    }
                }
            }
            base += chunk.len();
        }
        if idx.len() > k {
            idx.select_nth_unstable_by(k - 1, by_rank);
            idx.truncate(k);
        }
    }
    idx.sort_by(by_rank);
}

/// [`top_k_indices`] paired with the winning scores — the shape a serving
/// response needs. `-inf` entries (masked training items) are dropped from
/// the result rather than returned as recommendations.
pub fn top_k_with_scores(scores: &[f32], k: usize) -> Vec<(u32, f32)> {
    let mut idx = Vec::new();
    top_k_indices_into(scores, k, &mut idx);
    idx.into_iter()
        .map(|i| (i, scores[i as usize]))
        .filter(|(_, s)| *s != f32::NEG_INFINITY)
        .collect()
}

/// Fraction of `reference` indices also present in `candidate`
/// (`|candidate ∩ reference| / |reference|`; `1.0` when `reference` is
/// empty). This is recall-of-a-ranking-against-a-reference-ranking — the
/// guardrail `lrgcn-serve` uses to measure its quantized two-stage read
/// path against the exact f32 scan.
pub fn overlap_fraction(candidate: &[u32], reference: &[u32]) -> f64 {
    if reference.is_empty() {
        return 1.0;
    }
    let hits = reference
        .iter()
        .filter(|r| candidate.contains(r))
        .count();
    hits as f64 / reference.len() as f64
}

/// Masks each user's training items to `-inf` and ranks the chunk, writing
/// the per-user, per-K metric tuples `[recall, ndcg, precision, hit_rate]`
/// into `out` (user-major: `out[r * ks.len() + ki]`). Both passes are
/// row-parallel; every tuple is a pure function of one user's score row, so
/// the output is bitwise identical for any thread count.
fn chunk_metric_tuples(
    ds: &Dataset,
    split: Split,
    ks: &[usize],
    chunk: &[u32],
    scores: &mut Matrix,
    threads: usize,
    out: &mut [[f64; 4]],
) {
    let max_k = *ks.iter().max().expect("non-empty ks");
    let n_items = ds.n_items();
    if chunk.is_empty() || n_items == 0 {
        return;
    }
    // Pass 1: mask training items, row-parallel over score rows.
    par::par_row_chunks_mut(scores.data_mut(), n_items, threads, |start_row, block| {
        for (r, srow) in block.chunks_exact_mut(n_items).enumerate() {
            for &it in ds.train_items(chunk[start_row + r]) {
                srow[it as usize] = f32::NEG_INFINITY;
            }
        }
    });
    // Pass 2: rank and score metrics, row-parallel over users, one ranking
    // scratch buffer per thread.
    let kw = ks.len();
    let scores = &*scores;
    par::par_row_chunks_mut(out, kw, threads, |start_row, block| {
        let mut scratch: Vec<u32> = Vec::new();
        for (r, trow) in block.chunks_exact_mut(kw).enumerate() {
            let u = chunk[start_row + r];
            top_k_indices_into(scores.row(start_row + r), max_k, &mut scratch);
            let truth = match split {
                Split::Val => ds.val_items(u),
                Split::Test => ds.test_items(u),
            };
            for (ki, &k) in ks.iter().enumerate() {
                trow[ki] = [
                    metrics::recall_at_k(&scratch, truth, k),
                    metrics::ndcg_at_k(&scratch, truth, k),
                    metrics::precision_at_k(&scratch, truth, k),
                    metrics::hit_rate_at_k(&scratch, truth, k),
                ];
            }
        }
    });
}

/// Evaluates a scoring function under the all-ranking protocol.
///
/// ```
/// use lrgcn_eval::{evaluate_ranking, Split};
/// use lrgcn_data::Dataset;
/// use lrgcn_tensor::Matrix;
/// let ds = Dataset::from_parts(
///     "toy", 1, 3,
///     vec![(0, 0)],                 // user 0 trained on item 0
///     vec![vec![]], vec![vec![2]],  // tests on item 2
/// );
/// // Scorer that loves item 2: perfect recall.
/// let rep = evaluate_ranking(&ds, Split::Test, &[1], 8, &mut |users| {
///     let mut m = Matrix::zeros(users.len(), 3);
///     for r in 0..users.len() { m[(r, 2)] = 1.0; }
///     m
/// });
/// assert_eq!(rep.recall(1), 1.0);
/// ```
///
/// `score_fn` receives a chunk of user ids and must return a
/// `(chunk_len, n_items)` matrix of scores (higher = better). Training items
/// are masked here; the model does not need to.
pub fn evaluate_ranking(
    ds: &Dataset,
    split: Split,
    ks: &[usize],
    chunk_size: usize,
    score_fn: &mut dyn FnMut(&[u32]) -> Matrix,
) -> EvalReport {
    assert!(!ks.is_empty(), "at least one cutoff required");
    assert!(chunk_size > 0, "chunk size must be positive");
    let users = match split {
        Split::Val => ds.val_users(),
        Split::Test => ds.test_users(),
    };
    lrgcn_obs::registry::add(lrgcn_obs::Counter::EvalRankCalls, 1);
    lrgcn_obs::registry::add(lrgcn_obs::Counter::EvalRankUsers, users.len() as u64);
    let _t = lrgcn_obs::timer::scoped(lrgcn_obs::Hist::EvalRank);
    let _span = lrgcn_obs::trace::span("eval_rank", "kernel");
    let threads = par::effective_threads();
    let kw = ks.len();
    let mut tuples: Vec<[f64; 4]> = Vec::new();
    let mut all_tuples: Vec<[f64; 4]> = Vec::with_capacity(users.len() * kw);

    for chunk in users.chunks(chunk_size) {
        let mut scores = score_fn(chunk);
        assert_eq!(
            scores.shape(),
            (chunk.len(), ds.n_items()),
            "score_fn must return (chunk, n_items)"
        );
        tuples.clear();
        tuples.resize(chunk.len() * kw, [0.0; 4]);
        chunk_metric_tuples(ds, split, ks, chunk, &mut scores, threads, &mut tuples);
        all_tuples.extend_from_slice(&tuples);
    }

    report_from_tuples(ks, &all_tuples, users.len())
}

/// [`evaluate_ranking`] with the scoring itself fanned out: evaluation
/// users are split into contiguous blocks, each worker scores and ranks its
/// block chunk-by-chunk, and the per-user metric tuples are folded into the
/// report serially in user order. The report is bitwise identical to
/// [`evaluate_ranking`] with the same scorer, for any thread count and
/// chunk size.
///
/// The scorer must be `Fn + Sync` (called concurrently from worker
/// threads); models satisfy this through `Recommender::score_users(&self)`.
/// Nested kernels (the model's matmuls) detect the surrounding parallel
/// region and run serially instead of over-spawning.
pub fn evaluate_ranking_parallel(
    ds: &Dataset,
    split: Split,
    ks: &[usize],
    chunk_size: usize,
    score_fn: &(dyn Fn(&[u32]) -> Matrix + Sync),
) -> EvalReport {
    assert!(!ks.is_empty(), "at least one cutoff required");
    assert!(chunk_size > 0, "chunk size must be positive");
    let users = match split {
        Split::Val => ds.val_users(),
        Split::Test => ds.test_users(),
    };
    lrgcn_obs::registry::add(lrgcn_obs::Counter::EvalRankCalls, 1);
    lrgcn_obs::registry::add(lrgcn_obs::Counter::EvalRankUsers, users.len() as u64);
    let _t = lrgcn_obs::timer::scoped(lrgcn_obs::Hist::EvalRank);
    let _span = lrgcn_obs::trace::span("eval_rank", "kernel");
    let kw = ks.len();
    let mut tuples: Vec<[f64; 4]> = vec![[0.0; 4]; users.len() * kw];

    par::par_row_chunks_mut(
        &mut tuples,
        kw,
        par::effective_threads(),
        |start_row, block| {
            let n = block.len() / kw;
            let mut done = 0;
            for chunk in users[start_row..start_row + n].chunks(chunk_size) {
                let mut scores = score_fn(chunk);
                assert_eq!(
                    scores.shape(),
                    (chunk.len(), ds.n_items()),
                    "score_fn must return (chunk, n_items)"
                );
                let out = &mut block[done * kw..(done + chunk.len()) * kw];
                chunk_metric_tuples(
                    ds,
                    split,
                    ks,
                    chunk,
                    &mut scores,
                    par::effective_threads(),
                    out,
                );
                done += chunk.len();
            }
        },
    );

    report_from_tuples(ks, &tuples, users.len())
}

/// Folds user-major metric tuples into an [`EvalReport`], strictly in user
/// order — the exact summation order of the historical serial evaluator,
/// independent of how the tuples were produced.
fn report_from_tuples(ks: &[usize], tuples: &[[f64; 4]], n_users: usize) -> EvalReport {
    let kw = ks.len();
    let mut sums: Vec<(f64, f64, f64, f64)> = vec![(0.0, 0.0, 0.0, 0.0); kw];
    for urow in tuples.chunks_exact(kw) {
        for (ki, t) in urow.iter().enumerate() {
            sums[ki].0 += t[0];
            sums[ki].1 += t[1];
            sums[ki].2 += t[2];
            sums[ki].3 += t[3];
        }
    }
    let n = n_users.max(1) as f64;
    EvalReport {
        metrics: ks
            .iter()
            .zip(sums)
            .map(|(&k, (r, nd, p, h))| RankingMetrics {
                k,
                recall: r / n,
                ndcg: nd / n,
                precision: p / n,
                hit_rate: h / n,
            })
            .collect(),
        n_users,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_orders_descending_with_stable_ties() {
        let scores = [0.5f32, 2.0, 2.0, -1.0, 3.0];
        assert_eq!(top_k_indices(&scores, 3), vec![4, 1, 2]);
        assert_eq!(top_k_indices(&scores, 10), vec![4, 1, 2, 0, 3]);
        assert!(top_k_indices(&scores, 0).is_empty());
    }

    #[test]
    fn overlap_fraction_counts_shared_indices() {
        assert_eq!(overlap_fraction(&[1, 2, 3], &[3, 1, 9]), 2.0 / 3.0);
        assert_eq!(overlap_fraction(&[1, 2], &[]), 1.0);
        assert_eq!(overlap_fraction(&[], &[5]), 0.0);
        assert_eq!(overlap_fraction(&[5, 6], &[6, 5]), 1.0);
    }

    #[test]
    fn top_k_neg_infinity_sinks() {
        let scores = [f32::NEG_INFINITY, 1.0, f32::NEG_INFINITY, 0.5];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 3]);
    }

    #[test]
    fn top_k_with_scores_matches_indices_and_drops_masked() {
        let scores = [0.5f32, 2.0, f32::NEG_INFINITY, -1.0, 3.0];
        assert_eq!(
            top_k_with_scores(&scores, 3),
            vec![(4, 3.0), (1, 2.0), (0, 0.5)]
        );
        // Asking for more than the unmasked candidates truncates cleanly.
        assert_eq!(top_k_with_scores(&scores, 5).len(), 4);
        assert!(top_k_with_scores(&scores, 0).is_empty());
    }

    fn toy_dataset() -> Dataset {
        // 2 users, 4 items. u0 trained on {0}, tests {1}; u1 trained on {1},
        // tests {2,3}.
        Dataset::from_parts(
            "toy",
            2,
            4,
            vec![(0, 0), (1, 1)],
            vec![vec![], vec![]],
            vec![vec![1], vec![2, 3]],
        )
    }

    #[test]
    fn oracle_scorer_achieves_perfect_metrics() {
        let ds = toy_dataset();
        let mut oracle = |users: &[u32]| {
            let mut m = Matrix::zeros(users.len(), 4);
            for (r, &u) in users.iter().enumerate() {
                for &i in ds.test_items(u) {
                    m[(r, i as usize)] = 1.0;
                }
            }
            m
        };
        let rep = evaluate_ranking(&ds, Split::Test, &[2], 8, &mut oracle);
        assert_eq!(rep.n_users, 2);
        assert!((rep.recall(2) - 1.0).abs() < 1e-12);
        assert!((rep.ndcg(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn train_items_are_masked() {
        let ds = toy_dataset();
        // Adversarial scorer puts all mass on the training item.
        let mut adversary = |users: &[u32]| {
            let mut m = Matrix::zeros(users.len(), 4);
            for (r, &u) in users.iter().enumerate() {
                for &i in ds.train_items(u) {
                    m[(r, i as usize)] = 100.0;
                }
            }
            m
        };
        let rep = evaluate_ranking(&ds, Split::Test, &[1], 8, &mut adversary);
        // Scores on candidates are all ties at 0; rank is by index. u0's
        // top-1 candidate is item 1 (its truth!), u1's is item 0 (miss).
        assert!((rep.recall(1) - 0.5 * (1.0 + 0.0)).abs() < 1e-12);
    }

    #[test]
    fn chunking_does_not_change_results() {
        let ds = toy_dataset();
        let mk = |users: &[u32]| {
            let mut m = Matrix::zeros(users.len(), 4);
            for (r, &u) in users.iter().enumerate() {
                for i in 0..4usize {
                    m[(r, i)] = ((u as usize * 7 + i * 3) % 5) as f32;
                }
            }
            m
        };
        let r1 = evaluate_ranking(&ds, Split::Test, &[1, 2], 1, &mut { mk });
        let r2 = evaluate_ranking(&ds, Split::Test, &[1, 2], 64, &mut { mk });
        assert_eq!(r1.metrics, r2.metrics);
    }

    #[test]
    fn empty_split_yields_zero_users() {
        let ds = toy_dataset();
        let rep = evaluate_ranking(&ds, Split::Val, &[1], 8, &mut |u: &[u32]| {
            Matrix::zeros(u.len(), 4)
        });
        assert_eq!(rep.n_users, 0);
        assert_eq!(rep.recall(1), 0.0);
    }

    #[test]
    fn summary_mentions_all_ks() {
        let rep = EvalReport {
            metrics: vec![
                RankingMetrics { k: 10, recall: 0.1, ndcg: 0.2, precision: 0.0, hit_rate: 0.0 },
                RankingMetrics { k: 20, recall: 0.3, ndcg: 0.4, precision: 0.0, hit_rate: 0.0 },
            ],
            n_users: 5,
        };
        let s = rep.summary();
        assert!(s.contains("R@10") && s.contains("N@20"));
    }
}
