//! Generated-input tests for the evaluation stack: metric bounds and
//! monotonicity, the perfect ranking, and t-test symmetries. Each law is
//! checked on `CASES` splitmix64-generated inputs from a fixed seed, so a
//! failure reproduces exactly. The top-K select is checked against a full
//! sort in `topk_select.rs`.

use lrgcn_eval::metrics::{dcg_at_k, idcg_at_k, ndcg_at_k, precision_at_k, recall_at_k};
use lrgcn_eval::ttest::{paired_t_test, reg_inc_beta, two_sided_p};
use rand::{RngExt, SplitMix64};

const CASES: usize = 256;

/// A ranking (a shuffle of the item ids `0..n`, `n` in `2..40`) plus a
/// sorted truth set of `0..n` distinct ids.
fn ranking(g: &mut SplitMix64) -> (Vec<u32>, Vec<u32>) {
    let n = g.random_range(2u32..40);
    let ranked = shuffled(g, n);
    let size = g.random_range(0..n) as usize;
    let mut truth = shuffled(g, n)[..size].to_vec();
    truth.sort_unstable();
    (ranked, truth)
}

/// The ids `0..n` in a uniformly random order (Fisher–Yates).
fn shuffled(g: &mut SplitMix64, n: u32) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, g.random_range(0..=i));
    }
    ids
}

/// `len` in `lens` draws from `lo..hi`.
fn floats(g: &mut SplitMix64, lens: std::ops::Range<usize>, lo: f64, hi: f64) -> Vec<f64> {
    let len = g.random_range(lens);
    (0..len).map(|_| g.random_range(lo..hi)).collect()
}

/// All metrics live in [0, 1]; recall is monotone in K; DCG ≤ IDCG.
#[test]
fn metric_bounds() {
    let mut g = SplitMix64::new(0xe7a1_0001);
    for _ in 0..CASES {
        let (ranked, truth) = ranking(&mut g);
        let k = g.random_range(1usize..45);
        let case = format!("ranked={ranked:?} truth={truth:?} k={k}");
        let r = recall_at_k(&ranked, &truth, k);
        let p = precision_at_k(&ranked, &truth, k);
        let n = ndcg_at_k(&ranked, &truth, k);
        assert!((0.0..=1.0).contains(&r), "recall {r}: {case}");
        assert!((0.0..=1.0).contains(&p), "precision {p}: {case}");
        assert!((0.0..=1.0).contains(&n), "ndcg {n}: {case}");
        assert!(
            dcg_at_k(&ranked, &truth, k) <= idcg_at_k(truth.len(), k) + 1e-12,
            "{case}"
        );
        if k > 1 {
            assert!(r >= recall_at_k(&ranked, &truth, k - 1), "{case}");
        }
    }
}

/// Ranking all truth items first achieves recall and NDCG of exactly 1
/// at K = |truth| (when truth is non-empty).
#[test]
fn perfect_ranking_is_perfect() {
    let mut g = SplitMix64::new(0xe7a1_0002);
    for _ in 0..CASES {
        let (_, truth) = ranking(&mut g);
        if truth.is_empty() {
            continue;
        }
        let mut perfect: Vec<u32> = truth.clone();
        for i in 0..50u32 {
            if truth.binary_search(&i).is_err() {
                perfect.push(i);
            }
        }
        let k = truth.len();
        assert!((recall_at_k(&perfect, &truth, k) - 1.0).abs() < 1e-12, "truth={truth:?}");
        assert!((ndcg_at_k(&perfect, &truth, k) - 1.0).abs() < 1e-12, "truth={truth:?}");
    }
}

/// Paired t-test is antisymmetric in its arguments: swapping a and b
/// flips the sign of t and preserves p.
#[test]
fn ttest_antisymmetry() {
    let mut g = SplitMix64::new(0xe7a1_0003);
    for _ in 0..CASES {
        let a = floats(&mut g, 3..10, 0.0, 1.0);
        let deltas = floats(&mut g, 3..10, -0.2, 0.2);
        let n = a.len().min(deltas.len());
        let a = &a[..n];
        let b: Vec<f64> = a.iter().zip(&deltas[..n]).map(|(x, d)| x + d).collect();
        let ab = paired_t_test(a, &b);
        let ba = paired_t_test(&b, a);
        assert!(
            (ab.t_statistic + ba.t_statistic).abs() < 1e-9
                || (ab.t_statistic.is_infinite() && ba.t_statistic.is_infinite()),
            "a={a:?} b={b:?}"
        );
        if ab.p_value.is_finite() && ba.p_value.is_finite() {
            assert!((ab.p_value - ba.p_value).abs() < 1e-9, "a={a:?} b={b:?}");
        }
        assert!((0.0..=1.0).contains(&ab.p_value), "a={a:?} b={b:?}");
    }
}

/// The regularized incomplete beta is a CDF in x: monotone, 0 at 0, 1 at 1.
#[test]
fn inc_beta_monotone() {
    let mut g = SplitMix64::new(0xe7a1_0004);
    for _ in 0..CASES {
        let a = g.random_range(0.5f64..5.0);
        let b = g.random_range(0.5f64..5.0);
        let x1 = g.random_range(0.01f64..0.99);
        let x2 = g.random_range(0.01f64..0.99);
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        assert!(
            reg_inc_beta(a, b, lo) <= reg_inc_beta(a, b, hi) + 1e-12,
            "a={a} b={b} lo={lo} hi={hi}"
        );
    }
}

/// Larger |t| can only shrink the two-sided p-value.
#[test]
fn p_value_monotone_in_t() {
    let mut g = SplitMix64::new(0xe7a1_0005);
    for _ in 0..CASES {
        let t = g.random_range(0.0f64..20.0);
        let dt = g.random_range(0.0f64..5.0);
        let df = g.random_range(1usize..60);
        assert!(
            two_sided_p(t + dt, df) <= two_sided_p(t, df) + 1e-12,
            "t={t} dt={dt} df={df}"
        );
    }
}
