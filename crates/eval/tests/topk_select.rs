//! Differential test of the one-pass threshold select behind
//! [`top_k_indices`]: on generated rows it must return exactly what
//! sorting every index by [`rank_order`] and keeping the first `k` returns
//! — same indices, same order — and a NaN anywhere must be refused.

use lrgcn_eval::{rank_order, top_k_indices};

/// splitmix64, the generator the workspace's other property suites use.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The reference: rank every index, keep `k`.
fn by_full_sort(scores: &[f32], k: usize) -> Vec<u32> {
    let mut all: Vec<(u32, f32)> = scores
        .iter()
        .copied()
        .enumerate()
        .map(|(i, s)| (i as u32, s))
        .collect();
    all.sort_by(rank_order);
    all.truncate(k);
    all.into_iter().map(|(i, _)| i).collect()
}

/// A row of `n` scores drawn from `levels` distinct values (few levels:
/// ties dominate), centred on zero so both zeros' neighbours appear, with
/// about one entry in `inf_every` replaced by `-inf` (a masked item) or
/// `+inf`.
fn row(g: &mut Gen, n: usize, levels: u64, inf_every: u64) -> Vec<f32> {
    (0..n)
        .map(|_| {
            if inf_every > 0 && g.below(inf_every) == 0 {
                return if g.below(4) == 0 {
                    f32::INFINITY
                } else {
                    f32::NEG_INFINITY
                };
            }
            let level = g.below(levels) as f32 - (levels / 2) as f32;
            // `-0.0` and `+0.0` compare equal and must tie by index.
            if level == 0.0 && g.below(2) == 0 {
                -0.0
            } else {
                level * 0.125
            }
        })
        .collect()
}

#[test]
fn threshold_select_equals_a_full_sort_on_generated_rows() {
    let mut g = Gen(0x5eed_70b1);
    let mut rows = 0usize;
    for levels in [3u64, 10, 1000, 1 << 20] {
        for inf_every in [0u64, 3, 40] {
            for _ in 0..300 {
                let n = g.below(700) as usize;
                let k = g.below(90) as usize;
                let scores = row(&mut g, n, levels, inf_every);
                assert_eq!(
                    top_k_indices(&scores, k),
                    by_full_sort(&scores, k),
                    "n={n} k={k} levels={levels} inf_every={inf_every}"
                );
                rows += 1;
            }
        }
    }
    // Monotone rows: ascending admits every index (the cut-back at 2k runs
    // n/k times), descending admits none after the first k.
    for n in [0usize, 1, 2, 63, 64, 65, 129, 700] {
        let up: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let down: Vec<f32> = (0..n).map(|i| -(i as f32)).collect();
        let flat = vec![0.0f32; n];
        for k in [0usize, 1, 2, 20, 64, 89, n, n + 5] {
            for scores in [&up, &down, &flat] {
                assert_eq!(
                    top_k_indices(scores, k),
                    by_full_sort(scores, k),
                    "monotone n={n} k={k}"
                );
                rows += 1;
            }
        }
    }
    assert!(rows >= 3000, "only {rows} rows generated");
}

/// 200 finite scores with one NaN planted at `at`.
fn with_nan_at(at: usize) -> Vec<f32> {
    let mut scores: Vec<f32> = (0..200).map(|i| ((i * 37) % 101) as f32).collect();
    scores[at] = f32::NAN;
    scores
}

#[test]
#[should_panic(expected = "scores must not be NaN")]
fn nan_inside_the_first_k_is_refused() {
    top_k_indices(&with_nan_at(3), 10);
}

#[test]
#[should_panic(expected = "scores must not be NaN")]
fn nan_as_the_only_seed_is_refused() {
    // k = 1: the NaN is the whole initial threshold.
    top_k_indices(&with_nan_at(0), 1);
}

#[test]
#[should_panic(expected = "scores must not be NaN")]
fn nan_after_the_first_k_is_refused() {
    top_k_indices(&with_nan_at(50), 10);
}

#[test]
#[should_panic(expected = "scores must not be NaN")]
fn nan_in_the_last_partial_chunk_is_refused() {
    // Past the last full 64-wide chunk after the k seeds, and below every
    // score already held, so only the `!(s <= t)` form of the test sees it.
    top_k_indices(&with_nan_at(199), 10);
}

#[test]
#[should_panic(expected = "scores must not be NaN")]
fn nan_when_k_covers_the_row_is_refused() {
    top_k_indices(&with_nan_at(120), 500);
}
