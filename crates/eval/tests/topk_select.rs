//! Differential test of the one-pass threshold select behind
//! [`top_k_indices`]: on generated rows it must return exactly what
//! sorting every index by [`rank_order`] and keeping the first `k` returns
//! — same indices, same order — and a NaN anywhere must be refused. The
//! select ranks packed integer keys, so the hand-built rows aim at what an
//! encoding can get wrong: `±0.0` and subnormals at the running
//! threshold, ties across the 64-wide chunk boundaries, `k` at the row's
//! length, and a serving-shaped row that is mostly zeros.

use lrgcn_eval::{rank_order, top_k_indices, top_k_indices_into};

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

/// The select through one pair of reused buffers, as the evaluator and
/// the serving engine call it: what a previous row left in them must not
/// leak into the next answer.
#[derive(Default)]
struct Reused {
    keys: Vec<u64>,
    idx: Vec<u32>,
}

impl Reused {
    fn select(&mut self, scores: &[f32], k: usize) -> Vec<u32> {
        top_k_indices_into(scores, k, &mut self.keys, &mut self.idx);
        self.idx.clone()
    }
}

#[test]
fn threshold_select_equals_a_full_sort_on_generated_rows() {
    let mut g = Gen(0x5eed_70b1);
    let mut reused = Reused::default();
    let mut rows = 0usize;
    for levels in [3u64, 10, 1000, 1 << 20] {
        for inf_every in [0u64, 3, 40] {
            for _ in 0..300 {
                let n = g.below(700) as usize;
                let k = g.below(90) as usize;
                let scores = row(&mut g, n, levels, inf_every);
                let want = by_full_sort(&scores, k);
                let case = format!("n={n} k={k} levels={levels} inf_every={inf_every}");
                assert_eq!(top_k_indices(&scores, k), want, "{case}");
                assert_eq!(reused.select(&scores, k), want, "reused buffers, {case}");
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

/// `±0.0` compare equal and tie by index; subnormals sit between them and
/// the normals. Rows drawn from these values only, with the first `k` of
/// them equal to one value so the running threshold starts exactly there,
/// put each of them at the threshold and on both sides of it.
#[test]
fn zeros_and_subnormals_at_the_threshold() {
    let tiny = f32::from_bits(1);
    let sub = f32::from_bits(0x007f_ffff);
    let levels = [
        -f32::MIN_POSITIVE,
        -sub,
        -tiny,
        -0.0,
        0.0,
        tiny,
        sub,
        f32::MIN_POSITIVE,
    ];
    let mut g = Gen(0x05ab_0e11);
    let mut rows = 0usize;
    for &at in &levels {
        for k in [1usize, 2, 5, 40, 64, 65] {
            for _ in 0..12 {
                let n = k + g.below(400) as usize;
                let scores: Vec<f32> = (0..n)
                    .map(|i| {
                        if i < k {
                            at
                        } else {
                            levels[g.below(levels.len() as u64) as usize]
                        }
                    })
                    .collect();
                assert_eq!(
                    top_k_indices(&scores, k),
                    by_full_sort(&scores, k),
                    "threshold {at:e} ({:#x}) n={n} k={k}",
                    at.to_bits()
                );
                rows += 1;
            }
        }
    }
    // A `+0.0` at a higher index must lose to a `-0.0` at a lower one, and
    // the other way round.
    let mut pair = vec![-1.0f32; 130];
    pair[70] = -0.0;
    pair[100] = 0.0;
    assert_eq!(top_k_indices(&pair, 1), vec![70]);
    pair[70] = 0.0;
    pair[100] = -0.0;
    assert_eq!(top_k_indices(&pair, 2), vec![70, 100]);
    assert!(rows >= 500, "only {rows} rows generated");
}

/// `serve_scan`'s shape: a 50,000-item row where about 87 % of the scores
/// are the zero class's `±0.0`, the rest spread around zero, a few masked
/// to `-inf`. With mostly negative live scores the zeros fill the top `k`
/// and the index tie-break decides every place.
#[test]
fn a_mostly_zero_catalogue_row() {
    let mut g = Gen(0x50_000);
    let mut reused = Reused::default();
    for positive_share in [2u64, 50] {
        let scores: Vec<f32> = (0..50_000)
            .map(|_| match g.below(1000) {
                0..=869 => {
                    if g.below(2) == 0 {
                        -0.0
                    } else {
                        0.0
                    }
                }
                870..=879 => f32::NEG_INFINITY,
                _ => {
                    let x = g.below(1 << 20) as f32 / (1 << 20) as f32;
                    if g.below(100) < positive_share {
                        x
                    } else {
                        -x
                    }
                }
            })
            .collect();
        for k in [1usize, 20, 50, 200, 6_600, 49_999, 50_000] {
            let want = by_full_sort(&scores, k);
            assert_eq!(
                reused.select(&scores, k),
                want,
                "k={k} positive={positive_share}%"
            );
        }
    }
}

/// Equal scores placed on both sides of the chunk boundaries: the chunks
/// start at index `k`, so the edges sit at `k + 64m`, and at 63/64/65 for
/// the rows where `k` is small. More tied candidates than places, so the
/// index tie-break picks across a chunk edge, and a cut-back at the end
/// of a chunk must not reorder them.
#[test]
fn ties_straddling_chunk_boundaries() {
    for tie in [1.0f32, 0.0, -0.0, f32::from_bits(1)] {
        for k in [1usize, 2, 3, 7, 50, 63, 64, 65] {
            for edge in [63usize, 64, 65, k + 64, k + 128] {
                let mut scores = vec![-2.0f32; edge + 140];
                scores[edge - 2..=edge + 1].fill(tie);
                // Ties on the next edge too, and one better score past it.
                scores[edge + 63..=edge + 65].fill(tie);
                scores[edge + 130] = 3.0;
                for kk in [k, k + 1, 4, 5] {
                    assert_eq!(
                        top_k_indices(&scores, kk),
                        by_full_sort(&scores, kk),
                        "tie={tie} k={kk} edge={edge}"
                    );
                }
            }
        }
    }
}

/// `k = n` ranks the whole row and skips the scan; `k = n - 1` scans one
/// score.
#[test]
fn k_at_the_row_length() {
    let mut g = Gen(0x4b_1e57);
    for n in [1usize, 2, 3, 63, 64, 65, 66, 128, 129, 500] {
        for levels in [2u64, 7, 1 << 16] {
            for inf_every in [0u64, 5] {
                let scores = row(&mut g, n, levels, inf_every);
                for k in [n - 1, n] {
                    assert_eq!(
                        top_k_indices(&scores, k),
                        by_full_sort(&scores, k),
                        "n={n} k={k} levels={levels}"
                    );
                }
            }
        }
    }
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
fn nan_alone_in_a_chunk_below_the_threshold_is_refused() {
    // The k seeds sit far above every later score, so the only score in
    // the second chunk that gets past the threshold test is the NaN: it
    // must be refused in the branch-free admission, not ranked.
    let k = 10;
    let mut scores = vec![0.0f32; k + 3 * 64];
    scores[..k].fill(100.0);
    scores[k + 64 + 17] = f32::NAN;
    top_k_indices(&scores, k);
}

#[test]
#[should_panic(expected = "scores must not be NaN")]
fn nan_when_k_covers_the_row_is_refused() {
    top_k_indices(&with_nan_at(120), 500);
}
