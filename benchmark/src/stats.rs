//! Order statistics and seeded traffic schedules.
//!
//! Everything here is a pure function of its arguments, so a seed fixes
//! the arrival times and the users asked for; the program under test only
//! ever sees what these functions generated.

use rand::rngs::StdRng;
use rand::RngExt;

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The lower decile (nearest rank) of repeated timings of the same work:
/// what it costs when nothing disturbs it. Disturbance here only ever adds
/// time - epochs of one run come in stretches of "fast" and "a third
/// slower" (README, noise sources) - so the mean and even the median move
/// with how long the slow stretch happened to be, and the fast end does not.
pub fn fastest_decile(seconds: &[f64]) -> f64 {
    assert!(!seconds.is_empty(), "no timings");
    let mut v = seconds.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 10)
}

/// Nearest-rank percentile `p` (1..=100) of an ascending sample.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The highest whole percentile, at most 99 and at least 50, that still
/// has ten samples beyond it: the tail figure a sample of this size
/// supports. 1000 samples give p99, 500 give p98, under 20 the median.
pub fn tail_percentile(n: usize) -> u32 {
    (50..=99u32)
        .rev()
        .find(|&p| n >= (n * p as usize).div_ceil(100) + 10)
        .unwrap_or(50)
}

/// Median and supported tail of a latency sample, in the sample's unit.
pub struct Quantiles {
    pub n: usize,
    pub p50: f64,
    /// Which percentile `tail` is (see [`tail_percentile`]).
    pub tail_p: u32,
    pub tail: f64,
}

pub fn quantiles(values: &[f64]) -> Quantiles {
    assert!(!values.is_empty(), "quantiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(v.len());
    Quantiles {
        n: v.len(),
        p50: percentile(&v, 50),
        tail_p,
        tail: percentile(&v, tail_p),
    }
}

/// Like [`quantiles`] for a sample that was taken in slices (one per
/// round of the run): the median is the pooled sample's, the tail is the
/// median over the slices of each slice's own supported tail. One stall (a
/// descheduled thread, a slow `fdatasync`) then spoils one slice and not
/// the run's figure; the price is a lower percentile (five slices of 200
/// give the median of five p95s, not one p99).
pub fn steady_quantiles(slices: &[Vec<f64>]) -> Quantiles {
    let pooled: Vec<f64> = slices.iter().flatten().copied().collect();
    let whole = quantiles(&pooled);
    let shortest = slices.iter().map(Vec::len).min().unwrap_or(0);
    if slices.len() < 3 || shortest < 20 {
        return whole;
    }
    let tail_p = tail_percentile(shortest);
    let tails: Vec<f64> = slices
        .iter()
        .map(|slice| {
            let mut v = slice.clone();
            v.sort_by(f64::total_cmp);
            percentile(&v, tail_p)
        })
        .collect();
    Quantiles {
        tail_p,
        tail: median(&tails),
        ..whole
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `repeat.sh` judges spread the way the
/// benchmark contract does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Poisson arrivals: offsets in nanoseconds from the phase start, at
/// `rate` per second, up to `seconds`.
pub fn poisson_schedule(rng: &mut StdRng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut due = Vec::with_capacity((rate * seconds) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// Evenly spaced arrivals (the event writer's schedule: identical delta
/// growth in every run).
pub fn fixed_schedule(rate: f64, seconds: f64) -> Vec<u64> {
    (0..(rate * seconds) as u64)
        .map(|i| (i as f64 / rate * 1e9) as u64)
        .collect()
}

/// Who asks: uniform over `ids`, or Zipf over them in the order given
/// (rank 1 = `ids[0]`), so a seeded permutation decides who is popular.
pub struct UserPicker {
    ids: Vec<u32>,
    /// Cumulative Zipf weights; empty for uniform.
    cdf: Vec<f64>,
}

impl UserPicker {
    pub fn uniform(ids: Vec<u32>) -> Self {
        assert!(!ids.is_empty(), "no users to pick from");
        Self {
            ids,
            cdf: Vec::new(),
        }
    }

    pub fn zipf(ids: Vec<u32>, exponent: f64) -> Self {
        assert!(!ids.is_empty(), "no users to pick from");
        let mut acc = 0.0;
        let cdf = (1..=ids.len())
            .map(|r| {
                acc += (r as f64).powf(-exponent);
                acc
            })
            .collect();
        Self { ids, cdf }
    }

    pub fn pick(&self, rng: &mut StdRng) -> u32 {
        if self.cdf.is_empty() {
            return self.ids[rng.random_range(0..self.ids.len())];
        }
        let x = rng.random::<f64>() * self.cdf[self.cdf.len() - 1];
        let rank = self.cdf.partition_point(|&c| c <= x);
        self.ids[rank.min(self.ids.len() - 1)]
    }
}

/// Fisher-Yates permutation of `0..n`.
pub fn permutation(rng: &mut StdRng, n: u32) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.random_range(0..=i));
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(999), 98);
        assert_eq!(tail_percentile(500), 98);
        assert_eq!(tail_percentile(499), 97);
        assert_eq!(tail_percentile(200), 95);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(5), 50);
        // Nearest rank: with 1000 samples p99 is the 990th, ten lie beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let q = quantiles(&v);
        assert_eq!((q.n, q.p50, q.tail_p, q.tail), (1000, 500.0, 99, 990.0));
    }

    #[test]
    fn one_stall_does_not_decide_the_steady_tail() {
        // Five slices of 200 latencies cycling 1..=100 ms, then one stall:
        // 15 requests in a row at 900 ms (1.5 % of the run, inside one slice).
        let mut slices: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..200).map(|i| (i % 100 + 1) as f64).collect())
            .collect();
        let calm = steady_quantiles(&slices);
        assert_eq!(
            (calm.n, calm.p50, calm.tail_p, calm.tail),
            (1000, 50.0, 95, 95.0)
        );
        for x in &mut slices[2][10..25] {
            *x = 900.0;
        }
        assert_eq!(
            quantiles(&slices.concat()).tail,
            900.0,
            "the plain p99 is the stall"
        );
        assert_eq!(
            steady_quantiles(&slices).tail,
            95.0,
            "four clean slices outvote it"
        );
        // Slices too short to have a tail of their own: the plain figures.
        let few: Vec<Vec<f64>> = (0..5)
            .map(|s| (1..=12).map(|i| f64::from(s * 12 + i)).collect())
            .collect();
        assert_eq!(steady_quantiles(&few).tail, quantiles(&few.concat()).tail);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // 24 epochs: the third fastest; 5 epochs: the fastest.
        let epochs: Vec<f64> = (1..=24).rev().map(f64::from).collect();
        assert_eq!(fastest_decile(&epochs), 3.0);
        assert_eq!(fastest_decile(&epochs[..5]), 20.0);
    }

    #[test]
    fn schedules_repeat_for_a_seed_and_differ_across_seeds() {
        let draw = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let due = poisson_schedule(&mut rng, 50.0, 4.0);
            let picker = UserPicker::zipf(permutation(&mut rng, 300), 1.0);
            let users: Vec<u32> = (0..200).map(|_| picker.pick(&mut rng)).collect();
            (due, users)
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7).0, draw(8).0);
        assert_ne!(draw(7).1, draw(8).1);
        let (due, _) = draw(7);
        assert!(due.windows(2).all(|w| w[0] <= w[1]), "arrivals are ordered");
        assert!(
            (150..250).contains(&due.len()),
            "about rate x seconds: {}",
            due.len()
        );
        assert_eq!(fixed_schedule(40.0, 2.0).len(), 80);
    }

    #[test]
    fn zipf_prefers_the_head_and_uniform_does_not() {
        let mut rng = StdRng::seed_from_u64(1);
        let zipf = UserPicker::zipf((0..1000).collect(), 1.0);
        let head = (0..5000).filter(|_| zipf.pick(&mut rng) < 10).count();
        assert!(
            head > 1500,
            "top 1% of ranks draw ~39% of Zipf(1.0): {head}"
        );
        let flat = UserPicker::uniform((0..1000).collect());
        let head = (0..5000).filter(|_| flat.pick(&mut rng) < 10).count();
        assert!(head < 150, "uniform gives the same ranks ~1%: {head}");
    }
}
