//! Generated-input tests for the dataset tooling: split invariants, k-core
//! postconditions, sampler guarantees and generator laws. Each law is
//! checked on `CASES` splitmix64-generated inputs from a fixed seed, so a
//! failure reproduces exactly.

use lrgcn_data::interactions::{Interaction, InteractionLog};
use lrgcn_data::kcore::k_core;
use lrgcn_data::sampler::sample_negative;
use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng, SplitMix64};
use std::collections::HashSet;

const CASES: usize = 48;

/// A deduplicated log of `1..80` interactions over 12 users and 12 items,
/// timestamps in `-100..100` (repeats included, so the split's tie order
/// is exercised).
fn log(g: &mut SplitMix64) -> InteractionLog {
    let len = g.random_range(1usize..80);
    let ints: Vec<Interaction> = (0..len)
        .map(|_| Interaction {
            user: g.random_range(0u32..12),
            item: g.random_range(0u32..12),
            timestamp: g.random_range(-100i64..100),
        })
        .collect();
    let mut log = InteractionLog::new(12, 12, ints);
    log.dedup_pairs();
    log
}

/// The log's interactions as `user item timestamp` triples, for failure
/// messages.
fn describe(log: &InteractionLog) -> String {
    log.interactions()
        .iter()
        .map(|i| format!("({} {} {})", i.user, i.item, i.timestamp))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Chronological split: train edges + held-out ground truth never exceed
/// the log; held-out items are never cold-start or train repeats (the
/// evaluator's `-inf` masking of training items relies on the latter);
/// every training pair really is in the log.
#[test]
fn split_invariants() {
    let mut g = SplitMix64::new(0xda7a_0001);
    for _ in 0..CASES {
        let log = log(&mut g);
        let case = describe(&log);
        let ds = Dataset::chronological_split("p", &log, SplitRatios::default());
        let (v, t) = ds.heldout_sizes();
        assert!(ds.train().n_edges() + v + t <= log.len(), "{case}");

        let all_pairs: HashSet<(u32, u32)> = log
            .interactions()
            .iter()
            .map(|i| (i.user, i.item))
            .collect();
        for &(u, i) in ds.train().edges() {
            assert!(all_pairs.contains(&(u, i)), "{case}");
        }
        let mut item_in_train = vec![false; ds.n_items()];
        for &(_, i) in ds.train().edges() {
            item_in_train[i as usize] = true;
        }
        for u in 0..ds.n_users() as u32 {
            for &i in ds.val_items(u).iter().chain(ds.test_items(u)) {
                assert!(
                    !ds.train_items(u).is_empty(),
                    "cold user {u} in heldout: {case}"
                );
                assert!(
                    item_in_train[i as usize],
                    "cold item {i} in heldout: {case}"
                );
                assert!(
                    !ds.is_train_interaction(u, i),
                    "train pair ({u},{i}) leaked into heldout: {case}"
                );
                assert!(all_pairs.contains(&(u, i)), "{case}");
            }
        }
    }
}

/// Split fractions respect the requested ratios up to rounding.
#[test]
fn split_fractions() {
    let mut g = SplitMix64::new(0xda7a_0002);
    for _ in 0..CASES {
        let log = log(&mut g);
        let ds = Dataset::chronological_split("p", &log, SplitRatios::default());
        let n = log.len() as f64;
        let train_frac = ds.train().n_edges() as f64 / n;
        // Training takes the first 70% exactly (rounded), before dedup of
        // the graph (dedup_pairs already ran, so edges == interactions).
        assert!(
            (train_frac - 0.7).abs() <= 1.0 / n + 1e-9,
            "train share {train_frac}: {}",
            describe(&log)
        );
    }
}

/// k-core: every surviving user and item meets the threshold, and the
/// result is a fixed point of another k-core pass.
#[test]
fn kcore_postcondition() {
    let mut g = SplitMix64::new(0xda7a_0003);
    for _ in 0..CASES {
        let log = log(&mut g);
        let k = g.random_range(1u32..5);
        let case = format!("k={k}: {}", describe(&log));
        let f = k_core(&log, k);
        for (u, &c) in f.user_counts().iter().enumerate() {
            assert!(c >= k, "user {u} kept with degree {c} < {k}: {case}");
        }
        for (i, &c) in f.item_counts().iter().enumerate() {
            assert!(c >= k, "item {i} kept with degree {c} < {k}: {case}");
        }
        let again = k_core(&f, k);
        assert_eq!(again.len(), f.len(), "k-core not a fixed point: {case}");
    }
}

/// Negative sampling never returns a training item, for any user with
/// spare items.
#[test]
fn negatives_valid() {
    let mut g = SplitMix64::new(0xda7a_0004);
    for _ in 0..CASES {
        let log = log(&mut g);
        let seed = g.random_range(0u64..50);
        let ds = Dataset::chronological_split("p", &log, SplitRatios::default());
        let mut rng = StdRng::seed_from_u64(seed);
        for u in 0..ds.n_users() as u32 {
            if ds.train_items(u).len() >= ds.n_items() {
                continue;
            }
            for _ in 0..5 {
                let j = sample_negative(&ds, u, &mut rng);
                let case = format!("user {u} seed {seed}: {}", describe(&log));
                assert!(!ds.is_train_interaction(u, j), "{case}");
                assert!((j as usize) < ds.n_items(), "{case}");
            }
        }
    }
}

/// The synthetic generator always respects its configured universe and
/// produces strictly increasing timestamps after dedup.
#[test]
fn generator_contract() {
    let mut g = SplitMix64::new(0xda7a_0005);
    for _ in 0..CASES {
        let seed = g.random_range(0u64..200);
        let scale = g.random_range(0.05f64..0.2);
        let case = format!("seed={seed} scale={scale}");
        let cfg = SyntheticConfig::food().scaled(scale);
        let log = cfg.generate(seed);
        assert_eq!(log.n_users(), cfg.n_users, "{case}");
        assert_eq!(log.n_items(), cfg.n_items, "{case}");
        assert!(log.len() <= cfg.n_interactions, "{case}");
        for it in log.interactions() {
            assert!((it.user as usize) < cfg.n_users, "{case}");
            assert!((it.item as usize) < cfg.n_items, "{case}");
        }
        let ts: Vec<i64> = log.interactions().iter().map(|i| i.timestamp).collect();
        assert!(
            ts.windows(2).all(|w| w[0] < w[1]),
            "timestamps must be unique-increasing: {case}"
        );
    }
}
