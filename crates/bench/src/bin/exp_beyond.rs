//! Extension experiment: beyond-accuracy comparison.
//!
//! Accuracy tables can hide popularity bias; this binary compares catalogue
//! coverage, exposure Gini and novelty of the top-20 lists produced by a
//! popularity ranker, LightGCN and LayerGCN — probing whether DegreeDrop's
//! hub pruning diversifies recommendations.
//!
//! ```text
//! cargo run -p lrgcn-bench --release --bin exp_beyond -- [--dataset games] [--epochs N] [--scale F]
//! ```

use lrgcn::data::Dataset;
use lrgcn::eval::beyond::RecAggregate;
use lrgcn::eval::topk::top_k_indices_into;
use lrgcn::eval::{evaluate_ranking, Split};
use lrgcn::models::{LayerGcn, LayerGcnConfig, LightGcn, LightGcnConfig, Recommender};
use lrgcn::train::{train_with_early_stopping, TrainConfig};
use lrgcn_bench::{rule, Args, ExpConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const K: usize = 20;

fn profile(name: &str, ds: &Dataset, mut score: impl FnMut(&[u32]) -> lrgcn::tensor::Matrix) {
    let users = ds.test_users();
    let mut agg = RecAggregate::new();
    let (mut keys, mut ranked) = (Vec::new(), Vec::new());
    for chunk in users.chunks(256) {
        let mut scores = score(chunk);
        for (r, &u) in chunk.iter().enumerate() {
            let row = scores.row_mut(r);
            for &it in ds.train_items(u) {
                row[it as usize] = f32::NEG_INFINITY;
            }
            top_k_indices_into(row, K, &mut keys, &mut ranked);
            agg.push(&ranked);
        }
    }
    let recall = evaluate_ranking(ds, Split::Test, &[K], 256, &mut score).recall(K);
    let degrees = ds.train().item_degrees();
    println!(
        "{:<16} | {:>8.4} | {:>9.4} | {:>8.4} | {:>8.3}",
        name,
        recall,
        agg.catalog_coverage(ds.n_items()),
        agg.exposure_gini(ds.n_items()),
        agg.mean_novelty(&degrees)
    );
}

fn main() {
    let args = Args::from_env();
    let cfg = ExpConfig::parse(&args, 60);
    let ds = cfg.dataset(args.get("dataset").unwrap_or("games"));
    let tc = TrainConfig {
        max_epochs: cfg.max_epochs,
        patience: cfg.patience,
        eval_every: 2,
        criterion_k: 20,
        seed: cfg.seed,
        verbose: cfg.verbose,
        restore_best: true,
        record_diagnostics: false,
        ..Default::default()
    };
    println!("EXTENSION: BEYOND-ACCURACY PROFILE OF TOP-{K} RECOMMENDATIONS ({})", ds.name);
    rule(70);
    println!(
        "{:<16} | {:>8} | {:>9} | {:>8} | {:>8}",
        "Model", "R@20", "Coverage", "Gini", "Novelty"
    );
    rule(70);

    // Popularity ranker: identical list for everyone (up to masking).
    let degrees = ds.train().item_degrees();
    profile("Popularity", &ds, |users| {
        let mut m = lrgcn::tensor::Matrix::zeros(users.len(), ds.n_items());
        for r in 0..users.len() {
            for (i, &d) in degrees.iter().enumerate() {
                m[(r, i)] = d as f32;
            }
        }
        m
    });

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut light = LightGcn::new(&ds, LightGcnConfig::default(), &mut rng);
    train_with_early_stopping(&mut light, &ds, &tc);
    light.refresh(&ds);
    profile("LightGCN", &ds, |users| light.score_users(&ds, users));

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut layer = LayerGcn::new(&ds, LayerGcnConfig::default(), &mut rng);
    train_with_early_stopping(&mut layer, &ds, &tc);
    layer.refresh(&ds);
    profile("LayerGCN (Full)", &ds, |users| layer.score_users(&ds, users));

    rule(70);
    println!(
        "Coverage = fraction of catalogue recommended to anyone; Gini = exposure\n\
         concentration (lower is more even); Novelty = mean -log2(item popularity)."
    );
}
