//! The work counts behind the paper's cost claim (§IV-C): at equal depth a
//! LayerGCN batch propagates exactly what a LightGCN batch propagates (the
//! refinement adds no SpMM), and a LayerGCN batch makes a pinned number of
//! matrix allocations. The counts are exact, so they hold on any box and
//! any `LRGCN_KERNEL` × `LRGCN_THREADS`.
//!
//! Alone in its binary because the `lrgcn-obs` counters are process-wide.

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_graph::EdgePruner;
use lrgcn_models::{EgoGcn, LayerGcnConfig, LightGcnConfig, Recommender};
use lrgcn_obs::registry::{self, Counter};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One batch covers the whole training set.
const ONE_BATCH: usize = 1 << 20;

/// `SpmmMacs` and `MatrixAllocs` of the second single-batch epoch (the
/// first builds the full adjacency's cached live view).
fn second_epoch_counts(model: &mut EgoGcn, ds: &Dataset) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(9);
    model.train_epoch(ds, 0, &mut rng);
    let (macs, allocs) = (
        registry::get(Counter::SpmmMacs),
        registry::get(Counter::MatrixAllocs),
    );
    model.train_epoch(ds, 1, &mut rng);
    (
        registry::get(Counter::SpmmMacs) - macs,
        registry::get(Counter::MatrixAllocs) - allocs,
    )
}

#[test]
fn layergcn_batch_propagates_like_lightgcn_and_allocates_a_pinned_count() {
    let cfg = SyntheticConfig {
        name: "Counts",
        n_users: 60,
        n_items: 40,
        n_interactions: 700,
        ..SyntheticConfig::yelp()
    };
    let ds = Dataset::chronological_split("counts", &cfg.generate(3), SplitRatios::default());
    let (dim, n_layers) = (16, 3);
    let build = |c: LayerGcnConfig| EgoGcn::new(&ds, c, &mut StdRng::seed_from_u64(1));
    let layer_cfg = LayerGcnConfig {
        embedding_dim: dim,
        n_layers,
        batch_size: ONE_BATCH,
        ..LayerGcnConfig::default()
    };

    let mut without = build(LayerGcnConfig {
        pruner: EdgePruner::None,
        ..layer_cfg.clone()
    });
    let mut light = EgoGcn::new(
        &ds,
        LightGcnConfig {
            embedding_dim: dim,
            n_layers,
            batch_size: ONE_BATCH,
            ..LightGcnConfig::default()
        },
        &mut StdRng::seed_from_u64(1),
    );
    let (without_macs, _) = second_epoch_counts(&mut without, &ds);
    let (light_macs, _) = second_epoch_counts(&mut light, &ds);
    assert!(light_macs > 0);
    assert_eq!(without_macs, light_macs, "SpMM MACs at L = {n_layers}");

    let mut full = build(layer_cfg);
    let (_, allocs) = second_epoch_counts(&mut full, &ds);
    assert_eq!(allocs, 67, "matrix allocations of one LayerGCN batch");
}
