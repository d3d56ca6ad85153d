//! The live view trims rows, not work: a LayerGCN batch still runs
//! `2·L·nnz·T` SpMM multiply-adds, `L` forward products and their `L`
//! transposes, over the nnz of the full adjacency.
//!
//! Alone in its binary because the `lrgcn-obs` counters are process-wide.

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_graph::EdgePruner;
use lrgcn_models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn_obs::registry::{self, Counter};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn every_batch_runs_the_full_graph_spmm_macs() {
    // A catalogue where most items have no training edge.
    let cfg = SyntheticConfig {
        name: "Cold",
        n_users: 60,
        n_items: 600,
        n_interactions: 700,
        ..SyntheticConfig::yelp()
    };
    let ds = Dataset::chronological_split("cold", &cfg.generate(3), SplitRatios::default());
    let degrees = ds.train().node_degrees();
    assert!(2 * degrees.iter().filter(|&&d| d == 0).count() > degrees.len());
    let nnz = ds.train().norm_adjacency().nnz() as u64;
    let model_cfg = LayerGcnConfig {
        embedding_dim: 16,
        n_layers: 3,
        batch_size: 128,
        pruner: EdgePruner::None,
        ..LayerGcnConfig::default()
    };
    let (layers, dim) = (model_cfg.n_layers as u64, model_cfg.embedding_dim as u64);
    let mut rng = StdRng::seed_from_u64(1);
    let mut model = LayerGcn::new(&ds, model_cfg, &mut rng);
    for epoch in 0..2 {
        let before = registry::get(Counter::SpmmMacs);
        let stats = model.train_epoch(&ds, epoch, &mut rng);
        let macs = registry::get(Counter::SpmmMacs) - before;
        assert!(stats.n_batches > 1, "several batches per epoch");
        assert_eq!(macs, stats.n_batches as u64 * 2 * layers * nnz * dim);
    }
}
