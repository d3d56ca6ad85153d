//! LayerGCN's evaluation scores only the live item rows when the all-zero
//! ones are the majority: one `refresh` plus one ranking produces
//! `test_users × live_items` matmul cells on a cold catalogue, and the
//! dense `test_users × n_items` where most items are live.
//!
//! Alone in its binary because the `lrgcn-obs` counters are process-wide.

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_eval::{evaluate_ranking, Split};
use lrgcn_models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn_obs::registry::{self, Counter};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn evaluation_scores_the_live_items_of_a_cold_catalogue() {
    for (n_items, zero_majority) in [(600, true), (40, false)] {
        let cfg = SyntheticConfig {
            name: "Cold",
            n_users: 60,
            n_items,
            n_interactions: 700,
            ..SyntheticConfig::yelp()
        };
        let ds = Dataset::chronological_split("cold", &cfg.generate(3), SplitRatios::default());
        let model_cfg = LayerGcnConfig {
            embedding_dim: 16,
            n_layers: 3,
            ..LayerGcnConfig::default()
        };
        let mut model = LayerGcn::new(&ds, model_cfg, &mut StdRng::seed_from_u64(1));
        let n_users = ds.n_users();
        let final_emb = model.final_embeddings();
        let live = (n_users..final_emb.rows())
            .filter(|&r| final_emb.row(r).iter().any(|&x| x != 0.0))
            .count();
        let edgeless = ds.train().node_degrees()[n_users..]
            .iter()
            .filter(|&&d| d == 0)
            .count();
        assert!(
            edgeless > 0,
            "{n_items} items: the fixture has edgeless items"
        );
        assert!(!ds.test_users().is_empty());
        assert_eq!(
            2 * live < ds.n_items(),
            zero_majority,
            "{n_items} items: {live} live"
        );

        let before = registry::get(Counter::MatmulCells);
        model.refresh(&ds);
        evaluate_ranking(&ds, Split::Test, &[20], 16, &mut |users| {
            model.score_users(&ds, users)
        });
        let cells = registry::get(Counter::MatmulCells) - before;
        let scored = if zero_majority { live } else { ds.n_items() };
        assert_eq!(
            cells,
            (ds.test_users().len() * scored) as u64,
            "{n_items} items"
        );
    }
}
