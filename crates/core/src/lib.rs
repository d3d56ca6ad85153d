//! # lrgcn — Layer-refined Graph Convolutional Networks for Recommendation
//!
//! A from-scratch Rust implementation of **LayerGCN** (Zhou, Lin, Liu &
//! Miao, *ICDE 2023*) together with every baseline and substrate the paper
//! depends on. This facade crate re-exports the whole workspace and adds a
//! batteries-included [`LayerGcnRecommender`] pipeline.
//!
//! ## Quickstart
//!
//! ```
//! use lrgcn::prelude::*;
//!
//! // A small synthetic dataset shaped like the paper's Games dataset.
//! let log = SyntheticConfig::games().scaled(0.1).generate(7);
//! let ds = Dataset::chronological_split("games-mini", &log, SplitRatios::default());
//!
//! // Train LayerGCN (with degree-sensitive edge dropout) for a few epochs.
//! let mut rec = LayerGcnRecommender::builder()
//!     .n_layers(4)
//!     .dropout_ratio(0.1)
//!     .max_epochs(5)
//!     .seed(42)
//!     .build(&ds);
//! let outcome = rec.fit(&ds);
//! assert!(outcome.epochs_run >= 1);
//!
//! // Top-5 recommendations for user 0.
//! let top = rec.recommend(&ds, 0, 5);
//! assert_eq!(top.len(), 5);
//! ```
//!
//! ## Crate map
//!
//! * [`graph`] — CSR matrices, bipartite graphs, DegreeDrop/DropEdge, WL test
//! * [`tensor`] — dense autodiff tape, Adam, Xavier init
//! * [`data`] — synthetic generators, chronological splits, samplers
//! * [`eval`] — Recall/NDCG under all-ranking, paired t-test
//! * [`models`] — LayerGCN + the nine baselines of Table II
//! * [`train`] — epoch loop with early stopping
//! * [`obs`] — metrics registry, scoped timers and the JSONL run-log sink

pub use lrgcn_data as data;
pub use lrgcn_eval as eval;
pub use lrgcn_graph as graph;
pub use lrgcn_models as models;
pub use lrgcn_obs as obs;
pub use lrgcn_tensor as tensor;
pub use lrgcn_train as train;

use lrgcn_data::Dataset;
use lrgcn_eval::topk::top_k_indices;
use lrgcn_graph::EdgePruner;
use lrgcn_models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn_train::{train_with_early_stopping, TrainConfig, TrainOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use crate::{LayerGcnBuilder, LayerGcnRecommender};
    pub use lrgcn_data::{Dataset, InteractionLog, SplitRatios, SyntheticConfig};
    pub use lrgcn_eval::{evaluate_ranking, evaluate_ranking_parallel, EvalReport, Split};
    pub use lrgcn_graph::{BipartiteGraph, EdgePruner};
    pub use lrgcn_models::{
        BprMf, LayerGcn, LayerGcnConfig, LightGcn, LightGcnConfig, ModelKind, Recommender,
    };
    pub use lrgcn_train::{TrainConfig, TrainOutcome};
}

/// Builder for [`LayerGcnRecommender`].
#[derive(Clone, Debug, Default)]
pub struct LayerGcnBuilder {
    model: LayerGcnConfig,
    train: TrainConfig,
}

impl LayerGcnBuilder {
    /// Embedding size `T` (paper: 64).
    pub fn embedding_dim(mut self, dim: usize) -> Self {
        self.model.embedding_dim = dim;
        self
    }

    /// Number of propagation layers `L` (paper: fixed at 4).
    pub fn n_layers(mut self, layers: usize) -> Self {
        self.model.n_layers = layers;
        self
    }

    /// Degree-sensitive dropout ratio; `0.0` disables pruning.
    pub fn dropout_ratio(mut self, ratio: f32) -> Self {
        self.model.pruner = if ratio > 0.0 {
            EdgePruner::DegreeDrop { ratio }
        } else {
            EdgePruner::None
        };
        self
    }

    /// Full pruning policy (DegreeDrop / DropEdge / Mixed / None).
    pub fn pruner(mut self, pruner: EdgePruner) -> Self {
        self.model.pruner = pruner;
        self
    }

    /// L2 regularization coefficient λ (Eq. 12).
    pub fn lambda(mut self, lambda: f32) -> Self {
        self.model.lambda = lambda;
        self
    }

    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.model.learning_rate = lr;
        self
    }

    pub fn batch_size(mut self, bs: usize) -> Self {
        self.model.batch_size = bs;
        self
    }

    pub fn max_epochs(mut self, epochs: usize) -> Self {
        self.train.max_epochs = epochs;
        self
    }

    /// Early-stopping patience in validation rounds.
    pub fn patience(mut self, patience: usize) -> Self {
        self.train.patience = patience;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.train.seed = seed;
        self
    }

    /// Print a progress line per validation round.
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.train.verbose = verbose;
        self
    }

    /// Constructs the recommender (untrained) for `ds`.
    pub fn build(self, ds: &Dataset) -> LayerGcnRecommender {
        let mut rng = StdRng::seed_from_u64(self.train.seed);
        let model = LayerGcn::new(ds, self.model, &mut rng);
        LayerGcnRecommender {
            model,
            train_cfg: self.train,
            fitted: false,
        }
    }
}

/// A ready-to-use LayerGCN pipeline: construct via
/// [`LayerGcnRecommender::builder`], call [`LayerGcnRecommender::fit`], then
/// [`LayerGcnRecommender::recommend`].
pub struct LayerGcnRecommender {
    model: LayerGcn,
    train_cfg: TrainConfig,
    fitted: bool,
}

impl LayerGcnRecommender {
    pub fn builder() -> LayerGcnBuilder {
        LayerGcnBuilder::default()
    }

    /// Trains with early stopping on the validation split.
    pub fn fit(&mut self, ds: &Dataset) -> TrainOutcome {
        let outcome = train_with_early_stopping(&mut self.model, ds, &self.train_cfg);
        self.model.refresh(ds);
        self.fitted = true;
        outcome
    }

    /// Top-K item recommendations for a user, excluding training items.
    ///
    /// # Panics
    /// Panics if called before [`LayerGcnRecommender::fit`].
    pub fn recommend(&self, ds: &Dataset, user: u32, k: usize) -> Vec<u32> {
        assert!(self.fitted, "call fit() before recommend()");
        let mut scores = self.model.score_users(ds, &[user]);
        let row = scores.row_mut(0);
        for &it in ds.train_items(user) {
            row[it as usize] = f32::NEG_INFINITY;
        }
        top_k_indices(row, k)
    }

    /// Checkpoints the trained parameters to a file.
    pub fn save(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), lrgcn_tensor::io::IoError> {
        self.model.save(path)
    }

    /// Restores parameters from a checkpoint written by
    /// [`LayerGcnRecommender::save`] and marks the recommender as fitted.
    pub fn load(
        &mut self,
        ds: &Dataset,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), lrgcn_tensor::io::IoError> {
        self.model.load(path)?;
        self.model.refresh(ds);
        self.fitted = true;
        Ok(())
    }

    /// The underlying model, for evaluation or diagnostics.
    pub fn model(&self) -> &LayerGcn {
        &self.model
    }

    /// Mutable access to the underlying model.
    pub fn model_mut(&mut self) -> &mut LayerGcn {
        &mut self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrgcn_data::{SplitRatios, SyntheticConfig};

    fn ds() -> Dataset {
        let log = SyntheticConfig::games().scaled(0.1).generate(3);
        Dataset::chronological_split("t", &log, SplitRatios::default())
    }

    #[test]
    fn builder_pipeline_end_to_end() {
        let d = ds();
        let mut rec = LayerGcnRecommender::builder()
            .n_layers(3)
            .dropout_ratio(0.1)
            .max_epochs(4)
            .patience(100)
            .seed(1)
            .build(&d);
        let out = rec.fit(&d);
        assert_eq!(out.epochs_run, 4);
        let top = rec.recommend(&d, 0, 10);
        assert_eq!(top.len(), 10);
        // No training items may be recommended.
        for it in &top {
            assert!(!d.is_train_interaction(0, *it));
        }
        // No duplicates.
        let mut sorted = top.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), top.len());
    }

    #[test]
    #[should_panic(expected = "call fit()")]
    fn recommend_before_fit_panics() {
        let d = ds();
        let rec = LayerGcnRecommender::builder().build(&d);
        let _ = rec.recommend(&d, 0, 5);
    }

    #[test]
    fn dropout_zero_maps_to_none_pruner() {
        let b = LayerGcnBuilder::default().dropout_ratio(0.0);
        assert_eq!(b.model.pruner, EdgePruner::None);
        let b2 = LayerGcnBuilder::default().dropout_ratio(0.2);
        assert_eq!(b2.model.pruner, EdgePruner::DegreeDrop { ratio: 0.2 });
    }
}
