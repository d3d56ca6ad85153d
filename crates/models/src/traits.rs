//! The common interface every recommendation model implements.

use lrgcn_data::Dataset;
use lrgcn_tensor::Matrix;
use rand::rngs::StdRng;

/// Statistics reported by one training epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochStats {
    /// Mean training loss over the epoch's batches.
    pub loss: f64,
    pub n_batches: usize,
}

/// Per-epoch model-health diagnostics exposed through
/// [`Recommender::diagnostics`].
///
/// These are the quantities behind the paper's over-smoothing analysis
/// (Figs. 1 and 5): consecutive-layer smoothness rising toward 1 means the
/// propagation is collapsing node embeddings, while gradient and embedding
/// norms catch ordinary training sickness. All values are computed
/// read-only — calling `diagnostics` never perturbs training state — and
/// serially, so they are bitwise identical across thread counts.
#[derive(Clone, Debug, Default)]
pub struct ModelDiagnostics {
    /// Mean row-cosine between consecutive propagation layers
    /// (`cos(X^l, X^{l+1})` for `l = 0..L-1`); empty for non-layered models.
    pub smoothness: Vec<f64>,
    /// Mean L2 norm over the rows of the primary embedding table.
    pub embedding_l2: f64,
    /// Global gradient L2 norm accumulated over the most recent
    /// `train_epoch` (the L2 norm of all per-batch gradients concatenated);
    /// `None` before the first epoch or for gradient-free models.
    pub grad_norm: Option<f64>,
    /// Per-parameter-group gradient norms, `(group name, norm)`, same
    /// accumulation as `grad_norm`.
    pub grad_groups: Vec<(String, f64)>,
    /// Model-specific per-layer weighting: LayerGCN reports each refined
    /// layer's mean cosine-to-ego (the Fig. 5 quantity), the learnable
    /// LightGCN variant its softmax readout weights, mean-readout models a
    /// uniform vector. Empty when the readout has no per-layer weighting.
    pub layer_weights: Vec<f64>,
}

impl ModelDiagnostics {
    /// Global gradient norm from per-group norms: `sqrt(Σ g²)`, `None`
    /// when `groups` is empty (no gradient information yet).
    pub fn grad_norm_of(groups: &[(String, f64)]) -> Option<f64> {
        if groups.is_empty() {
            None
        } else {
            Some(groups.iter().map(|(_, g)| g * g).sum::<f64>().sqrt())
        }
    }
}

/// Optimizer state captured for exact training resume: together with the
/// parameter values ([`Recommender::checkpoint_entries`]) and the trainer's
/// own RNG/epoch bookkeeping, this is everything needed to continue a run
/// bitwise-identically to one that was never interrupted.
#[derive(Clone, Debug)]
pub struct OptimState {
    /// Completed optimizer steps (Adam's bias-correction timestep `t`).
    pub step: u64,
    /// Current learning rate (may differ from the configured one after
    /// divergence recovery halved it).
    pub lr: f32,
    /// Per-parameter Adam moments, `(group name, m, v)`. Group names match
    /// the model's checkpoint entry names.
    pub moments: Vec<(String, Matrix, Matrix)>,
}

/// A trainable top-K recommender.
///
/// Protocol: the trainer alternates [`Recommender::train_epoch`] calls with
/// evaluation rounds; before each evaluation round it calls
/// [`Recommender::refresh`] exactly once so models can (re)compute their
/// inference-time representations (e.g. propagation over the *full*
/// normalized adjacency, per §III-B1), after which
/// [`Recommender::score_users`] must be cheap and side-effect free.
///
/// `Sync` is a supertrait so the ranking evaluator can call
/// [`Recommender::score_users`] (which takes `&self`) concurrently from its
/// worker threads.
pub trait Recommender: Sync {
    /// Model name as used in the paper's tables.
    fn name(&self) -> String;

    /// Runs one epoch of training and returns the mean batch loss.
    fn train_epoch(&mut self, ds: &Dataset, epoch: usize, rng: &mut StdRng) -> EpochStats;

    /// Recomputes any cached inference state from current parameters.
    fn refresh(&mut self, ds: &Dataset);

    /// Scores all items for each user: returns `(users.len(), n_items)`.
    /// Training items need not be masked (the evaluator masks them).
    fn score_users(&self, ds: &Dataset, users: &[u32]) -> Matrix;

    /// Total number of learnable scalars (for reporting).
    fn n_parameters(&self) -> usize;

    /// Copies the learnable parameters out, if the model supports in-memory
    /// snapshots (used by the trainer's best-epoch restoration). The default
    /// is unsupported (`None`). A model that supports it forwards to its
    /// `Params::snapshot`, which copies every declared parameter.
    fn snapshot(&self) -> Option<Vec<Matrix>> {
        None
    }

    /// Restores parameters captured by [`Recommender::snapshot`], through
    /// `Params::restore`.
    ///
    /// # Panics
    /// Implementations panic on a shape/arity mismatch; the default panics
    /// unconditionally (snapshots unsupported).
    fn restore(&mut self, _params: Vec<Matrix>) {
        panic!("{} does not support parameter snapshots", self.name());
    }

    /// The learnable parameters as named entries of the stable on-disk
    /// checkpoint format (see `lrgcn_tensor::io`), or `None` for models
    /// without a stable format. Entry names are part of the format: they
    /// must stay readable by [`Recommender::load_checkpoint_entries`]
    /// across versions: `Params::entries` names them after the declared
    /// parameters.
    fn checkpoint_entries(&self) -> Option<Vec<(String, Matrix)>> {
        None
    }

    /// Restores parameters from entries produced by
    /// [`Recommender::checkpoint_entries`] (extra entries, e.g. the
    /// `__model__:` tag, are ignored). Implementations must validate
    /// shapes, refuse another family's tag and invalidate any cached
    /// inference state; `Params::load_entries` does the first two. The
    /// default rejects: the model has no stable checkpoint format.
    fn load_checkpoint_entries(&mut self, _entries: &[(String, Matrix)]) -> Result<(), String> {
        Err(format!("{} has no stable checkpoint format", self.name()))
    }

    /// Copies out the optimizer state (Adam step counter, learning rate,
    /// per-parameter moments) for a training-resume checkpoint, or `None`
    /// when the model cannot support exact resume. Models that implement
    /// [`Recommender::checkpoint_entries`] should implement this too —
    /// without the moments a resumed run diverges from the uninterrupted
    /// trajectory on the first post-resume step. `Params::optim_state`
    /// derives it from the declared parameters.
    fn optim_state(&self) -> Option<OptimState> {
        None
    }

    /// Restores optimizer state captured by [`Recommender::optim_state`].
    /// Call *after* [`Recommender::load_checkpoint_entries`]: restoring
    /// parameter values may reset moments, and moment shapes are validated
    /// against the current parameters by `Params::load_optim_state`. The
    /// default rejects.
    fn load_optim_state(&mut self, _state: &OptimState) -> Result<(), String> {
        Err(format!("{} does not support optimizer-state resume", self.name()))
    }

    /// Overrides the learning rate for subsequent epochs (used by the
    /// trainer's divergence recovery to halve it after a rollback, through
    /// `Params::set_learning_rate`). Returns `false` when the model does
    /// not support it.
    fn set_learning_rate(&mut self, _lr: f32) -> bool {
        false
    }

    /// Basis for streaming fold-in (see [`crate::foldin::FoldInBasis`]):
    /// the frozen-graph prefix sums and refinement weights from which the
    /// serving layer synthesizes embedding rows for users/items that
    /// arrived after training. The default is `None`: models whose
    /// readout is not a per-layer sum over a fixed propagation (or that
    /// have no stable checkpoint) opt out, and serving falls back to
    /// logging events without synthesizing rows.
    fn fold_in_basis(&self, _ds: &Dataset) -> Option<crate::foldin::FoldInBasis> {
        None
    }

    /// Model-health diagnostics for the current parameters (see
    /// [`ModelDiagnostics`]). The default is `None`: models without a
    /// layered propagation structure (or where the probes would be
    /// meaningless) opt out, and the trainer emits a schema-complete empty
    /// record in their place. Implementations must be read-only and cheap
    /// relative to an epoch — the trainer calls this once per validated
    /// epoch.
    fn diagnostics(&self, _ds: &Dataset) -> Option<ModelDiagnostics> {
        None
    }
}
