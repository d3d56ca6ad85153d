//! One ego-table GCN for LayerGCN, LightGCN and LR-GCCF.
//!
//! The three models share a learned ego table `X^0` (Xavier init, Adam,
//! BPR + L2 on the batch's ego rows, Eq. 11–12) propagated `L` times over
//! the normalized adjacency `Â`. A [`Propagation`] picks the rest:
//!
//! | variant | layer step | readout | model |
//! |---|---|---|---|
//! | [`Propagation::Light`] | `X^{l+1} = Â X^l` | mean over `0..=L` | LightGCN (Eq. 2) |
//! | [`Propagation::ResidualConcat`] | `X^{l+1} = Â X^l + X^l` | concat over `0..=L` | LR-GCCF |
//! | [`Propagation::Refined`] | Eq. 6–8 | sum over `1..=L` (Eq. 9) | LayerGCN |
//!
//! LayerGCN (§III-B) rescales each propagated layer per node by its cosine
//! similarity to the ego layer, `X^{l+1} ← (Sim(X^{l+1}, X^0) + ε) ⊙
//! X^{l+1}`, and feeds the *refined* layer to the next hop. Each training
//! epoch propagates over an adjacency `Â_p` pruned by the configured
//! [`EdgePruner`] (Eq. 5); inference uses the full `Â`. A training step
//! computes only the rows its loss can reach: the epoch's nodes with an
//! edge plus the batch's own ids, bitwise what the full graph gives them
//! ([`LiveView`]). LayerGCN's evaluation cache is computed on the full
//! adjacency's live view too, and scored from its live item rows
//! ([`ItemTable`]).
//! [`LayerGcnConfig`], [`LightGcnConfig`] and [`LrGccfConfig`] stay the
//! public way to configure each model.

use crate::common::{
    batch_node_indices, bpr_loss_at, consecutive_smoothness, full_adjacency, mean_readout,
    sum_readout, SharedIndices,
};
use crate::live_items::ItemTable;
use crate::params::Params;
use crate::traits::{EpochStats, ModelDiagnostics, OptimState, Recommender};
use lrgcn_data::{BprBatch, BprEpoch, Dataset};
use lrgcn_graph::{Csr, EdgePruner};
use lrgcn_tensor::io::IoError;
use lrgcn_tensor::tape::{SharedCsr, Tape, Var};
use lrgcn_tensor::{init, Matrix};
use rand::rngs::StdRng;
use std::rc::Rc;

/// The ego table `X^0`, the one parameter group.
const EGO: usize = 0;

/// The layer step and readout that tell the family's models apart.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Propagation {
    /// LightGCN: `Â`, mean readout over layers `0..=L`.
    Light,
    /// LR-GCCF: `Â + I`, concatenation readout over layers `0..=L`.
    ResidualConcat,
    /// LayerGCN: the refinement of Eq. 6–8, sum readout over `1..=L`.
    Refined {
        /// ε added to the similarity in Eq. 6 (prevents zero vectors).
        epsilon: f32,
        /// ε clamp inside the cosine of Eq. 8.
        cosine_eps: f32,
    },
}

impl Propagation {
    /// The family tag written into checkpoints (see `crate::checkpoint`).
    pub fn tag(&self) -> &'static str {
        match self {
            Propagation::Light => "lightgcn",
            Propagation::ResidualConcat => "lrgccf",
            Propagation::Refined { .. } => "layergcn",
        }
    }

    /// Stacks `n_layers` steps on the tape. Returns the chain
    /// `[X^0, X^1, ..., X^L]` (refined layers for `Refined`) and, for
    /// `Refined` only, each layer's per-node `Sim(X^l, X^0)` (Eq. 8).
    pub fn chain(
        &self,
        tape: &mut Tape,
        adj: &SharedCsr,
        x0: Var,
        n_layers: usize,
    ) -> (Vec<Var>, Vec<Var>) {
        let mut layers = Vec::with_capacity(n_layers + 1);
        layers.push(x0);
        let sims = match *self {
            Propagation::Refined {
                epsilon,
                cosine_eps,
            } => {
                let (refined, sims) = refined_chain(tape, adj, x0, n_layers, epsilon, cosine_eps);
                layers.extend(refined);
                sims
            }
            Propagation::Light | Propagation::ResidualConcat => {
                let mut h = x0;
                for _ in 0..n_layers {
                    let prop = tape.spmm(adj, h);
                    h = match self {
                        Propagation::ResidualConcat => tape.add(prop, h),
                        _ => prop,
                    };
                    layers.push(h);
                }
                Vec::new()
            }
        };
        (layers, sims)
    }

    /// The final node representation from a [`Propagation::chain`].
    pub fn readout(&self, tape: &mut Tape, layers: &[Var]) -> Var {
        match self {
            Propagation::Light => mean_readout(tape, layers),
            Propagation::ResidualConcat => tape.concat_cols(layers),
            Propagation::Refined { .. } => sum_readout(tape, &layers[1..]),
        }
    }
}

/// Builds the refined layer chain on a tape; returns the refined layers
/// `[X^1', ..., X^L']` (ego excluded) and the per-layer similarity nodes
/// (constants: the loss reaches `Sim` only through the refined layers).
/// Each layer is one `spmm` and one fused [`Tape::refine`].
pub fn refined_chain(
    tape: &mut Tape,
    adj: &SharedCsr,
    x0: Var,
    n_layers: usize,
    epsilon: f32,
    cosine_eps: f32,
) -> (Vec<Var>, Vec<Var>) {
    let mut layers = Vec::with_capacity(n_layers);
    let mut sims = Vec::with_capacity(n_layers);
    let mut h = x0;
    for _ in 0..n_layers {
        let prop = tape.spmm(adj, h);
        let (refined, sim) = tape.refine(prop, x0, epsilon, cosine_eps);
        layers.push(refined);
        sims.push(sim);
        h = refined;
    }
    (layers, sims)
}

/// The view row of a node with no edge.
const NO_ROW: u32 = u32::MAX;

/// One epoch's adjacency over the nodes that have an edge in it, relabelled
/// in ascending id order. A CSR row keeps its values and its column order,
/// so each live row's SpMM sum is bitwise the full graph's; the nnz is the
/// same. A training step needs no other rows except the batch's own
/// edgeless ids, which [`LiveView::batch`] appends (DESIGN.md, "Live
/// view").
struct LiveView {
    adj: SharedCsr,
    /// The node of each view row, ascending.
    ids: Vec<u32>,
    /// The view row of each node, or [`NO_ROW`].
    row_of: Vec<u32>,
}

/// One batch's rows: the live view plus the batch's edgeless ids, appended
/// as empty rows so their layers are what the full graph gives them.
struct BatchView {
    adj: SharedCsr,
    /// The node of each row; `X^0` is gathered by it.
    ids: SharedIndices,
    /// The batch's users, positives and negatives as rows of the view.
    rows: (SharedIndices, SharedIndices, SharedIndices),
}

impl LiveView {
    fn new(adj: &SharedCsr) -> Self {
        let m = adj.matrix();
        let mut live: Vec<bool> = (0..m.n_rows()).map(|r| m.row_nnz(r) > 0).collect();
        for &c in m.indices() {
            live[c as usize] = true;
        }
        let ids: Vec<u32> = (0..m.n_rows() as u32)
            .filter(|&v| live[v as usize])
            .collect();
        let mut row_of = vec![NO_ROW; m.n_rows()];
        for (k, &v) in ids.iter().enumerate() {
            row_of[v as usize] = k as u32;
        }
        let adj = adj.map(|m| restrict(m, &ids, &row_of));
        Self { adj, ids, row_of }
    }

    /// The rows `batch` reads: the live view, then each of the batch's
    /// edgeless nodes once, in order of first appearance.
    fn batch(&mut self, batch: &BprBatch, n_users: usize) -> BatchView {
        let (users, pos, neg) = batch_node_indices(batch, n_users);
        let mut ids = self.ids.clone();
        let rows = (
            self.rows_of(&users, &mut ids),
            self.rows_of(&pos, &mut ids),
            self.rows_of(&neg, &mut ids),
        );
        let extra = ids.len() - self.ids.len();
        for &v in &ids[self.ids.len()..] {
            self.row_of[v as usize] = NO_ROW;
        }
        let adj = match extra {
            0 => self.adj.clone(),
            _ => self.adj.map(|m| m.with_empty_rows(extra)),
        };
        BatchView {
            adj,
            ids: Rc::new(ids),
            rows,
        }
    }

    /// The view rows of `nodes`; an edgeless node gets the next row of
    /// `ids` the first time it is seen.
    fn rows_of(&mut self, nodes: &[u32], ids: &mut Vec<u32>) -> SharedIndices {
        let rows = nodes
            .iter()
            .map(|&v| {
                let row = &mut self.row_of[v as usize];
                if *row == NO_ROW {
                    *row = ids.len() as u32;
                    ids.push(v);
                }
                *row
            })
            .collect();
        Rc::new(rows)
    }
}

/// Rows and columns `ids` of `m`, renumbered by `row_of`. Every column of a
/// kept row must be kept; ascending `ids` keep each row's column order.
fn restrict(m: &Csr, ids: &[u32], row_of: &[u32]) -> Csr {
    let mut indptr = Vec::with_capacity(ids.len() + 1);
    let mut indices = Vec::with_capacity(m.nnz());
    let mut values = Vec::with_capacity(m.nnz());
    indptr.push(0);
    for &v in ids {
        for (c, x) in m.row(v as usize) {
            indices.push(row_of[c as usize]);
            values.push(x);
        }
        indptr.push(indices.len());
    }
    Csr::from_parts(ids.len(), ids.len(), indptr, indices, values)
        .expect("a monotone relabelling keeps the CSR invariants")
}

/// Hyper-parameters of an [`EgoGcn`]; build one from a family config.
#[derive(Clone, Debug)]
pub struct EgoGcnConfig {
    pub embedding_dim: usize,
    pub n_layers: usize,
    pub learning_rate: f32,
    /// L2 coefficient λ of Eq. 12.
    pub lambda: f32,
    pub batch_size: usize,
    /// Per-epoch edge pruning (§III-B1); `None` trains on the full `Â`.
    pub pruner: EdgePruner,
    pub propagation: Propagation,
}

/// Hyper-parameters for [`LayerGcn`].
#[derive(Clone, Debug)]
pub struct LayerGcnConfig {
    pub embedding_dim: usize,
    /// Fixed at 4 in all of the paper's headline experiments.
    pub n_layers: usize,
    pub learning_rate: f32,
    /// L2 coefficient λ of Eq. 12 (paper tunes in {1e-2 … 1e-5}).
    pub lambda: f32,
    pub batch_size: usize,
    /// Edge pruning policy (§III-B1); ratio tuned in {0.0, 0.1, 0.2}.
    pub pruner: EdgePruner,
    /// ε added to the similarity in Eq. 6 (prevents zero vectors).
    pub epsilon: f32,
    /// ε clamp inside the cosine of Eq. 8.
    pub cosine_eps: f32,
}

impl Default for LayerGcnConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 64,
            n_layers: 4,
            learning_rate: 1e-3,
            lambda: 1e-3,
            batch_size: 2048,
            pruner: EdgePruner::DegreeDrop { ratio: 0.1 },
            epsilon: 1e-8,
            cosine_eps: 1e-8,
        }
    }
}

impl LayerGcnConfig {
    /// The "LayerGCN (w/o Dropout)" variant of Table II.
    pub fn without_dropout() -> Self {
        Self {
            pruner: EdgePruner::None,
            ..Self::default()
        }
    }
}

impl From<LayerGcnConfig> for EgoGcnConfig {
    fn from(c: LayerGcnConfig) -> Self {
        Self {
            embedding_dim: c.embedding_dim,
            n_layers: c.n_layers,
            learning_rate: c.learning_rate,
            lambda: c.lambda,
            batch_size: c.batch_size,
            pruner: c.pruner,
            propagation: Propagation::Refined {
                epsilon: c.epsilon,
                cosine_eps: c.cosine_eps,
            },
        }
    }
}

/// Hyper-parameters for [`LightGcn`] / [`crate::WeightedLightGcn`].
#[derive(Clone, Debug)]
pub struct LightGcnConfig {
    pub embedding_dim: usize,
    pub n_layers: usize,
    pub learning_rate: f32,
    pub lambda: f32,
    pub batch_size: usize,
}

impl Default for LightGcnConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 64,
            n_layers: 4,
            learning_rate: 1e-3,
            lambda: 1e-4,
            batch_size: 2048,
        }
    }
}

impl From<LightGcnConfig> for EgoGcnConfig {
    fn from(c: LightGcnConfig) -> Self {
        Self {
            embedding_dim: c.embedding_dim,
            n_layers: c.n_layers,
            learning_rate: c.learning_rate,
            lambda: c.lambda,
            batch_size: c.batch_size,
            pruner: EdgePruner::None,
            propagation: Propagation::Light,
        }
    }
}

/// Hyper-parameters for [`LrGccf`].
#[derive(Clone, Debug)]
pub struct LrGccfConfig {
    pub embedding_dim: usize,
    pub n_layers: usize,
    pub learning_rate: f32,
    pub lambda: f32,
    pub batch_size: usize,
}

impl Default for LrGccfConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 64,
            n_layers: 3,
            learning_rate: 1e-3,
            lambda: 1e-4,
            batch_size: 2048,
        }
    }
}

impl From<LrGccfConfig> for EgoGcnConfig {
    fn from(c: LrGccfConfig) -> Self {
        Self {
            embedding_dim: c.embedding_dim,
            n_layers: c.n_layers,
            learning_rate: c.learning_rate,
            lambda: c.lambda,
            batch_size: c.batch_size,
            pruner: EdgePruner::None,
            propagation: Propagation::ResidualConcat,
        }
    }
}

/// The layer-refined GCN recommender (the paper's contribution).
pub type LayerGcn = EgoGcn;
/// LightGCN: linear propagation with a mean readout.
pub type LightGcn = EgoGcn;
/// LR-GCCF: residual propagation with a concatenation readout.
pub type LrGccf = EgoGcn;

/// An ego embedding table propagated by a [`Propagation`].
pub struct EgoGcn {
    cfg: EgoGcnConfig,
    /// The ego table, entry `"ego"`.
    params: Params,
    /// Full normalized adjacency (inference).
    adj_full: SharedCsr,
    /// `adj_full`'s live view: the unpruned epochs' and LayerGCN's
    /// evaluation cache's rows. Built on first use, so a model loaded only
    /// to serve never builds it.
    live_full: Option<LiveView>,
    /// Cached inference embeddings (users first), refreshed by `refresh`.
    inference: Option<ItemTable>,
}

impl EgoGcn {
    pub fn new(ds: &Dataset, cfg: impl Into<EgoGcnConfig>, rng: &mut StdRng) -> Self {
        let cfg = cfg.into();
        cfg.pruner
            .validate()
            .unwrap_or_else(|e| panic!("invalid pruner: {e}"));
        if matches!(cfg.propagation, Propagation::Refined { .. }) {
            assert!(cfg.n_layers >= 1, "LayerGCN needs at least one layer");
        }
        let n = ds.n_users() + ds.n_items();
        let ego = init::xavier_uniform(n, cfg.embedding_dim, rng);
        let params = Params::new(cfg.learning_rate).with("ego", ego);
        let adj_full = full_adjacency(ds);
        Self {
            cfg,
            params,
            adj_full,
            live_full: None,
            inference: None,
        }
    }

    /// The family tag this model writes into and accepts from checkpoints.
    pub fn checkpoint_tag(&self) -> &'static str {
        self.cfg.propagation.tag()
    }

    /// One pass of the chain over the full adjacency, without gradients.
    fn full_chain(&self) -> (Tape, Vec<Var>, Vec<Var>) {
        let mut tape = Tape::new();
        let x0 = tape.constant(self.ego_embeddings().clone());
        let n_layers = self.cfg.n_layers;
        let (layers, sims) = self.cfg.propagation.chain(&mut tape, &self.adj_full, x0, n_layers);
        (tape, layers, sims)
    }

    /// The layer chain `[X^0, X^1, ..., X^L]` under the full adjacency
    /// (refined layers for LayerGCN), for over-smoothing diagnostics.
    pub fn layer_chain(&self) -> Vec<Matrix> {
        let (tape, layers, _) = self.full_chain();
        layers.iter().map(|&l| tape.value(l).clone()).collect()
    }

    /// Mean cosine similarity of each refined layer to the ego layer under
    /// the full adjacency — the quantity plotted in Fig. 5. Empty for the
    /// unrefined variants.
    pub fn layer_similarities(&self) -> Vec<f64> {
        let (tape, _, sims) = self.full_chain();
        sims.iter().map(|&s| tape.value(s).mean() as f64).collect()
    }

    /// Final embeddings under the *full* adjacency: the variant's readout,
    /// as served by the online engine. Computed without gradients.
    pub fn final_embeddings(&self) -> Matrix {
        let (mut tape, layers, _) = self.full_chain();
        let f = self.cfg.propagation.readout(&mut tape, &layers);
        tape.value(f).clone()
    }

    /// [`EgoGcn::final_embeddings`], bit for bit, for the evaluation cache.
    /// LayerGCN's is computed on the full adjacency's live view: its
    /// readout leaves `X^0` out, so an edgeless node's row is an empty SpMM
    /// row times `Sim + ε = ε`, exactly `+0.0`. That holds while `X^0` is
    /// finite, `ε >= 0` and the cosine's clamp is positive; otherwise, and
    /// for the readouts that keep `X^0`, the full chain runs (DESIGN.md,
    /// "Live view").
    fn inference_table(&mut self) -> Matrix {
        let x0 = self.params.value(EGO);
        let on_view = match self.cfg.propagation {
            Propagation::Refined {
                epsilon,
                cosine_eps,
            } => epsilon >= 0.0 && cosine_eps > 0.0 && !x0.has_non_finite(),
            Propagation::Light | Propagation::ResidualConcat => false,
        };
        if !on_view {
            return self.final_embeddings();
        }
        let adj = &self.adj_full;
        let view = self.live_full.get_or_insert_with(|| LiveView::new(adj));
        let mut tape = Tape::new();
        let x = tape.constant(x0.gather_rows(&view.ids));
        let propagation = self.cfg.propagation;
        let (layers, _) = propagation.chain(&mut tape, &view.adj, x, self.cfg.n_layers);
        let f = propagation.readout(&mut tape, &layers);
        let f = tape.value(f);
        let mut out = Matrix::zeros(x0.rows(), f.cols());
        for (k, &v) in view.ids.iter().enumerate() {
            out.row_mut(v as usize).copy_from_slice(f.row(k));
        }
        out
    }

    /// The ego embedding table (`X^0`).
    pub fn ego_embeddings(&self) -> &Matrix {
        self.params.value(EGO)
    }

    /// Warm-starts this model's ego table from a checkpoint trained on a
    /// *smaller* universe: user rows `0..old_n_users` and item rows
    /// `old_n_users..` of `old_ego` are copied into their (shifted)
    /// positions, and rows for users/items first seen in the stream keep
    /// their fresh initialization. Used by `lrgcn retrain` to fold the
    /// event log in without starting from scratch.
    pub fn warm_start_from(&mut self, old_ego: &Matrix, old_n_users: usize, new_n_users: usize) {
        let dim = self.ego_embeddings().cols();
        assert_eq!(old_ego.cols(), dim, "embedding dim changed across retrain");
        assert!(old_n_users <= old_ego.rows());
        assert!(old_n_users <= new_n_users);
        let old_n_items = old_ego.rows() - old_n_users;
        let new_rows = self.ego_embeddings().rows();
        assert!(new_n_users + old_n_items <= new_rows, "item table shrank");
        let mut ego = self.ego_embeddings().clone();
        for r in 0..old_n_users {
            ego.row_mut(r).copy_from_slice(old_ego.row(r));
        }
        for i in 0..old_n_items {
            ego.row_mut(new_n_users + i)
                .copy_from_slice(old_ego.row(old_n_users + i));
        }
        self.params.set_value(EGO, ego);
        self.inference = None;
    }

    /// Checkpoints the learned parameters (the ego table) to a file,
    /// tagged with the model family (see `crate::checkpoint`).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), IoError> {
        crate::checkpoint::save_entries(path, self.checkpoint_tag(), &self.params.entries())
    }

    /// Restores parameters saved by [`EgoGcn::save`]. The checkpoint's
    /// shape must match the current configuration, and a tagged file must
    /// carry this model's family tag.
    pub fn load(&mut self, path: impl AsRef<std::path::Path>) -> Result<(), IoError> {
        let entries = lrgcn_tensor::io::load_checkpoint(path)?;
        self.load_checkpoint_entries(&entries).map_err(IoError::Corrupt)
    }
}

impl Recommender for EgoGcn {
    fn name(&self) -> String {
        match self.cfg.propagation {
            Propagation::Light => format!("LightGCN-{}L", self.cfg.n_layers),
            Propagation::ResidualConcat => "LR-GCCF".into(),
            Propagation::Refined { .. } => match self.cfg.pruner {
                EdgePruner::None => "LayerGCN (w/o Dropout)".into(),
                EdgePruner::DegreeDrop { .. } => "LayerGCN (Full)".into(),
                EdgePruner::DropEdge { .. } => "LayerGCN (DropEdge)".into(),
                EdgePruner::Mixed { .. } => "LayerGCN (Mixed)".into(),
            },
        }
    }

    fn train_epoch(&mut self, ds: &Dataset, epoch: usize, rng: &mut StdRng) -> EpochStats {
        self.inference = None;
        // Re-sample the pruned adjacency once per epoch (§III-B1).
        let mut pruned;
        let live = match self.cfg.pruner.sample_edges(ds.train(), epoch, rng) {
            Some(edges) => {
                let adj = SharedCsr::new(ds.train().norm_adjacency_of_edges(&edges));
                pruned = LiveView::new(&adj);
                &mut pruned
            }
            None => {
                let adj = &self.adj_full;
                self.live_full.get_or_insert_with(|| LiveView::new(adj))
            }
        };
        let propagation = self.cfg.propagation;
        let batches: Vec<_> = BprEpoch::new(ds, self.cfg.batch_size, rng).collect();
        for batch in batches {
            let view = live.batch(&batch, ds.n_users());
            let mut tape = Tape::new();
            let on = self.params.leaves(&mut tape);
            // The gather is X^0's only consumer, so the table's gradient
            // sums its terms in the full graph's order (DESIGN.md).
            let x0 = tape.gather(on[EGO], view.ids);
            let (layers, _) = propagation.chain(&mut tape, &view.adj, x0, self.cfg.n_layers);
            let final_x = propagation.readout(&mut tape, &layers);
            let loss = bpr_loss_at(&mut tape, final_x, x0, view.rows, self.cfg.lambda);
            self.params.step(&mut tape, loss, &on);
        }
        self.params.end_epoch()
    }

    fn refresh(&mut self, ds: &Dataset) {
        self.inference = Some(ItemTable::new(self.inference_table(), ds.n_users()));
    }

    fn score_users(&self, _ds: &Dataset, users: &[u32]) -> Matrix {
        self.inference
            .as_ref()
            .expect("refresh() must be called before score_users")
            .score_users(users)
    }

    fn n_parameters(&self) -> usize {
        self.params.n_parameters()
    }

    fn snapshot(&self) -> Option<Vec<Matrix>> {
        Some(self.params.snapshot())
    }

    fn restore(&mut self, values: Vec<Matrix>) {
        self.params.restore(values);
        self.inference = None;
    }

    fn checkpoint_entries(&self) -> Option<Vec<(String, Matrix)>> {
        Some(self.params.entries())
    }

    fn load_checkpoint_entries(&mut self, entries: &[(String, Matrix)]) -> Result<(), String> {
        self.params.load_entries(entries, self.checkpoint_tag())?;
        self.inference = None;
        Ok(())
    }

    fn optim_state(&self) -> Option<OptimState> {
        Some(self.params.optim_state())
    }

    fn load_optim_state(&mut self, state: &OptimState) -> Result<(), String> {
        self.params.load_optim_state(state)
    }

    fn set_learning_rate(&mut self, lr: f32) -> bool {
        self.params.set_learning_rate(lr);
        true
    }

    fn fold_in_basis(&self, ds: &Dataset) -> Option<crate::foldin::FoldInBasis> {
        let Propagation::Refined { epsilon, .. } = self.cfg.propagation else {
            return None;
        };
        // One full-adjacency pass gives everything at once: the refined
        // layers for the prefix sums S = X^0 + Σ_{l=1..L-1} X^l' and the
        // per-node refinement similarities for the fold-in weights
        // w̄ = ε + mean_l Sim(X^l, X^0) (Eq. 6–9; see crate::foldin).
        let (tape, layers, sims) = self.full_chain();
        let mut prefix = tape.value(layers[0]).clone();
        for &l in &layers[1..self.cfg.n_layers] {
            prefix.add_assign(tape.value(l));
        }
        let n = prefix.rows();
        let mut weights = vec![epsilon; n];
        for &s in &sims {
            let sv = tape.value(s);
            for (w, &c) in weights.iter_mut().zip(sv.data()) {
                *w += c / sims.len() as f32;
            }
        }
        Some(crate::foldin::FoldInBasis::new(
            prefix,
            ds.train().node_degrees(),
            weights,
            epsilon,
            ds.n_users(),
        ))
    }

    fn diagnostics(&self, _ds: &Dataset) -> Option<ModelDiagnostics> {
        // One pass over the full adjacency: smoothness probes consecutive
        // layers of [X^0, X^1, ..., X^L]; layer_weights reports LayerGCN's
        // per-layer mean cosine-to-ego (the exact quantity of Fig. 5), a
        // uniform vector for the mean readout, and nothing for the
        // concatenation readout.
        let (tape, layers, sims) = self.full_chain();
        let chain: Vec<Matrix> = layers.iter().map(|&l| tape.value(l).clone()).collect();
        let n_chain = chain.len();
        let layer_weights = match self.cfg.propagation {
            Propagation::Refined { .. } => {
                sims.iter().map(|&s| tape.value(s).mean() as f64).collect()
            }
            Propagation::Light => vec![1.0 / n_chain as f64; n_chain],
            Propagation::ResidualConcat => Vec::new(),
        };
        let smoothness = consecutive_smoothness(&chain);
        Some(self.params.diagnostics(smoothness, layer_weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{bpr_loss, propagate_matrix, score_from_final};
    use crate::test_util::{tiny_dataset, train_and_eval};
    use lrgcn_eval::oversmooth::mean_layer_divergence;
    use rand::{RngExt, SeedableRng, SplitMix64};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Every family member, by the config type its callers use.
    fn family() -> Vec<(&'static str, EgoGcnConfig)> {
        vec![
            ("LayerGCN (w/o Dropout)", LayerGcnConfig::without_dropout().into()),
            ("LayerGCN (Full)", LayerGcnConfig::default().into()),
            ("LightGCN", LightGcnConfig::default().into()),
            ("LR-GCCF", LrGccfConfig::default().into()),
        ]
    }

    #[test]
    fn every_variant_beats_random() {
        for (label, cfg) in family() {
            let (r, rand_r) =
                train_and_eval(|ds, rng| Box::new(EgoGcn::new(ds, cfg.clone(), rng)), 25);
            assert!(r > 1.5 * rand_r, "{label} R@20 {r} vs random {rand_r}");
        }
    }

    #[test]
    fn every_variant_loss_decreases() {
        let ds = tiny_dataset(4);
        for (label, cfg) in family() {
            let mut rng = StdRng::seed_from_u64(1);
            let mut m = EgoGcn::new(&ds, cfg, &mut rng);
            let first = m.train_epoch(&ds, 0, &mut rng).loss;
            for e in 1..12 {
                m.train_epoch(&ds, e, &mut rng);
            }
            let last = m.train_epoch(&ds, 12, &mut rng).loss;
            assert!(last < first, "{label}: {first} -> {last}");
        }
    }

    #[test]
    fn final_embeddings_shape_and_finite() {
        let ds = tiny_dataset(4);
        let n = ds.n_users() + ds.n_items();
        for (label, cfg) in family() {
            // Only the concatenation readout widens the table: (L+1) x T.
            let width = match cfg.propagation {
                Propagation::ResidualConcat => (cfg.n_layers + 1) * cfg.embedding_dim,
                _ => cfg.embedding_dim,
            };
            let m = EgoGcn::new(&ds, cfg, &mut StdRng::seed_from_u64(1));
            let f = m.final_embeddings();
            assert_eq!(f.shape(), (n, width), "{label}");
            assert!(!f.has_non_finite(), "{label}");
        }
    }

    #[test]
    fn names_and_tags_follow_the_variant() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let tags: Vec<(String, &str)> = family()
            .into_iter()
            .map(|(_, cfg)| {
                let m = EgoGcn::new(&ds, cfg, &mut rng);
                (m.name(), m.checkpoint_tag())
            })
            .collect();
        let want = [
            ("LayerGCN (w/o Dropout)", "layergcn"),
            ("LayerGCN (Full)", "layergcn"),
            ("LightGCN-4L", "lightgcn"),
            ("LR-GCCF", "lrgccf"),
        ];
        for ((name, tag), (want_name, want_tag)) in tags.iter().zip(want) {
            assert_eq!((name.as_str(), *tag), (want_name, want_tag));
        }
    }

    /// The Light chain is plain `X^{l+1} = Â X^l`, bit for bit what the
    /// serial matrix propagation computes.
    #[test]
    fn light_chain_is_bitwise_the_serial_propagation() {
        let ds = tiny_dataset(4);
        let m = EgoGcn::new(&ds, LightGcnConfig::default(), &mut StdRng::seed_from_u64(1));
        let serial = propagate_matrix(m.adj_full.matrix(), m.ego_embeddings(), 4);
        let chain = m.layer_chain();
        assert_eq!(chain.len(), serial.len());
        for (a, b) in chain.iter().zip(&serial) {
            let bits = |x: &Matrix| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn residual_equals_a_plus_i_propagation() {
        // E^{l+1} = ÂE + E = (Â + I)E: verify on a tiny graph.
        let ds = tiny_dataset(4);
        let cfg = LrGccfConfig {
            n_layers: 1,
            ..Default::default()
        };
        let m = EgoGcn::new(&ds, cfg, &mut StdRng::seed_from_u64(1));
        let v = m.final_embeddings();
        // Width = ego + 1 layer.
        assert_eq!(v.cols(), 64 * 2);
        let x0 = m.ego_embeddings();
        let prop = m.adj_full.matrix().spmm(x0.data(), 64);
        let manual = Matrix::from_vec(x0.rows(), 64, prop).add(x0);
        let mut layer1 = Matrix::zeros(v.rows(), 64);
        for r in 0..v.rows() {
            layer1.row_mut(r).copy_from_slice(&v.row(r)[64..]);
        }
        assert!(layer1.approx_eq(&manual, 1e-5));
        assert!(m.layer_chain()[1].approx_eq(&manual, 1e-5));
    }

    #[test]
    fn layer_similarities_in_range() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = LayerGcn::new(&ds, LayerGcnConfig::default(), &mut rng);
        for e in 0..5 {
            m.train_epoch(&ds, e, &mut rng);
        }
        let sims = m.layer_similarities();
        assert_eq!(sims.len(), 4);
        for s in &sims {
            assert!((-1.0..=1.0).contains(s), "similarity {s} out of range");
        }
        let diag = m.diagnostics(&ds).expect("diagnostics");
        assert_eq!(diag.layer_weights, sims, "diagnostics report the Fig. 5 similarities");
        let light = LightGcn::new(&ds, LightGcnConfig::default(), &mut rng);
        assert!(light.layer_similarities().is_empty());
    }

    /// Proposition 2 in miniature: the refined layer diverges from the ego
    /// layer no more than the unrefined propagation does.
    #[test]
    fn refinement_reduces_divergence_from_ego() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = LayerGcn::new(&ds, LayerGcnConfig::without_dropout(), &mut rng);
        for e in 0..10 {
            m.train_epoch(&ds, e, &mut rng);
        }
        let ego = m.ego_embeddings().clone();
        let refined = m.layer_chain();
        let raw = propagate_matrix(m.adj_full.matrix(), &ego, m.cfg.n_layers);
        // Compare the refinement of the FIRST hop: refined X^1 vs raw X^1
        // (identical propagation input, so the Proposition 2 derivation
        // applies directly).
        let d_refined = mean_layer_divergence(&refined[1], &ego);
        let d_raw = mean_layer_divergence(&raw[1], &ego);
        assert!(
            d_refined <= d_raw + 1e-6,
            "refined divergence {d_refined} > raw {d_raw}"
        );
    }

    #[test]
    fn epoch_resamples_pruned_graph_deterministically() {
        let ds = tiny_dataset(4);
        let mut rng1 = StdRng::seed_from_u64(1);
        let mut rng2 = StdRng::seed_from_u64(1);
        let mut a = LayerGcn::new(&ds, LayerGcnConfig::default(), &mut rng1);
        let mut b = LayerGcn::new(&ds, LayerGcnConfig::default(), &mut rng2);
        let la = a.train_epoch(&ds, 0, &mut rng1).loss;
        let lb = b.train_epoch(&ds, 0, &mut rng2).loss;
        assert_eq!(la, lb, "same seed must give identical epochs");
    }

    #[test]
    fn save_load_roundtrip_preserves_scores() {
        let ds = tiny_dataset(4);
        for (label, cfg) in family() {
            let mut rng = StdRng::seed_from_u64(1);
            let mut m = EgoGcn::new(&ds, cfg.clone(), &mut rng);
            for e in 0..3 {
                m.train_epoch(&ds, e, &mut rng);
            }
            m.refresh(&ds);
            let before = m.score_users(&ds, &[0, 1]);
            let path = std::env::temp_dir().join(format!("lrgcn_egogcn_ckpt_{}.bin", m.checkpoint_tag()));
            m.save(&path).expect("save");
            // Fresh model with different init: scores differ, then match after load.
            let mut m2 = EgoGcn::new(&ds, cfg, &mut StdRng::seed_from_u64(999));
            m2.refresh(&ds);
            assert!(!m2.score_users(&ds, &[0, 1]).approx_eq(&before, 1e-6), "{label}");
            m2.load(&path).expect("load");
            m2.refresh(&ds);
            assert!(m2.score_users(&ds, &[0, 1]).approx_eq(&before, 0.0), "{label}");
            std::fs::remove_file(path).ok();
        }
    }

    /// A bipartite adjacency over `n_users + n_items` nodes with `n_edges`
    /// random edges and random weights, so most nodes stay edgeless when
    /// edges are few. `symmetric: false` gives each direction its own
    /// weight.
    fn random_adjacency(
        rng: &mut SplitMix64,
        (n_users, n_items): (usize, usize),
        n_edges: usize,
        symmetric: bool,
    ) -> Csr {
        let mut triplets = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n_edges {
            let u = rng.random_range(0..n_users as u32);
            let i = n_users as u32 + rng.random_range(0..n_items as u32);
            if seen.insert((u, i)) {
                let w = rng.random::<f32>() + 0.1;
                let back = if symmetric { w } else { rng.random::<f32>() + 0.1 };
                triplets.push((u, i, w));
                triplets.push((i, u, back));
            }
        }
        let n = n_users + n_items;
        Csr::from_coo(n, n, triplets)
    }

    /// A random batch over every node, edgeless ones included.
    fn random_batch(
        rng: &mut SplitMix64,
        (n_users, n_items): (usize, usize),
        len: usize,
    ) -> BprBatch {
        let mut draw = |n: usize| (0..len).map(|_| rng.random_range(0..n as u32)).collect();
        BprBatch {
            users: draw(n_users),
            pos_items: draw(n_items),
            neg_items: draw(n_items),
        }
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn live_view_spmm_is_bitwise_the_full_rows() {
        let mut rng = SplitMix64::new(42);
        for case in 0..20 {
            let shape = (5 + case * 3, 40 + case * 7);
            let n = shape.0 + shape.1;
            let full = random_adjacency(&mut rng, shape, 2 + case * 4, true);
            let x = init::xavier_uniform(n, 8, &mut rng);
            let want = Matrix::from_vec(n, 8, full.spmm(x.data(), 8));
            let mut live = LiveView::new(&SharedCsr::new(full.clone()));
            assert_eq!(live.adj.matrix().nnz(), full.nnz(), "case {case}: nnz");
            for _ in 0..3 {
                let batch = random_batch(&mut rng, shape, 1 + case);
                let view = live.batch(&batch, shape.0);
                let adj = view.adj.matrix();
                assert_eq!(adj.nnz(), full.nnz(), "case {case}: nnz");
                assert_eq!(adj.n_rows(), view.ids.len());
                let got = adj.spmm(x.gather_rows(&view.ids).data(), 8);
                for (k, &v) in view.ids.iter().enumerate() {
                    assert_eq!(bits(&got[k * 8..(k + 1) * 8]), bits(want.row(v as usize)));
                    // Only the batch's edgeless ids follow the live rows,
                    // each once and as an empty row.
                    let edgeless = full.row_nnz(v as usize) == 0;
                    assert_eq!(edgeless, k >= live.ids.len(), "case {case}: node {v}");
                    if edgeless {
                        assert_eq!(adj.row_nnz(k), 0);
                    }
                }
                let (u, i, j) = batch_node_indices(&batch, shape.0);
                for (nodes, rows) in [(&u, &view.rows.0), (&i, &view.rows.1), (&j, &view.rows.2)] {
                    let mapped: Vec<u32> = rows.iter().map(|&r| view.ids[r as usize]).collect();
                    assert_eq!(&mapped, &**nodes, "case {case}: batch rows");
                }
                let mut distinct = view.ids[live.ids.len()..].to_vec();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), view.ids.len() - live.ids.len());
            }
            assert!(live.row_of.iter().all(|&r| r == NO_ROW || (r as usize) < live.ids.len()));
        }
    }

    /// An asymmetric matrix keeps a transpose of its own, and the view of
    /// that transpose is the view's transpose.
    #[test]
    fn live_view_of_an_asymmetric_matrix_keeps_its_transpose() {
        let mut rng = SplitMix64::new(7);
        let shape = (12, 60);
        let full = random_adjacency(&mut rng, shape, 30, false);
        let mut live = LiveView::new(&SharedCsr::new(full));
        let view = live.batch(&random_batch(&mut rng, shape, 16), shape.0);
        assert!(view.ids.len() > live.ids.len(), "the batch draws edgeless ids");
        assert_eq!(view.adj.transpose(), &view.adj.matrix().transpose());
    }

    /// The view changes which rows train, not what they compute: one epoch
    /// on the view and one over every row give the same ego table, bit for
    /// bit, for every family member.
    #[test]
    fn view_epoch_is_bitwise_the_full_graph_epoch() {
        let ds = tiny_dataset(4);
        let edgeless = ds.train().node_degrees().iter().filter(|&&d| d == 0).count();
        assert!(edgeless > 0, "the fixture has edgeless nodes");
        for (label, cfg) in family() {
            let cfg = EgoGcnConfig {
                batch_size: 512,
                ..cfg
            };
            let mut rng = StdRng::seed_from_u64(3);
            let mut m = EgoGcn::new(&ds, cfg.clone(), &mut rng);
            let mut full_rng = rng.clone();
            let mut reference = EgoGcn::new(&ds, cfg.clone(), &mut StdRng::seed_from_u64(3));
            m.train_epoch(&ds, 0, &mut rng);
            // The same epoch over the full graph, X^0 read directly.
            let adj = match cfg.pruner.sample_edges(ds.train(), 0, &mut full_rng) {
                Some(edges) => SharedCsr::new(ds.train().norm_adjacency_of_edges(&edges)),
                None => reference.adj_full.clone(),
            };
            for batch in BprEpoch::new(&ds, cfg.batch_size, &mut full_rng).collect::<Vec<_>>() {
                let mut tape = Tape::new();
                let on = reference.params.leaves(&mut tape);
                let x0 = on[EGO];
                let (layers, _) = cfg.propagation.chain(&mut tape, &adj, x0, cfg.n_layers);
                let final_x = cfg.propagation.readout(&mut tape, &layers);
                let loss = bpr_loss(&mut tape, final_x, x0, ds.n_users(), &batch, cfg.lambda);
                reference.params.step(&mut tape, loss, &on);
            }
            assert_eq!(
                bits(m.ego_embeddings().data()),
                bits(reference.ego_embeddings().data()),
                "{label}"
            );
        }
    }

    /// `n_edges` random training pairs over `n_users × n_items`, so most
    /// nodes stay edgeless when edges are few.
    fn sparse_dataset(
        rng: &mut SplitMix64,
        (n_users, n_items): (usize, usize),
        n_edges: usize,
    ) -> Dataset {
        let train = (0..n_edges)
            .map(|_| {
                (
                    rng.random_range(0..n_users as u32),
                    rng.random_range(0..n_items as u32),
                )
            })
            .collect();
        let empty = vec![vec![]; n_users];
        Dataset::from_parts("sparse", n_users, n_items, train, empty.clone(), empty)
    }

    /// Bitwise equal, or NaN in both: a NaN's payload depends on the
    /// kernel that made it.
    fn same_scores(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    /// The evaluation cache is `final_embeddings()`, bit for bit, and so
    /// are its scores, for every family member: on the live view where
    /// LayerGCN's readout allows it, on the full chain where it does not —
    /// a non-finite ego row without an edge, or a negative ε, which would
    /// turn an edgeless row into `-0.0`. In a debug build the tape refuses
    /// the non-finite row, so both paths must panic instead.
    #[test]
    fn inference_table_is_bitwise_the_full_chain() {
        let mut rng = SplitMix64::new(11);
        let shape = (12, 90);
        let mut configs = family();
        configs.push((
            "LayerGCN (ε < 0)",
            LayerGcnConfig {
                epsilon: -1e-3,
                ..LayerGcnConfig::without_dropout()
            }
            .into(),
        ));
        for (graph, n_edges) in [("mostly edgeless", 25), ("no edges", 0)] {
            let ds = sparse_dataset(&mut rng, shape, n_edges);
            let degrees = ds.train().node_degrees();
            assert!(2 * degrees.iter().filter(|&&d| d == 0).count() > degrees.len());
            let edgeless_user = degrees[..shape.0]
                .iter()
                .position(|&d| d == 0)
                .expect("user");
            let edgeless_item = shape.0
                + degrees[shape.0..]
                    .iter()
                    .position(|&d| d == 0)
                    .expect("item");
            let users: Vec<u32> = (0..shape.0 as u32).collect();
            for (label, cfg) in &configs {
                let mut m = EgoGcn::new(&ds, cfg.clone(), &mut StdRng::seed_from_u64(5));
                let clean = m.ego_embeddings().clone();
                for (node, bad) in [
                    (None, 0.0),
                    (Some(edgeless_user), f32::NAN),
                    (Some(edgeless_item), f32::INFINITY),
                ] {
                    let mut ego = clean.clone();
                    if let Some(v) = node {
                        ego.row_mut(v)[0] = bad;
                    }
                    m.params.set_value(EGO, ego);
                    let case = format!("{graph}: {label}: ego {bad} at {node:?}");
                    // Debug builds refuse a non-finite value on the tape, so
                    // there the full chain must panic on both paths.
                    let want = catch_unwind(AssertUnwindSafe(|| m.final_embeddings()));
                    let got = catch_unwind(AssertUnwindSafe(|| m.inference_table()));
                    let (want, got) = match (want, got) {
                        (Ok(want), Ok(got)) => (want, got),
                        (Err(_), Err(_)) if node.is_some() => continue,
                        _ => panic!("{case}: one path panicked"),
                    };
                    if let Some(v) = node {
                        assert!(want.row(v).iter().any(|x| !x.is_finite()), "{case}");
                    }
                    assert_eq!(bits(got.data()), bits(want.data()), "{case}");
                    m.refresh(&ds);
                    let scores = score_from_final(&want, shape.0, &users);
                    assert!(
                        same_scores(&m.score_users(&ds, &users), &scores),
                        "{case}: scores"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid pruner")]
    fn rejects_invalid_ratio() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = LayerGcnConfig {
            pruner: EdgePruner::DegreeDrop { ratio: 1.5 },
            ..LayerGcnConfig::default()
        };
        let _ = LayerGcn::new(&ds, cfg, &mut rng);
    }
}
