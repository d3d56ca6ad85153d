//! IMP-GCN — Interest-aware Message-Passing GCN (Liu et al., WWW 2021).
//!
//! IMP-GCN splits users into `S` interest subgroups with a small MLP over
//! their (ego + first-hop) features and performs high-order graph
//! convolutions *within* each subgroup's subgraph, so that distant
//! propagation only mixes users of similar interest:
//!
//! * layer 1 operates on the full graph: `E¹ = Â E⁰`;
//! * layers ≥ 2 operate per subgroup: `E_s^{l+1} = Â_s E_s^l`, where `Â_s`
//!   is the re-normalized adjacency of the edges whose user belongs to
//!   group `s`;
//! * the layer embedding at depth `l ≥ 2` is `Σ_s E_s^l`, and the readout
//!   averages all layer embeddings (like LightGCN).
//!
//! Simplification vs. the original (documented in DESIGN.md): the grouping
//! MLP receives gradients through a *soft* scaling of the first subgroup
//! layer (`Â_s (E¹ ⊙ softmax-prob_s)`), while routing itself uses the hard
//! argmax; the original trains the MLP through its own gating construction.

use crate::common::{
    bpr_loss, consecutive_smoothness, full_adjacency, mean_readout, score_from_final,
};
use crate::params::{Leaves, Params};
use crate::traits::{EpochStats, ModelDiagnostics, Recommender};
use lrgcn_data::{BprEpoch, Dataset};
use lrgcn_tensor::tape::{SharedCsr, Tape, Var};
use lrgcn_tensor::{init, Matrix};
use rand::rngs::StdRng;

/// Parameter groups: the ego table and the grouping MLP — a `(2T x S)`
/// weight and a `(1 x S)` bias over `[e_u ‖ e_u¹]`.
const EGO: usize = 0;
const W_GROUP: usize = 1;
const B_GROUP: usize = 2;

/// Hyper-parameters for [`ImpGcn`].
#[derive(Clone, Debug)]
pub struct ImpGcnConfig {
    pub embedding_dim: usize,
    pub n_layers: usize,
    /// Number of interest subgroups `S` (paper explores 2–4).
    pub n_groups: usize,
    pub learning_rate: f32,
    pub lambda: f32,
    pub batch_size: usize,
}

impl Default for ImpGcnConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 64,
            n_layers: 3,
            n_groups: 3,
            learning_rate: 1e-3,
            lambda: 1e-4,
            batch_size: 2048,
        }
    }
}

/// The IMP-GCN recommender.
pub struct ImpGcn {
    cfg: ImpGcnConfig,
    /// One Adam over the BPR batches and the grouping-MLP step, so the two
    /// share its step counter.
    params: Params,
    adj: SharedCsr,
    /// Per-epoch subgroup adjacencies, and each group's soft scaling
    /// column over the unified node space (see [`ImpGcn::reassign_groups`]).
    group_adj: Vec<SharedCsr>,
    soft_cols: Vec<Matrix>,
    inference: Option<Matrix>,
}

impl ImpGcn {
    pub fn new(ds: &Dataset, cfg: ImpGcnConfig, rng: &mut StdRng) -> Self {
        assert!(cfg.n_groups >= 1, "need at least one group");
        assert!(cfg.n_layers >= 1, "need at least one layer");
        let n = ds.n_users() + ds.n_items();
        let t = cfg.embedding_dim;
        let params = Params::new(cfg.learning_rate)
            .with("ego", init::xavier_uniform(n, t, rng))
            .with("w_group", init::xavier_uniform(2 * t, cfg.n_groups, rng))
            .with("b_group", Matrix::zeros(1, cfg.n_groups));
        let adj = full_adjacency(ds);
        let mut m = Self {
            cfg,
            params,
            adj,
            group_adj: Vec::new(),
            soft_cols: Vec::new(),
            inference: None,
        };
        m.reassign_groups(ds);
        m
    }

    /// Group logits for all users: `leaky_relu([E⁰_u ‖ (ÂE⁰)_u]) W + b`.
    fn group_logits(&self, ds: &Dataset) -> Matrix {
        let x0 = self.params.value(EGO);
        let e1v = self.adj.matrix().spmm(x0.data(), x0.cols());
        let e1 = Matrix::from_vec(x0.rows(), x0.cols(), e1v);
        let users0 = x0.slice_rows(0, ds.n_users());
        let users1 = e1.slice_rows(0, ds.n_users());
        let feat = Matrix::concat_cols(&[&users0, &users1]);
        let feat = feat.map(|x| if x > 0.0 { x } else { 0.2 * x });
        let mut logits = feat.matmul(self.params.value(W_GROUP));
        let b = self.params.value(B_GROUP);
        for r in 0..logits.rows() {
            for (o, &bb) in logits.row_mut(r).iter_mut().zip(b.row(0)) {
                *o += bb;
            }
        }
        logits
    }

    /// Recomputes hard group routing + soft probabilities and rebuilds the
    /// per-group adjacencies and soft scaling columns (users get their
    /// group probability, items get 1). Called at the start of each epoch.
    pub fn reassign_groups(&mut self, ds: &Dataset) {
        let logits = self.group_logits(ds);
        let s = self.cfg.n_groups;
        // Softmax probabilities per user.
        let mut probs = logits.clone();
        for r in 0..probs.rows() {
            let row = probs.row_mut(r);
            let mx = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let mut z = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - mx).exp();
                z += *x;
            }
            for x in row.iter_mut() {
                *x /= z;
            }
        }
        let assignment: Vec<usize> = row_argmax(&probs).collect();
        self.group_adj = (0..s)
            .map(|g| {
                let edges: Vec<(u32, u32)> = ds
                    .train()
                    .edges()
                    .iter()
                    .copied()
                    .filter(|&(u, _)| assignment[u as usize] == g)
                    .collect();
                SharedCsr::new(ds.train().norm_adjacency_of_edges(&edges))
            })
            .collect();
        let n = ds.n_users() + ds.n_items();
        self.soft_cols = (0..s)
            .map(|g| {
                let mut col = Matrix::full(n, 1, 1.0);
                for u in 0..ds.n_users() {
                    col[(u, 0)] = probs[(u, g)];
                }
                col
            })
            .collect();
    }

    /// Builds the IMP-GCN forward pass on a tape. Returns
    /// `(final, leaves, layer_embs)` where `layer_embs` is the per-depth
    /// chain the mean readout averages (ego first).
    /// The soft group probabilities enter as constants; the grouping MLP is
    /// off the tape, trained separately by [`ImpGcn::update_grouping_mlp`].
    fn forward(&self, tape: &mut Tape) -> (Var, Leaves, Vec<Var>) {
        let on = self.params.leaves_of(tape, &[EGO]);
        let x0 = on[EGO];
        let e1 = tape.spmm(&self.adj, x0);
        let mut layer_embs = vec![x0, e1];
        // Subgroup propagation.
        let mut prev: Vec<Var> = self
            .soft_cols
            .iter()
            .zip(&self.group_adj)
            .map(|(col, adj_s)| {
                let c = tape.constant(col.clone());
                let scaled = tape.mul_row_broadcast(e1, c);
                tape.spmm(adj_s, scaled)
            })
            .collect();
        // Layer 2 embedding = Σ_s E_s².
        let mut l2 = prev[0];
        for &p in &prev[1..] {
            l2 = tape.add(l2, p);
        }
        layer_embs.push(l2);
        for _ in 3..=self.cfg.n_layers {
            let next: Vec<Var> = prev
                .iter()
                .zip(&self.group_adj)
                .map(|(&h, adj_s)| tape.spmm(adj_s, h))
                .collect();
            let mut le = next[0];
            for &p in &next[1..] {
                le = tape.add(le, p);
            }
            layer_embs.push(le);
            prev = next;
        }
        layer_embs.truncate(self.cfg.n_layers.min(layer_embs.len() - 1) + 1);
        let final_x = mean_readout(tape, &layer_embs);
        (final_x, on, layer_embs)
    }
}

impl Recommender for ImpGcn {
    fn name(&self) -> String {
        "IMP-GCN".into()
    }

    fn train_epoch(&mut self, ds: &Dataset, _epoch: usize, rng: &mut StdRng) -> EpochStats {
        self.inference = None;
        self.reassign_groups(ds);
        let batches: Vec<_> = BprEpoch::new(ds, self.cfg.batch_size, rng).collect();
        for batch in batches {
            let mut tape = Tape::new();
            let (final_x, on, _) = self.forward(&mut tape);
            let loss = bpr_loss(
                &mut tape,
                final_x,
                on[EGO],
                ds.n_users(),
                &batch,
                self.cfg.lambda,
            );
            self.params.step(&mut tape, loss, &on);
        }
        // Update the grouping MLP once per epoch with a lightweight
        // objective: make the soft assignment consistent with the hard
        // routing that produced this epoch's subgraphs (self-distillation).
        self.update_grouping_mlp(ds);
        self.params.end_epoch()
    }

    fn refresh(&mut self, _ds: &Dataset) {
        let mut tape = Tape::new();
        let (final_x, _, _) = self.forward(&mut tape);
        self.inference = Some(tape.value(final_x).clone());
    }

    fn score_users(&self, ds: &Dataset, users: &[u32]) -> Matrix {
        let inference = self
            .inference
            .as_ref()
            .expect("refresh() must be called before score_users");
        score_from_final(inference, ds.n_users(), users)
    }

    fn n_parameters(&self) -> usize {
        self.params.n_parameters()
    }

    fn diagnostics(&self, _ds: &Dataset) -> Option<ModelDiagnostics> {
        // The forward pass is deterministic given the current parameters and
        // group assignment, so a fresh tape reproduces the readout chain.
        let mut tape = Tape::new();
        let (_, _, layer_embs) = self.forward(&mut tape);
        let chain: Vec<Matrix> = layer_embs.iter().map(|&v| tape.value(v).clone()).collect();
        // Mean readout: uniform weight over the layer chain.
        let uniform = vec![1.0 / chain.len() as f64; chain.len()];
        let smoothness = consecutive_smoothness(&chain);
        Some(self.params.diagnostics(smoothness, uniform))
    }
}

impl ImpGcn {
    /// Sharpens the grouping MLP toward its own hard assignment (one step of
    /// cross-entropy self-distillation), giving the MLP a training signal.
    /// The ego table is a constant here; only the MLP steps.
    fn update_grouping_mlp(&mut self, ds: &Dataset) {
        let mut tape = Tape::new();
        let x0 = tape.constant(self.params.value(EGO).clone());
        let e1 = tape.spmm(&self.adj, x0);
        let idx: std::rc::Rc<Vec<u32>> = std::rc::Rc::new((0..ds.n_users() as u32).collect());
        let u0 = tape.gather(x0, std::rc::Rc::clone(&idx));
        let u1 = tape.gather(e1, idx);
        let feat = tape.concat_cols(&[u0, u1]);
        let feat_act = tape.leaky_relu(feat, 0.2);
        let on = self.params.leaves_of(&mut tape, &[W_GROUP, B_GROUP]);
        let lin = tape.matmul(feat_act, on[W_GROUP]);
        let logits = tape.add_col_broadcast(lin, on[B_GROUP]);
        // One-hot mask of the hard assignment, the argmax of the logits.
        let mut mask = Matrix::zeros(ds.n_users(), self.cfg.n_groups);
        for (u, g) in row_argmax(tape.value(logits)).enumerate() {
            mask[(u, g)] = 1.0;
        }
        let ls = tape.row_log_softmax(logits);
        let mk = tape.constant(mask);
        let picked = tape.mul(ls, mk);
        let s = tape.sum(picked);
        let loss = tape.mul_scalar(s, -1.0 / ds.n_users().max(1) as f32);
        self.params.descend(&mut tape, loss, &on);
    }
}

/// The column of each row's largest entry.
fn row_argmax(m: &Matrix) -> impl Iterator<Item = usize> + '_ {
    (0..m.rows()).map(|r| {
        m.row(r)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty row")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tiny_dataset, train_and_eval};
    use rand::SeedableRng;

    #[test]
    fn beats_random() {
        let (r, rand_r) = train_and_eval(
            |ds, rng| Box::new(ImpGcn::new(ds, ImpGcnConfig::default(), rng)),
            25,
        );
        assert!(r > 1.4 * rand_r, "IMP-GCN R@20 {r} vs random {rand_r}");
    }

    #[test]
    fn group_adjacencies_partition_user_edges() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let m = ImpGcn::new(&ds, ImpGcnConfig::default(), &mut rng);
        let total_nnz: usize = m.group_adj.iter().map(|a| a.matrix().nnz()).sum();
        // Every training edge lands in exactly one group (x2 for symmetry).
        assert_eq!(total_nnz, 2 * ds.train().n_edges());
    }

    #[test]
    fn probs_are_distributions() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let m = ImpGcn::new(&ds, ImpGcnConfig::default(), &mut rng);
        for u in 0..ds.n_users() {
            let s: f32 = m.soft_cols.iter().map(|c| c[(u, 0)]).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
        let items = ds.n_users()..ds.n_users() + ds.n_items();
        assert!(m.soft_cols.iter().all(|c| items.clone().all(|i| c[(i, 0)] == 1.0)));
    }

    #[test]
    fn single_group_reduces_to_lightgcn_shape() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ImpGcnConfig { n_groups: 1, ..Default::default() };
        let mut m = ImpGcn::new(&ds, cfg, &mut rng);
        let s = m.train_epoch(&ds, 0, &mut rng);
        assert!(s.loss.is_finite());
        m.refresh(&ds);
        let sc = m.score_users(&ds, &[0]);
        assert_eq!(sc.shape(), (1, ds.n_items()));
    }

    #[test]
    fn grouping_mlp_moves_during_training() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = ImpGcn::new(&ds, ImpGcnConfig::default(), &mut rng);
        let w0 = m.params.value(W_GROUP).clone();
        for e in 0..3 {
            m.train_epoch(&ds, e, &mut rng);
        }
        assert!(m.params.value(W_GROUP).sub(&w0).max_abs() > 0.0);
    }
}
