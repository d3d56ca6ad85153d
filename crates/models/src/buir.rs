//! BUIR — Bootstrapping User and Item Representations for one-class CF
//! (Lee et al., SIGIR 2021).
//!
//! Negative-sample-free asymmetric learning: an *online* encoder (embedding
//! table + LightGCN propagation, as the paper's BUIR-NB variant) plus a
//! linear predictor is trained to match a slowly-moving *target* encoder,
//! which is updated only by an exponential moving average of the online
//! parameters. For an observed pair `(u, i)` the loss pulls
//! `normalize(pred(o_u))` toward `normalize(t_i)` and symmetrically
//! `normalize(pred(o_i))` toward `normalize(t_u)`.
//!
//! Scoring follows the BUIR inference rule
//! `r̂_ui = pred(o_u) · t_i + t_u · pred(o_i)`.

use crate::common::{full_adjacency, propagate_matrix, split_user_item};
use crate::params::Params;
use crate::traits::{EpochStats, Recommender};
use lrgcn_data::{BprEpoch, Dataset};
use lrgcn_tensor::optim::ema_update;
use lrgcn_tensor::tape::SharedCsr;
use lrgcn_tensor::{init, Matrix, Tape};
use rand::rngs::StdRng;
use std::rc::Rc;

/// Parameter groups: the online table and the linear predictor.
const ONLINE: usize = 0;
const PREDICTOR_W: usize = 1;
const PREDICTOR_B: usize = 2;

/// Hyper-parameters for [`Buir`].
#[derive(Clone, Debug)]
pub struct BuirConfig {
    pub embedding_dim: usize,
    /// LightGCN layers of the backbone encoder.
    pub n_layers: usize,
    pub learning_rate: f32,
    pub batch_size: usize,
    /// EMA momentum of the target network (paper default 0.995).
    pub momentum: f32,
}

impl Default for BuirConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 64,
            n_layers: 2,
            learning_rate: 1e-3,
            batch_size: 2048,
            momentum: 0.995,
        }
    }
}

/// The BUIR recommender (LightGCN backbone).
pub struct Buir {
    cfg: BuirConfig,
    params: Params,
    /// Target embedding table, EMA of `online` (never receives gradients).
    target: Matrix,
    adj: SharedCsr,
    /// Cached `(pred(online), target)` propagated embeddings for scoring.
    inference: Option<(Matrix, Matrix)>,
}

impl Buir {
    pub fn new(ds: &Dataset, cfg: BuirConfig, rng: &mut StdRng) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.momentum),
            "momentum must be in [0, 1]"
        );
        let n = ds.n_users() + ds.n_items();
        let online = init::xavier_uniform(n, cfg.embedding_dim, rng);
        let target = online.clone();
        let predictor_w = init::xavier_uniform(cfg.embedding_dim, cfg.embedding_dim, rng);
        let params = Params::new(cfg.learning_rate)
            .with("online", online)
            .with("predictor_w", predictor_w)
            .with("predictor_b", Matrix::zeros(1, cfg.embedding_dim));
        let adj = full_adjacency(ds);
        Self {
            cfg,
            params,
            target,
            adj,
            inference: None,
        }
    }

    /// LightGCN mean-readout encoding of a table with plain matrix math.
    fn encode(&self, table: &Matrix) -> Matrix {
        let layers = propagate_matrix(self.adj.matrix(), table, self.cfg.n_layers);
        let mut acc = layers[0].clone();
        for l in &layers[1..] {
            acc.add_assign(l);
        }
        acc.scale(1.0 / layers.len() as f32);
        acc
    }

    /// Applies the linear predictor with plain matrix math.
    fn predict(&self, x: &Matrix) -> Matrix {
        let mut out = x.matmul(self.params.value(PREDICTOR_W));
        let b = self.params.value(PREDICTOR_B);
        for r in 0..out.rows() {
            for (o, &bb) in out.row_mut(r).iter_mut().zip(b.row(0)) {
                *o += bb;
            }
        }
        out
    }
}

impl Recommender for Buir {
    fn name(&self) -> String {
        "BUIR".into()
    }

    fn train_epoch(&mut self, ds: &Dataset, _epoch: usize, rng: &mut StdRng) -> EpochStats {
        self.inference = None;
        // Target encoding is constant within the epoch's batches except for
        // the EMA updates after each step; encode per batch for fidelity.
        let batches: Vec<_> = BprEpoch::new(ds, self.cfg.batch_size, rng).collect();
        let off = ds.n_users() as u32;
        for batch in batches {
            let t_enc = self.encode(&self.target);
            let u_idx: Rc<Vec<u32>> = Rc::new(batch.users.clone());
            let i_idx: Rc<Vec<u32>> = Rc::new(batch.pos_items.iter().map(|&i| i + off).collect());
            let b = batch.len().max(1) as f32;

            let mut tape = Tape::new();
            let on = self.params.leaves(&mut tape);
            let (x, w, bias) = (on[ONLINE], on[PREDICTOR_W], on[PREDICTOR_B]);
            // Online LightGCN encoding on the tape.
            let light = crate::egogcn::Propagation::Light;
            let (layers, _) = light.chain(&mut tape, &self.adj, x, self.cfg.n_layers);
            let o = light.readout(&mut tape, &layers);
            let ou = tape.gather(o, Rc::clone(&u_idx));
            let oi = tape.gather(o, Rc::clone(&i_idx));
            let pu_lin = tape.matmul(ou, w);
            let pu_pre = tape.add_col_broadcast(pu_lin, bias);
            let pi_lin = tape.matmul(oi, w);
            let pi_pre = tape.add_col_broadcast(pi_lin, bias);
            let pu = tape.row_l2_normalize(pu_pre, 1e-12);
            let pi = tape.row_l2_normalize(pi_pre, 1e-12);
            // Target rows (constants).
            let tu_rows = tape.constant(t_enc.gather_rows(&u_idx));
            let ti_rows = tape.constant(t_enc.gather_rows(&i_idx));
            let tu = tape.row_l2_normalize(tu_rows, 1e-12);
            let ti = tape.row_l2_normalize(ti_rows, 1e-12);
            let d1 = tape.sub(pu, ti);
            let d2 = tape.sub(pi, tu);
            let l1 = tape.sq_frobenius(d1);
            let l2 = tape.sq_frobenius(d2);
            let lsum = tape.add(l1, l2);
            let loss = tape.mul_scalar(lsum, 1.0 / b);
            self.params.step(&mut tape, loss, &on);
            // EMA target update after each optimization step.
            let online = self.params.value(ONLINE);
            ema_update(&mut self.target, online, self.cfg.momentum);
        }
        self.params.end_epoch()
    }

    fn refresh(&mut self, _ds: &Dataset) {
        let o = self.encode(self.params.value(ONLINE));
        let pred_o = self.predict(&o);
        let t = self.encode(&self.target);
        self.inference = Some((pred_o, t));
    }

    fn score_users(&self, ds: &Dataset, users: &[u32]) -> Matrix {
        let (pred_o, t) = self
            .inference
            .as_ref()
            .expect("refresh() must be called before score_users");
        let nu = ds.n_users();
        let (po_users, po_items) = split_user_item(pred_o, nu);
        let (t_users, t_items) = split_user_item(t, nu);
        // r̂ = pred(o_u)·t_i + t_u·pred(o_i).
        let a = po_users.gather_rows(users).matmul_nt(&t_items);
        let b = t_users.gather_rows(users).matmul_nt(&po_items);
        a.add(&b)
    }

    fn n_parameters(&self) -> usize {
        self.params.n_parameters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tiny_dataset, train_and_eval};
    use rand::SeedableRng;

    #[test]
    fn beats_random() {
        let (r, rand_r) = train_and_eval(
            |ds, rng| Box::new(Buir::new(ds, BuirConfig::default(), rng)),
            30,
        );
        assert!(r > 1.3 * rand_r, "BUIR R@20 {r} vs random {rand_r}");
    }

    #[test]
    fn target_tracks_online_slowly() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Buir::new(&ds, BuirConfig::default(), &mut rng);
        let t0 = m.target.clone();
        m.train_epoch(&ds, 0, &mut rng);
        let online_moved = m.params.value(ONLINE).sub(&t0).max_abs();
        let target_moved = m.target.sub(&t0).max_abs();
        assert!(online_moved > 0.0, "online never moved");
        assert!(target_moved > 0.0, "target never moved");
        assert!(
            target_moved < online_moved,
            "target ({target_moved}) should lag online ({online_moved})"
        );
    }

    #[test]
    fn loss_without_negatives_does_not_collapse_scores() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Buir::new(&ds, BuirConfig::default(), &mut rng);
        for e in 0..10 {
            let s = m.train_epoch(&ds, e, &mut rng);
            assert!(s.loss.is_finite());
        }
        m.refresh(&ds);
        let sc = m.score_users(&ds, &[0, 1, 2]);
        assert!(!sc.has_non_finite());
        // Scores must not be constant (representation collapse).
        let (mn, mx) = sc
            .data()
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(a, b), &x| {
                (a.min(x), b.max(x))
            });
        assert!(mx - mn > 1e-4, "scores collapsed to a constant");
    }
}
