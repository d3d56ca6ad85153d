//! UltraGCN (Mao et al., CIKM 2021).
//!
//! Skips explicit message passing entirely: it approximates the limit of
//! infinite-layer graph convolution with *constraint losses* on the
//! user–item graph (weights `β_ui = (1/d_u)·sqrt((d_u+1)/(d_i+1))`) and on a
//! top-K item–item co-occurrence graph built from `G = RᵀR`:
//!
//! * main + user-item constraint: weighted BCE with positive weight
//!   `1 + γ β_ui` and sampled negatives with weight `1 + γ β_uj`;
//! * item-item constraint `L_I`: for each positive `(u, i)`, pull `u` toward
//!   the top-K co-occurring neighbours `j` of `i` with weight `ω_ij`.

use crate::params::Params;
use crate::traits::{EpochStats, Recommender};
use lrgcn_data::{BprEpoch, Dataset};
use lrgcn_tensor::{init, Matrix, Tape};
use rand::rngs::StdRng;
use std::rc::Rc;

/// Parameter groups: the user and the item embedding tables.
const USER: usize = 0;
const ITEM: usize = 1;

/// Hyper-parameters for [`UltraGcn`].
#[derive(Clone, Debug)]
pub struct UltraGcnConfig {
    pub embedding_dim: usize,
    pub learning_rate: f32,
    pub lambda: f32,
    pub batch_size: usize,
    /// Negatives sampled per positive.
    pub n_negatives: usize,
    /// γ — strength of the user-item constraint weights.
    pub gamma: f32,
    /// λ_I — weight of the item-item constraint loss.
    pub item_item_weight: f32,
    /// Top-K neighbours kept per item in the co-occurrence graph.
    pub item_topk: usize,
    /// Coefficient on the negative part of the BCE.
    pub negative_coef: f32,
}

impl Default for UltraGcnConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 64,
            learning_rate: 1e-3,
            lambda: 1e-4,
            batch_size: 1024,
            n_negatives: 5,
            gamma: 1.0,
            item_item_weight: 0.5,
            item_topk: 8,
            negative_coef: 0.5,
        }
    }
}

/// The UltraGCN recommender.
pub struct UltraGcn {
    cfg: UltraGcnConfig,
    params: Params,
    /// β_ui building blocks.
    user_deg: Vec<f32>,
    item_deg: Vec<f32>,
    /// Top-K co-occurrence neighbours per item: `(neighbour, ω)`.
    item_neighbors: Vec<Vec<(u32, f32)>>,
}

/// Builds the top-K item-item co-occurrence neighbourhood from `G = RᵀR`
/// (computed sparsely, see [`lrgcn_graph::BipartiteGraph::item_cooccurrence`])
/// with weights `ω_ij = (G_ij / g_i) * sqrt(g_i / g_j)` (g = row sums of G,
/// diagonal excluded).
pub fn build_item_neighbors(ds: &Dataset, topk: usize) -> Vec<Vec<(u32, f32)>> {
    let cooc = ds.train().item_cooccurrence();
    let g: Vec<f32> = cooc
        .row_sums()
        .into_iter()
        .map(|s| s.max(1e-12))
        .collect();
    (0..cooc.n_rows())
        .map(|i| {
            let mut w: Vec<(u32, f32)> = cooc
                .row(i)
                .map(|(j, gij)| {
                    let omega = gij / g[i] * (g[i] / g[j as usize]).sqrt();
                    (j, omega)
                })
                .collect();
            w.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
            w.truncate(topk);
            w
        })
        .collect()
}

impl UltraGcn {
    pub fn new(ds: &Dataset, cfg: UltraGcnConfig, rng: &mut StdRng) -> Self {
        let users = init::xavier_uniform(ds.n_users(), cfg.embedding_dim, rng);
        let items = init::xavier_uniform(ds.n_items(), cfg.embedding_dim, rng);
        let params = Params::new(cfg.learning_rate)
            .with("user", users)
            .with("item", items);
        let user_deg: Vec<f32> = ds.train().user_degrees().iter().map(|&d| d as f32).collect();
        let item_deg: Vec<f32> = ds.train().item_degrees().iter().map(|&d| d as f32).collect();
        let item_neighbors = build_item_neighbors(ds, cfg.item_topk);
        Self {
            cfg,
            params,
            user_deg,
            item_deg,
            item_neighbors,
        }
    }

    /// `β_ui` of the UltraGCN user-item constraint.
    fn beta(&self, u: u32, i: u32) -> f32 {
        let du = self.user_deg[u as usize].max(1.0);
        let di = self.item_deg[i as usize];
        (1.0 / du) * ((du + 1.0) / (di + 1.0)).sqrt()
    }
}

impl Recommender for UltraGcn {
    fn name(&self) -> String {
        "UltraGCN".into()
    }

    fn train_epoch(&mut self, ds: &Dataset, _epoch: usize, rng: &mut StdRng) -> EpochStats {
        let batches: Vec<_> = BprEpoch::new(ds, self.cfg.batch_size, rng).collect();
        for batch in batches {
            let b = batch.len();
            // Negatives: reuse the sampler's negative, plus extra draws.
            let mut neg_u = Vec::with_capacity(b * self.cfg.n_negatives);
            let mut neg_i = Vec::with_capacity(b * self.cfg.n_negatives);
            for (k, &u) in batch.users.iter().enumerate() {
                neg_u.push(u);
                neg_i.push(batch.neg_items[k]);
                for _ in 1..self.cfg.n_negatives {
                    neg_u.push(u);
                    neg_i.push(lrgcn_data::sample_negative(ds, u, rng));
                }
            }
            // Item-item constraint pairs: user of each positive vs the
            // positive item's neighbours.
            let mut ii_u = Vec::new();
            let mut ii_j = Vec::new();
            let mut ii_w = Vec::new();
            for (k, &i) in batch.pos_items.iter().enumerate() {
                for &(j, w) in &self.item_neighbors[i as usize] {
                    ii_u.push(batch.users[k]);
                    ii_j.push(j);
                    ii_w.push(w);
                }
            }
            let pos_w: Vec<f32> = batch
                .users
                .iter()
                .zip(&batch.pos_items)
                .map(|(&u, &i)| 1.0 + self.cfg.gamma * self.beta(u, i))
                .collect();
            let neg_w: Vec<f32> = neg_u
                .iter()
                .zip(&neg_i)
                .map(|(&u, &j)| 1.0 + self.cfg.gamma * self.beta(u, j))
                .collect();

            let mut tape = Tape::new();
            let on = self.params.leaves(&mut tape);
            let (p, q) = (on[USER], on[ITEM]);
            // Positive part: Σ w⁺ softplus(-r̂).
            let pu = tape.gather(p, Rc::new(batch.users.clone()));
            let qi = tape.gather(q, Rc::new(batch.pos_items.clone()));
            let r_pos = tape.row_dot(pu, qi);
            let neg_r_pos = tape.neg(r_pos);
            let sp_pos = tape.softplus(neg_r_pos);
            let wp = tape.constant(Matrix::col_vector(pos_w));
            let pos_terms = tape.mul(sp_pos, wp);
            let pos_loss = tape.sum(pos_terms);
            // Negative part: Σ w⁻ softplus(r̂).
            let pun = tape.gather(p, Rc::new(neg_u));
            let qjn = tape.gather(q, Rc::new(neg_i));
            let r_neg = tape.row_dot(pun, qjn);
            let sp_neg = tape.softplus(r_neg);
            let wn = tape.constant(Matrix::col_vector(neg_w));
            let neg_terms = tape.mul(sp_neg, wn);
            let neg_sum = tape.sum(neg_terms);
            let neg_loss = tape.mul_scalar(neg_sum, self.cfg.negative_coef / self.cfg.n_negatives as f32);
            // Item-item constraint: Σ ω softplus(-u·j).
            let mut loss = tape.add(pos_loss, neg_loss);
            if !ii_u.is_empty() && self.cfg.item_item_weight > 0.0 {
                let pui = tape.gather(p, Rc::new(ii_u));
                let qji = tape.gather(q, Rc::new(ii_j));
                let r_ii = tape.row_dot(pui, qji);
                let neg_r_ii = tape.neg(r_ii);
                let sp_ii = tape.softplus(neg_r_ii);
                let wi = tape.constant(Matrix::col_vector(ii_w));
                let ii_terms = tape.mul(sp_ii, wi);
                let ii_sum = tape.sum(ii_terms);
                let ii_loss = tape.mul_scalar(ii_sum, self.cfg.item_item_weight);
                loss = tape.add(loss, ii_loss);
            }
            // Scale by batch size + L2.
            let scaled = tape.mul_scalar(loss, 1.0 / b.max(1) as f32);
            let rp = tape.sq_frobenius(pu);
            let rq = tape.sq_frobenius(qi);
            let regsum = tape.add(rp, rq);
            let reg = tape.mul_scalar(regsum, self.cfg.lambda / b.max(1) as f32);
            let full = tape.add(scaled, reg);
            self.params.step(&mut tape, full, &on);
        }
        self.params.end_epoch()
    }

    fn refresh(&mut self, _ds: &Dataset) {}

    fn score_users(&self, _ds: &Dataset, users: &[u32]) -> Matrix {
        let users = self.params.value(USER).gather_rows(users);
        users.matmul_nt(self.params.value(ITEM))
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
        let cfg = UltraGcnConfig {
            learning_rate: 5e-3,
            ..UltraGcnConfig::default()
        };
        let (r, rand_r) = train_and_eval(
            move |ds, rng| Box::new(UltraGcn::new(ds, cfg, rng)),
            60,
        );
        assert!(r > 1.4 * rand_r, "UltraGCN R@20 {r} vs random {rand_r}");
    }

    #[test]
    fn item_neighbors_symmetric_cooccurrence_and_topk() {
        let ds = tiny_dataset(4);
        let nb = build_item_neighbors(&ds, 3);
        assert_eq!(nb.len(), ds.n_items());
        for (i, ns) in nb.iter().enumerate() {
            assert!(ns.len() <= 3);
            for &(j, w) in ns {
                assert!(w > 0.0);
                assert_ne!(j as usize, i, "self loop in co-occurrence");
            }
            // Sorted by descending weight.
            assert!(ns.windows(2).all(|p| p[0].1 >= p[1].1));
        }
    }

    #[test]
    fn beta_formula() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let m = UltraGcn::new(&ds, UltraGcnConfig::default(), &mut rng);
        let u = 0u32;
        let i = 0u32;
        let du = ds.train().user_degrees()[0].max(1) as f32;
        let di = ds.train().item_degrees()[0] as f32;
        let expect = (1.0 / du) * ((du + 1.0) / (di + 1.0)).sqrt();
        assert!((m.beta(u, i) - expect).abs() < 1e-6);
    }

    #[test]
    fn loss_decreases() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = UltraGcn::new(&ds, UltraGcnConfig::default(), &mut rng);
        let first = m.train_epoch(&ds, 0, &mut rng).loss;
        for e in 1..12 {
            m.train_epoch(&ds, e, &mut rng);
        }
        let last = m.train_epoch(&ds, 12, &mut rng).loss;
        assert!(last < first, "{first} -> {last}");
    }
}
