//! EHCF — Efficient Heterogeneous Collaborative Filtering without negative
//! sampling (Chen et al., AAAI 2020).
//!
//! EHCF reconstructs the whole interaction matrix with a uniformly-weighted
//! squared loss over *all* (user, item) pairs, made tractable by the
//! memorization trick of efficient non-sampling learning:
//!
//! ```text
//! L = Σ_{(u,i)∈R+} [ (1 - c₀) r̂_ui² - 2 r̂_ui ]  +  c₀ · Σ_{t,t'} (PᵀP)_{tt'} (QᵀQ)_{tt'}
//! ```
//!
//! where `c₀` is the weight of unobserved entries. The paper's full EHCF
//! handles multiple behaviour types (view/cart/buy); our datasets have a
//! single behaviour, for which EHCF reduces to exactly this whole-data loss
//! (the reduction is documented in DESIGN.md).

use crate::params::Params;
use crate::traits::{EpochStats, Recommender};
use lrgcn_data::Dataset;
use lrgcn_tensor::{init, Matrix, Tape};
use rand::rngs::StdRng;
use rand::RngExt;
use std::rc::Rc;

/// Parameter groups: the user and the item embedding tables.
const USER: usize = 0;
const ITEM: usize = 1;

/// Hyper-parameters for [`Ehcf`].
#[derive(Clone, Debug)]
pub struct EhcfConfig {
    pub embedding_dim: usize,
    pub learning_rate: f32,
    /// Weight `c₀` of unobserved (missing) entries; EHCF uses small values
    /// like 0.01–0.1.
    pub negative_weight: f32,
    pub lambda: f32,
    /// Users per batch.
    pub batch_size: usize,
}

impl Default for EhcfConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 64,
            learning_rate: 1e-3,
            negative_weight: 0.05,
            lambda: 1e-4,
            batch_size: 512,
        }
    }
}

/// The (single-behaviour) EHCF recommender.
pub struct Ehcf {
    cfg: EhcfConfig,
    params: Params,
}

impl Ehcf {
    pub fn new(ds: &Dataset, cfg: EhcfConfig, rng: &mut StdRng) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.negative_weight),
            "negative weight must be in [0, 1]"
        );
        let users = init::xavier_uniform(ds.n_users(), cfg.embedding_dim, rng);
        let items = init::xavier_uniform(ds.n_items(), cfg.embedding_dim, rng);
        let params = Params::new(cfg.learning_rate)
            .with("user", users)
            .with("item", items);
        Self { cfg, params }
    }
}

impl Recommender for Ehcf {
    fn name(&self) -> String {
        "EHCF".into()
    }

    fn train_epoch(&mut self, ds: &Dataset, _epoch: usize, rng: &mut StdRng) -> EpochStats {
        let c0 = self.cfg.negative_weight;
        let mut users: Vec<u32> = (0..ds.n_users() as u32)
            .filter(|&u| !ds.train_items(u).is_empty())
            .collect();
        for i in (1..users.len()).rev() {
            let j = rng.random_range(0..=i);
            users.swap(i, j);
        }
        for chunk in users.chunks(self.cfg.batch_size) {
            // Flattened positive pairs of this user chunk.
            let mut pos_u = Vec::new();
            let mut pos_i = Vec::new();
            for &u in chunk {
                for &i in ds.train_items(u) {
                    pos_u.push(u);
                    pos_i.push(i);
                }
            }
            let n_pos = pos_u.len().max(1) as f32;
            let mut tape = Tape::new();
            let on = self.params.leaves(&mut tape);
            let (p, q) = (on[USER], on[ITEM]);
            // Positive part: (1 - c0) r̂² - 2 r̂ over observed pairs.
            let pu = tape.gather(p, Rc::new(pos_u));
            let qi = tape.gather(q, Rc::new(pos_i));
            let r = tape.row_dot(pu, qi);
            let r2 = tape.mul(r, r);
            let w_r2 = tape.mul_scalar(r2, 1.0 - c0);
            let minus2r = tape.mul_scalar(r, -2.0);
            let pos_terms = tape.add(w_r2, minus2r);
            let pos_loss = tape.sum(pos_terms);
            // Whole-data part: c0 * Σ (P_BᵀP_B) ⊙ (QᵀQ).
            let pb = tape.gather(p, Rc::new(chunk.to_vec()));
            let ptp = tape.matmul_tn(pb, pb);
            let qtq = tape.matmul_tn(q, q);
            let prod = tape.mul(ptp, qtq);
            let all_loss = tape.sum(prod);
            let w_all = tape.mul_scalar(all_loss, c0);
            let raw = tape.add(pos_loss, w_all);
            let scaled = tape.mul_scalar(raw, 1.0 / n_pos);
            // L2 regularization on the batch embeddings.
            let rp = tape.sq_frobenius(pb);
            let rq = tape.sq_frobenius(qi);
            let regsum = tape.add(rp, rq);
            let reg = tape.mul_scalar(regsum, self.cfg.lambda / n_pos);
            let loss = tape.add(scaled, reg);
            self.params.step(&mut tape, loss, &on);
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
        // The whole-data squared loss trains best with a higher LR and a
        // stronger missing-data weight on this tiny, dense fixture.
        let cfg = EhcfConfig {
            learning_rate: 5e-3,
            negative_weight: 0.1,
            ..EhcfConfig::default()
        };
        let (r, rand_r) = train_and_eval(
            move |ds, rng| Box::new(Ehcf::new(ds, cfg, rng)),
            80,
        );
        assert!(r > 1.3 * rand_r, "EHCF R@20 {r} vs random {rand_r}");
    }

    #[test]
    fn whole_data_term_matches_naive_sum() {
        // Σ_{t,t'} (PᵀP)(QᵀQ) must equal Σ_u Σ_i (p_u · q_i)².
        let p = Matrix::from_vec(2, 2, vec![1.0, 2.0, -0.5, 0.3]);
        let q = Matrix::from_vec(3, 2, vec![0.7, -1.0, 0.2, 0.9, 1.1, 0.4]);
        let mut naive = 0.0f32;
        for u in 0..2 {
            for i in 0..3 {
                let d: f32 = p.row(u).iter().zip(q.row(i)).map(|(a, b)| a * b).sum();
                naive += d * d;
            }
        }
        let trick = {
            let ptp = p.matmul_tn(&p);
            let qtq = q.matmul_tn(&q);
            ptp.data()
                .iter()
                .zip(qtq.data())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        assert!((naive - trick).abs() < 1e-4, "naive {naive} vs trick {trick}");
    }

    #[test]
    fn positive_scores_rise_above_unobserved() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Ehcf::new(&ds, EhcfConfig::default(), &mut rng);
        for e in 0..30 {
            m.train_epoch(&ds, e, &mut rng);
        }
        // Mean score of observed pairs should exceed overall mean score.
        let users: Vec<u32> = (0..ds.n_users() as u32)
            .filter(|&u| !ds.train_items(u).is_empty())
            .take(30)
            .collect();
        let scores = m.score_users(&ds, &users);
        let mut pos_sum = 0.0f64;
        let mut pos_n = 0usize;
        for (r, &u) in users.iter().enumerate() {
            for &i in ds.train_items(u) {
                pos_sum += scores[(r, i as usize)] as f64;
                pos_n += 1;
            }
        }
        let pos_mean = pos_sum / pos_n as f64;
        let all_mean = scores.data().iter().map(|&x| x as f64).sum::<f64>()
            / scores.len() as f64;
        assert!(
            pos_mean > all_mean + 0.1,
            "positive mean {pos_mean} vs all {all_mean}"
        );
    }
}
