//! MultiVAE — Variational Autoencoders for Collaborative Filtering
//! (Liang et al., WWW 2018).
//!
//! An item-based generative model: the (L2-normalized) binary interaction
//! row of a user is encoded into a Gaussian latent `z`, decoded into logits
//! over all items, and trained with the multinomial log-likelihood plus a
//! β-annealed KL term. Architecture here is the one-hidden-layer variant
//! `n_items → H → (μ, log σ²) → H → n_items`, sized down with the synthetic
//! catalogues.

use crate::params::Params;
use crate::traits::{EpochStats, Recommender};
use lrgcn_data::Dataset;
use lrgcn_tensor::{init, Matrix, Tape};
use rand::rngs::StdRng;
use rand::RngExt;
use std::rc::Rc;

/// Parameter groups: encoder, then decoder, weight before bias. Groups 4
/// and 5 are the log-variance head, which only training reads.
const W_ENC: usize = 0;
const B_ENC: usize = 1;
const W_MU: usize = 2;
const B_MU: usize = 3;
const W_DEC: usize = 6;
const B_DEC: usize = 7;
const W_OUT: usize = 8;
const B_OUT: usize = 9;

/// Hyper-parameters for [`MultiVae`].
#[derive(Clone, Debug)]
pub struct MultiVaeConfig {
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Latent dimension.
    pub latent_dim: usize,
    pub learning_rate: f32,
    pub batch_size: usize,
    /// Final KL weight β (annealed linearly from 0 over `anneal_epochs`).
    pub beta: f32,
    pub anneal_epochs: usize,
    /// Input dropout probability on the interaction row.
    pub input_dropout: f32,
}

impl Default for MultiVaeConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 256,
            latent_dim: 64,
            learning_rate: 1e-3,
            batch_size: 256,
            beta: 0.2,
            anneal_epochs: 20,
            input_dropout: 0.3,
        }
    }
}

/// The MultiVAE recommender.
pub struct MultiVae {
    cfg: MultiVaeConfig,
    params: Params,
    epochs_seen: usize,
}

impl MultiVae {
    pub fn new(ds: &Dataset, cfg: MultiVaeConfig, rng: &mut StdRng) -> Self {
        let (n_items, h, z) = (ds.n_items(), cfg.hidden_dim, cfg.latent_dim);
        let params = Params::new(cfg.learning_rate)
            .with("w_enc", init::xavier_uniform(n_items, h, rng))
            .with("b_enc", Matrix::zeros(1, h))
            .with("w_mu", init::xavier_uniform(h, z, rng))
            .with("b_mu", Matrix::zeros(1, z))
            .with("w_logvar", init::xavier_uniform(h, z, rng))
            .with("b_logvar", Matrix::zeros(1, z))
            .with("w_dec", init::xavier_uniform(z, h, rng))
            .with("b_dec", Matrix::zeros(1, h))
            .with("w_out", init::xavier_uniform(h, n_items, rng))
            .with("b_out", Matrix::zeros(1, n_items));
        Self {
            cfg,
            params,
            epochs_seen: 0,
        }
    }

    /// Normalized binary interaction rows of `users` (`len x n_items`).
    fn user_rows(ds: &Dataset, users: &[u32]) -> Matrix {
        let mut m = Matrix::zeros(users.len(), ds.n_items());
        for (r, &u) in users.iter().enumerate() {
            let items = ds.train_items(u);
            if items.is_empty() {
                continue;
            }
            let v = 1.0 / (items.len() as f32).sqrt();
            for &i in items {
                m[(r, i as usize)] = v;
            }
        }
        m
    }
}

impl Recommender for MultiVae {
    fn name(&self) -> String {
        "MultiVAE".into()
    }

    fn train_epoch(&mut self, ds: &Dataset, _epoch: usize, rng: &mut StdRng) -> EpochStats {
        let anneal = ((self.epochs_seen as f32 + 1.0) / self.cfg.anneal_epochs.max(1) as f32)
            .min(1.0)
            * self.cfg.beta;
        self.epochs_seen += 1;
        // All users with at least one training interaction, shuffled.
        let mut users: Vec<u32> = (0..ds.n_users() as u32)
            .filter(|&u| !ds.train_items(u).is_empty())
            .collect();
        for i in (1..users.len()).rev() {
            let j = rng.random_range(0..=i);
            users.swap(i, j);
        }
        for chunk in users.chunks(self.cfg.batch_size) {
            let x_in = Self::user_rows(ds, chunk);
            let b = chunk.len();
            let mut tape = Tape::new();
            // Input dropout on the interaction rows (constant mask).
            let x = if self.cfg.input_dropout > 0.0 {
                let p = self.cfg.input_dropout;
                let scale = 1.0 / (1.0 - p);
                let mask: Vec<f32> = (0..x_in.len())
                    .map(|_| if rng.random::<f32>() < p { 0.0 } else { scale })
                    .collect();
                let raw = tape.constant(x_in.clone());
                tape.dropout(raw, Rc::new(mask))
            } else {
                tape.constant(x_in.clone())
            };
            let on = self.params.leaves(&mut tape);
            let [we, be, wm, bm, wl, bl, wd, bd, wo, bo] = std::array::from_fn(|g| on[g]);

            let h_pre = tape.matmul(x, we);
            let h_b = tape.add_col_broadcast(h_pre, be);
            let h = tape.tanh(h_b);
            let mu_pre = tape.matmul(h, wm);
            let mu = tape.add_col_broadcast(mu_pre, bm);
            let lv_pre = tape.matmul(h, wl);
            let logvar = tape.add_col_broadcast(lv_pre, bl);
            // Reparameterization with constant standard-normal noise.
            let noise = {
                let data: Vec<f32> = (0..b * self.cfg.latent_dim)
                    .map(|_| init::standard_normal(rng))
                    .collect();
                tape.constant(Matrix::from_vec(b, self.cfg.latent_dim, data))
            };
            let half_lv = tape.mul_scalar(logvar, 0.5);
            let std = tape.exp(half_lv);
            let eps_std = tape.mul(noise, std);
            let z = tape.add(mu, eps_std);
            let d_pre = tape.matmul(z, wd);
            let d_b = tape.add_col_broadcast(d_pre, bd);
            let d = tape.tanh(d_b);
            let logits_pre = tape.matmul(d, wo);
            let logits = tape.add_col_broadcast(logits_pre, bo);
            // Multinomial log-likelihood: -sum(x ⊙ log_softmax(logits)) / B.
            let ls = tape.row_log_softmax(logits);
            let x_raw = tape.constant(x_in);
            let picked = tape.mul(ls, x_raw);
            let ll_sum = tape.sum(picked);
            let nll = tape.mul_scalar(ll_sum, -1.0 / b as f32);
            // KL(q||p) = -0.5 sum(1 + logvar - mu^2 - exp(logvar)) / B.
            let mu2 = tape.mul(mu, mu);
            let ev = tape.exp(logvar);
            let one_plus = tape.add_scalar(logvar, 1.0);
            let t1 = tape.sub(one_plus, mu2);
            let t2 = tape.sub(t1, ev);
            let kl_sum = tape.sum(t2);
            let kl = tape.mul_scalar(kl_sum, -0.5 * anneal / b as f32);
            let loss = tape.add(nll, kl);
            self.params.step(&mut tape, loss, &on);
        }
        self.params.end_epoch()
    }

    fn refresh(&mut self, _ds: &Dataset) {}

    fn score_users(&self, ds: &Dataset, users: &[u32]) -> Matrix {
        // Deterministic forward pass: z = μ, no dropout.
        let x_in = Self::user_rows(ds, users);
        let mut tape = Tape::new();
        let x = tape.constant(x_in);
        let used = [W_ENC, B_ENC, W_MU, B_MU, W_DEC, B_DEC, W_OUT, B_OUT];
        let [we, be, wm, bm, wd, bd, wo, bo] =
            used.map(|g| tape.constant(self.params.value(g).clone()));
        let h_pre = tape.matmul(x, we);
        let h_b = tape.add_col_broadcast(h_pre, be);
        let h = tape.tanh(h_b);
        let mu_pre = tape.matmul(h, wm);
        let mu = tape.add_col_broadcast(mu_pre, bm);
        let d_pre = tape.matmul(mu, wd);
        let d_b = tape.add_col_broadcast(d_pre, bd);
        let d = tape.tanh(d_b);
        let logits_pre = tape.matmul(d, wo);
        let logits = tape.add_col_broadcast(logits_pre, bo);
        tape.value(logits).clone()
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
            |ds, rng| Box::new(MultiVae::new(ds, MultiVaeConfig::default(), rng)),
            30,
        );
        assert!(r > 1.3 * rand_r, "MultiVAE R@20 {r} vs random {rand_r}");
    }

    #[test]
    fn loss_finite_and_decreasing() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = MultiVae::new(&ds, MultiVaeConfig::default(), &mut rng);
        let first = m.train_epoch(&ds, 0, &mut rng).loss;
        assert!(first.is_finite());
        for e in 1..12 {
            m.train_epoch(&ds, e, &mut rng);
        }
        let last = m.train_epoch(&ds, 12, &mut rng).loss;
        assert!(last < first, "{first} -> {last}");
    }

    #[test]
    fn scoring_is_deterministic() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let m = MultiVae::new(&ds, MultiVaeConfig::default(), &mut rng);
        let a = m.score_users(&ds, &[0, 1]);
        let b = m.score_users(&ds, &[0, 1]);
        assert!(a.approx_eq(&b, 0.0));
        assert_eq!(a.shape(), (2, ds.n_items()));
    }

    #[test]
    fn user_rows_are_l2_normalized() {
        let ds = tiny_dataset(4);
        let users: Vec<u32> = (0..ds.n_users() as u32)
            .filter(|&u| !ds.train_items(u).is_empty())
            .take(5)
            .collect();
        let rows = MultiVae::user_rows(&ds, &users);
        for r in 0..rows.rows() {
            assert!((rows.row_norm(r) - 1.0).abs() < 1e-5);
        }
    }
}
