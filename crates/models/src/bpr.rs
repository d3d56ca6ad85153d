//! BPR-MF — matrix factorization with the Bayesian Personalized Ranking
//! loss (Rendle et al., UAI 2009). The paper's first baseline.

use crate::params::Params;
use crate::traits::{EpochStats, Recommender};
use lrgcn_data::{BprEpoch, Dataset};
use lrgcn_tensor::{init, Matrix, Tape};
use rand::rngs::StdRng;
use std::rc::Rc;

/// Parameter groups: the user and the item factor tables.
const USER: usize = 0;
const ITEM: usize = 1;

/// Hyper-parameters for [`BprMf`].
#[derive(Clone, Debug)]
pub struct BprMfConfig {
    pub embedding_dim: usize,
    pub learning_rate: f32,
    /// L2 coefficient λ of Eq. 12.
    pub lambda: f32,
    pub batch_size: usize,
}

impl Default for BprMfConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 64,
            learning_rate: 1e-3,
            lambda: 1e-4,
            batch_size: 2048,
        }
    }
}

/// Matrix factorization trained with BPR.
pub struct BprMf {
    cfg: BprMfConfig,
    params: Params,
}

impl BprMf {
    pub fn new(ds: &Dataset, cfg: BprMfConfig, rng: &mut StdRng) -> Self {
        let users = init::xavier_uniform(ds.n_users(), cfg.embedding_dim, rng);
        let items = init::xavier_uniform(ds.n_items(), cfg.embedding_dim, rng);
        let params = Params::new(cfg.learning_rate)
            .with("user", users)
            .with("item", items);
        Self { cfg, params }
    }

    /// Read-only view of the learned user factors.
    pub fn user_factors(&self) -> &Matrix {
        self.params.value(USER)
    }

    /// Read-only view of the learned item factors.
    pub fn item_factors(&self) -> &Matrix {
        self.params.value(ITEM)
    }
}

impl Recommender for BprMf {
    fn name(&self) -> String {
        "BPR".into()
    }

    fn train_epoch(&mut self, ds: &Dataset, _epoch: usize, rng: &mut StdRng) -> EpochStats {
        let batches: Vec<_> = BprEpoch::new(ds, self.cfg.batch_size, rng).collect();
        for batch in batches {
            let mut tape = Tape::new();
            let on = self.params.leaves(&mut tape);
            let u = tape.gather(on[USER], Rc::new(batch.users.clone()));
            let i = tape.gather(on[ITEM], Rc::new(batch.pos_items.clone()));
            let j = tape.gather(on[ITEM], Rc::new(batch.neg_items.clone()));
            let pos = tape.row_dot(u, i);
            let neg = tape.row_dot(u, j);
            let diff = tape.sub(neg, pos);
            let sp = tape.softplus(diff);
            let bpr = tape.mean_all(sp);
            let ru = tape.sq_frobenius(u);
            let ri = tape.sq_frobenius(i);
            let rj = tape.sq_frobenius(j);
            let r1 = tape.add(ru, ri);
            let r2 = tape.add(r1, rj);
            let reg = tape.mul_scalar(r2, self.cfg.lambda / batch.len().max(1) as f32);
            let loss = tape.add(bpr, reg);
            self.params.step(&mut tape, loss, &on);
        }
        self.params.end_epoch()
    }

    fn refresh(&mut self, _ds: &Dataset) {}

    fn score_users(&self, _ds: &Dataset, users: &[u32]) -> Matrix {
        self.user_factors()
            .gather_rows(users)
            .matmul_nt(self.item_factors())
    }

    fn n_parameters(&self) -> usize {
        self.params.n_parameters()
    }

    fn snapshot(&self) -> Option<Vec<Matrix>> {
        Some(self.params.snapshot())
    }

    fn restore(&mut self, values: Vec<Matrix>) {
        self.params.restore(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tiny_dataset, train_and_eval};

    #[test]
    fn loss_decreases_over_epochs() {
        let ds = tiny_dataset(42);
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = BprMf::new(&ds, BprMfConfig::default(), &mut rng);
        let first = m.train_epoch(&ds, 0, &mut rng).loss;
        for e in 1..20 {
            m.train_epoch(&ds, e, &mut rng);
        }
        let last = m.train_epoch(&ds, 20, &mut rng).loss;
        assert!(last < first, "loss {first} -> {last} did not decrease");
    }

    #[test]
    fn beats_random_ranking() {
        // Pure MF has no graph signal, so it needs a higher LR and more
        // epochs than the GCN models to clear the random floor on the tiny
        // fixture (whose 80-item catalogue makes random R@20 ≈ 0.26).
        let cfg = BprMfConfig {
            learning_rate: 5e-3,
            ..BprMfConfig::default()
        };
        let (bpr_r20, random_r20) = train_and_eval(
            move |ds, rng| Box::new(BprMf::new(ds, cfg, rng)),
            80,
        );
        assert!(
            bpr_r20 > 1.3 * random_r20,
            "BPR R@20 {bpr_r20} vs random {random_r20}"
        );
    }

    #[test]
    fn score_shape() {
        let ds = tiny_dataset(1);
        let mut rng = StdRng::seed_from_u64(2);
        let m = BprMf::new(&ds, BprMfConfig::default(), &mut rng);
        let s = m.score_users(&ds, &[0, 3, 5]);
        assert_eq!(s.shape(), (3, ds.n_items()));
        assert!(!s.has_non_finite());
    }

    use rand::SeedableRng;
}
