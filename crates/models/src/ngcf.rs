//! NGCF — Neural Graph Collaborative Filtering (Wang et al., SIGIR 2019).
//!
//! Per layer: `E^{l+1} = LeakyReLU( (ÂE^l + E^l) W₁ + (ÂE^l ⊙ E^l) W₂ )`,
//! followed by message dropout and per-layer L2 normalization; the readout
//! concatenates all (normalized) layers including the ego layer, and scores
//! by inner product in the concatenated space.

use crate::common::{bpr_loss, consecutive_smoothness, full_adjacency};
use crate::params::{Leaves, Params};
use crate::traits::{EpochStats, ModelDiagnostics, Recommender};
use lrgcn_data::{BprEpoch, Dataset};
use lrgcn_tensor::tape::{SharedCsr, Tape, Var};
use lrgcn_tensor::{init, Matrix};
use rand::rngs::StdRng;
use rand::RngExt;
use std::rc::Rc;

/// Parameter groups: the ego table and the per-layer `W₁`, `W₂`.
const EGO: usize = 0;
const W1: usize = 1;
const W2: usize = 2;

/// Hyper-parameters for [`Ngcf`].
#[derive(Clone, Debug)]
pub struct NgcfConfig {
    pub embedding_dim: usize,
    pub n_layers: usize,
    pub learning_rate: f32,
    pub lambda: f32,
    pub batch_size: usize,
    /// Message dropout probability (paper default 0.1).
    pub message_dropout: f32,
    pub leaky_slope: f32,
}

impl Default for NgcfConfig {
    fn default() -> Self {
        Self {
            embedding_dim: 64,
            n_layers: 3,
            learning_rate: 1e-3,
            lambda: 1e-4,
            batch_size: 2048,
            message_dropout: 0.1,
            leaky_slope: 0.2,
        }
    }
}

/// The NGCF recommender.
pub struct Ngcf {
    cfg: NgcfConfig,
    params: Params,
    adj: SharedCsr,
    inference: Option<Matrix>,
}

/// Tape nodes produced by one NGCF forward pass.
struct NgcfForward {
    final_x: Var,
    on: Leaves,
    /// The per-layer normalized embeddings the readout concatenates
    /// (ego first) — the layer chain for smoothness diagnostics.
    parts: Vec<Var>,
}

impl Ngcf {
    pub fn new(ds: &Dataset, cfg: NgcfConfig, rng: &mut StdRng) -> Self {
        let n = ds.n_users() + ds.n_items();
        let t = cfg.embedding_dim;
        let ego = init::xavier_uniform(n, t, rng);
        let mut weights = || {
            (0..cfg.n_layers)
                .map(|_| init::xavier_uniform(t, t, rng))
                .collect()
        };
        let params = Params::new(cfg.learning_rate)
            .with("ego", ego)
            .with_list("w1", weights())
            .with_list("w2", weights());
        let adj = full_adjacency(ds);
        Self {
            cfg,
            params,
            adj,
            inference: None,
        }
    }

    /// Builds the concatenated-layer representation. `dropout_rng` enables
    /// message dropout (training); `None` disables it (inference).
    fn forward(&self, tape: &mut Tape, dropout_rng: Option<&mut StdRng>) -> NgcfForward {
        let on = self.params.leaves(tape);
        let (x0, w1v, w2v) = (on[EGO], on.group(W1), on.group(W2));
        let mut parts = Vec::with_capacity(self.cfg.n_layers + 1);
        let norm0 = tape.row_l2_normalize(x0, 1e-12);
        parts.push(norm0);
        let mut h = x0;
        let mut rng = dropout_rng;
        for l in 0..self.cfg.n_layers {
            let side = tape.spmm(&self.adj, h);
            let sum_msg = tape.add(side, h);
            let a = tape.matmul(sum_msg, w1v[l]);
            let inter = tape.mul(side, h);
            let b = tape.matmul(inter, w2v[l]);
            let pre = tape.add(a, b);
            let mut act = tape.leaky_relu(pre, self.cfg.leaky_slope);
            if let Some(r) = rng.as_deref_mut() {
                if self.cfg.message_dropout > 0.0 {
                    let p = self.cfg.message_dropout;
                    let scale = 1.0 / (1.0 - p);
                    let mask: Vec<f32> = (0..tape.value(act).len())
                        .map(|_| if r.random::<f32>() < p { 0.0 } else { scale })
                        .collect();
                    act = tape.dropout(act, Rc::new(mask));
                }
            }
            let normed = tape.row_l2_normalize(act, 1e-12);
            parts.push(normed);
            h = act;
        }
        let final_x = tape.concat_cols(&parts);
        NgcfForward { final_x, on, parts }
    }
}

impl Recommender for Ngcf {
    fn name(&self) -> String {
        "NGCF".into()
    }

    fn train_epoch(&mut self, ds: &Dataset, _epoch: usize, rng: &mut StdRng) -> EpochStats {
        self.inference = None;
        let batches: Vec<_> = BprEpoch::new(ds, self.cfg.batch_size, rng).collect();
        for batch in batches {
            let mut tape = Tape::new();
            let NgcfForward { final_x, on, .. } = self.forward(&mut tape, Some(rng));
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
        self.params.end_epoch()
    }

    fn refresh(&mut self, _ds: &Dataset) {
        let mut tape = Tape::new();
        let fwd = self.forward(&mut tape, None);
        self.inference = Some(tape.value(fwd.final_x).clone());
    }

    fn score_users(&self, ds: &Dataset, users: &[u32]) -> Matrix {
        let inference = self
            .inference
            .as_ref()
            .expect("refresh() must be called before score_users");
        crate::common::score_from_final(inference, ds.n_users(), users)
    }

    fn n_parameters(&self) -> usize {
        self.params.n_parameters()
    }

    fn diagnostics(&self, _ds: &Dataset) -> Option<ModelDiagnostics> {
        // Dropout-free forward; the chain is the normalized per-layer
        // embeddings the concat readout sees (ego first).
        let mut tape = Tape::new();
        let fwd = self.forward(&mut tape, None);
        let chain: Vec<Matrix> = fwd.parts.iter().map(|&p| tape.value(p).clone()).collect();
        // Concatenation readout: no per-layer weighting.
        let smoothness = consecutive_smoothness(&chain);
        Some(self.params.diagnostics(smoothness, Vec::new()))
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
            |ds, rng| Box::new(Ngcf::new(ds, NgcfConfig::default(), rng)),
            25,
        );
        assert!(r > 1.5 * rand_r, "NGCF R@20 {r} vs random {rand_r}");
    }

    #[test]
    fn concatenated_width() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Ngcf::new(&ds, NgcfConfig::default(), &mut rng);
        m.refresh(&ds);
        let s = m.score_users(&ds, &[0]);
        assert_eq!(s.shape(), (1, ds.n_items()));
        let inf = m.inference.as_ref().expect("cached");
        assert_eq!(inf.cols(), 64 * 4); // ego + 3 layers
    }

    #[test]
    fn dropout_off_at_inference_is_deterministic() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Ngcf::new(&ds, NgcfConfig::default(), &mut rng);
        m.refresh(&ds);
        let a = m.score_users(&ds, &[1, 2]);
        m.refresh(&ds);
        let b = m.score_users(&ds, &[1, 2]);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn loss_decreases() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = Ngcf::new(&ds, NgcfConfig::default(), &mut rng);
        let first = m.train_epoch(&ds, 0, &mut rng).loss;
        for e in 1..12 {
            m.train_epoch(&ds, e, &mut rng);
        }
        let last = m.train_epoch(&ds, 12, &mut rng).loss;
        assert!(last < first, "{first} -> {last}");
    }
}
