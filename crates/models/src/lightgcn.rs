//! LightGCN with learnable layer weights — the variant used to
//! demonstrate the "solution collapsing" half of the paper's
//! recommendation dilemma (Fig. 1). Plain LightGCN (He et al., SIGIR 2020;
//! Eq. 2 of the paper) is [`crate::egogcn::LightGcn`].

use crate::common::{
    bpr_loss, consecutive_smoothness, full_adjacency, propagate_matrix, score_from_final,
};
use crate::egogcn::{LightGcnConfig, Propagation};
use crate::params::Params;
use crate::traits::{EpochStats, ModelDiagnostics, Recommender};
use lrgcn_data::{BprEpoch, Dataset};
use lrgcn_tensor::tape::SharedCsr;
use lrgcn_tensor::{init, Matrix, Tape};
use rand::rngs::StdRng;
use std::rc::Rc;

/// Parameter groups: the ego table and the raw readout logits, shape
/// `(L+1, 1)`, whose softmax weighs the layers.
const EGO: usize = 0;
const LAYER_LOGITS: usize = 1;

/// LightGCN with *learnable* softmax weights over layer embeddings.
///
/// This is the variant the paper uses to expose "solution collapsing":
/// training drives nearly all readout weight onto the ego layer (Fig. 1).
/// [`WeightedLightGcn::layer_weights`] exposes the current softmax weights so
/// the experiment can log them per epoch.
pub struct WeightedLightGcn {
    cfg: LightGcnConfig,
    params: Params,
    adj: SharedCsr,
    inference: Option<Matrix>,
}

impl WeightedLightGcn {
    pub fn new(ds: &Dataset, cfg: LightGcnConfig, rng: &mut StdRng) -> Self {
        let n = ds.n_users() + ds.n_items();
        let params = Params::new(cfg.learning_rate)
            .with("ego", init::xavier_uniform(n, cfg.embedding_dim, rng))
            .with("layer_logits", Matrix::zeros(cfg.n_layers + 1, 1));
        let adj = full_adjacency(ds);
        Self {
            cfg,
            params,
            adj,
            inference: None,
        }
    }

    /// Current softmax weights over layers `0..=L` (ego layer first).
    pub fn layer_weights(&self) -> Vec<f32> {
        let logits = self.params.value(LAYER_LOGITS).data();
        let mx = logits.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let exp: Vec<f32> = logits.iter().map(|&x| (x - mx).exp()).collect();
        let z: f32 = exp.iter().sum();
        exp.into_iter().map(|e| e / z).collect()
    }

    fn weighted_final(&self) -> Matrix {
        let layers = propagate_matrix(self.adj.matrix(), self.params.value(EGO), self.cfg.n_layers);
        let w = self.layer_weights();
        let mut acc = Matrix::zeros(layers[0].rows(), layers[0].cols());
        for (l, wl) in layers.iter().zip(w) {
            acc.add_scaled(l, wl);
        }
        acc
    }
}

impl Recommender for WeightedLightGcn {
    fn name(&self) -> String {
        format!("LightGCN-{}L-learnable", self.cfg.n_layers)
    }

    fn train_epoch(&mut self, ds: &Dataset, _epoch: usize, rng: &mut StdRng) -> EpochStats {
        self.inference = None;
        let batches: Vec<_> = BprEpoch::new(ds, self.cfg.batch_size, rng).collect();
        for batch in batches {
            let mut tape = Tape::new();
            let on = self.params.leaves(&mut tape);
            let (x0, logits) = (on[EGO], on[LAYER_LOGITS]);
            let (layers, _) = Propagation::Light.chain(&mut tape, &self.adj, x0, self.cfg.n_layers);
            // softmax over the (L+1, 1) logits column.
            let e = tape.exp(logits);
            let z = tape.sum(e);
            let zr = tape.recip(z, 1e-30);
            let sm = tape.mul_scalar_var(e, zr);
            // final = sum_l sm[l] * X^l.
            let mut final_x = None;
            for (l, &layer) in layers.iter().enumerate() {
                let wl = tape.gather(sm, Rc::new(vec![l as u32]));
                let term = tape.mul_scalar_var(layer, wl);
                final_x = Some(match final_x {
                    None => term,
                    Some(acc) => tape.add(acc, term),
                });
            }
            let final_x = final_x.expect("at least one layer");
            let loss = bpr_loss(&mut tape, final_x, x0, ds.n_users(), &batch, self.cfg.lambda);
            self.params.step(&mut tape, loss, &on);
        }
        self.params.end_epoch()
    }

    fn refresh(&mut self, _ds: &Dataset) {
        self.inference = Some(self.weighted_final());
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
        let chain = propagate_matrix(self.adj.matrix(), self.params.value(EGO), self.cfg.n_layers);
        // The learned softmax readout weights — the Fig. 1 "solution
        // collapsing" trajectory when logged across epochs.
        let weights = self.layer_weights().iter().map(|&w| w as f64).collect();
        let smoothness = consecutive_smoothness(&chain);
        Some(self.params.diagnostics(smoothness, weights))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::tiny_dataset;
    use rand::SeedableRng;

    #[test]
    fn weighted_variant_weights_are_simplex() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let m = WeightedLightGcn::new(&ds, LightGcnConfig::default(), &mut rng);
        let w = m.layer_weights();
        assert_eq!(w.len(), 5);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        // Zero logits -> uniform.
        assert!(w.iter().all(|&x| (x - 0.2).abs() < 1e-5));
    }

    #[test]
    fn weighted_variant_trains_and_moves_weights() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = WeightedLightGcn::new(&ds, LightGcnConfig::default(), &mut rng);
        let w0 = m.layer_weights();
        for e in 0..10 {
            let s = m.train_epoch(&ds, e, &mut rng);
            assert!(s.loss.is_finite());
        }
        let w1 = m.layer_weights();
        assert_ne!(w0, w1, "layer weights never moved");
        assert!((w1.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    /// The paper's Fig. 1 claim, in miniature: with learnable layer weights
    /// the ego layer's weight grows to dominate during training.
    #[test]
    fn ego_layer_weight_grows() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = WeightedLightGcn::new(&ds, LightGcnConfig::default(), &mut rng);
        for e in 0..30 {
            m.train_epoch(&ds, e, &mut rng);
        }
        let w = m.layer_weights();
        assert!(
            w[0] > 0.2,
            "ego weight should grow above uniform 0.2, got {w:?}"
        );
    }
}
