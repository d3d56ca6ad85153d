//! The residual-connection family of §IV-B.
//!
//! The paper positions LayerGCN against three fixed-weight alternatives for
//! keeping deep GCNs from over-smoothing, all implemented here for the
//! ablation in `exp_residual`:
//!
//! * [`ResidualKind::Vanilla`] — Eq. 1: `X^{l+1} = σ(Â X^l W^l)` with the
//!   re-normalization trick `Â = D̂^{-1/2}(A+I)D̂^{-1/2}` (Kipf & Welling);
//! * [`ResidualKind::Residual`] — Eq. 22/23: `X^{l+1} = Â X^l + X^l = (Â + I) X^l`
//!   (previous-layer residual; simplified linear form, feature transforms
//!   removed as §IV-B does for analysis);
//! * [`ResidualKind::InitialResidual`] — the GCNII-style initial residual
//!   `X^{l+1} = (1-α) Â X^l + α X^0` with a *fixed* hyper-parameter α —
//!   the paper's contrast to LayerGCN's dynamically learned weighting.
//!
//! All three use mean readout over layers and train with the same BPR
//! objective as LightGCN, so the only variable is the skip-connection
//! scheme.

use crate::common::{bpr_loss, mean_readout, score_from_final};
use crate::params::{Leaves, Params};
use crate::traits::{EpochStats, Recommender};
use lrgcn_data::{BprEpoch, Dataset};
use lrgcn_tensor::tape::{SharedCsr, Tape, Var};
use lrgcn_tensor::{init, Matrix};
use rand::rngs::StdRng;

/// Parameter groups: the ego table and the per-layer feature transforms
/// `W^l` (only for [`ResidualKind::Vanilla`]; empty otherwise).
const EGO: usize = 0;
const WEIGHTS: usize = 1;

/// Which skip-connection scheme a [`ResidualFamilyGcn`] uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ResidualKind {
    /// Eq. 1 with per-layer weights `W^l` and LeakyReLU, over the
    /// self-loop re-normalized adjacency.
    Vanilla,
    /// Eq. 22: previous-layer residual, linearized.
    Residual,
    /// GCNII-style: `(1-α) ÂX^l + α X^0` with fixed α.
    InitialResidual {
        /// Fixed mixing weight of the ego layer (GCNII keeps this low).
        alpha: f32,
    },
}

/// Hyper-parameters shared by the family.
#[derive(Clone, Debug)]
pub struct ResidualGcnConfig {
    pub kind: ResidualKind,
    pub embedding_dim: usize,
    pub n_layers: usize,
    pub learning_rate: f32,
    pub lambda: f32,
    pub batch_size: usize,
}

impl Default for ResidualGcnConfig {
    fn default() -> Self {
        Self {
            kind: ResidualKind::Residual,
            embedding_dim: 64,
            n_layers: 4,
            learning_rate: 1e-3,
            lambda: 1e-4,
            batch_size: 2048,
        }
    }
}

/// One recommender covering the whole §IV-B family (selected by
/// [`ResidualKind`]).
pub struct ResidualFamilyGcn {
    cfg: ResidualGcnConfig,
    params: Params,
    adj: SharedCsr,
    inference: Option<Matrix>,
}

impl ResidualFamilyGcn {
    pub fn new(ds: &Dataset, cfg: ResidualGcnConfig, rng: &mut StdRng) -> Self {
        if let ResidualKind::InitialResidual { alpha } = cfg.kind {
            assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        }
        let n = ds.n_users() + ds.n_items();
        let t = cfg.embedding_dim;
        let ego = init::xavier_uniform(n, t, rng);
        let weights = if matches!(cfg.kind, ResidualKind::Vanilla) {
            (0..cfg.n_layers)
                .map(|_| init::xavier_uniform(t, t, rng))
                .collect()
        } else {
            Vec::new()
        };
        let params = Params::new(cfg.learning_rate)
            .with("ego", ego)
            .with_list("weights", weights);
        // Vanilla GCN uses the self-loop re-normalized adjacency; the
        // linear variants use the LightGCN transition matrix.
        let adj = if matches!(cfg.kind, ResidualKind::Vanilla) {
            SharedCsr::new(ds.train().renorm_adjacency_with_self_loops())
        } else {
            SharedCsr::new(ds.train().norm_adjacency())
        };
        Self {
            cfg,
            params,
            adj,
            inference: None,
        }
    }

    fn forward(&self, tape: &mut Tape) -> (Var, Leaves) {
        let on = self.params.leaves(tape);
        let (x0, wv) = (on[EGO], on.group(WEIGHTS));
        let mut layers = vec![x0];
        let mut h = x0;
        // `wv` is empty for the linear kinds, so the index loop (not an
        // iterator over `wv`) is the correct shape here.
        #[allow(clippy::needless_range_loop)]
        for layer_idx in 0..self.cfg.n_layers {
            let prop = tape.spmm(&self.adj, h);
            h = match self.cfg.kind {
                ResidualKind::Vanilla => {
                    let lin = tape.matmul(prop, wv[layer_idx]);
                    tape.leaky_relu(lin, 0.2)
                }
                ResidualKind::Residual => tape.add(prop, h),
                ResidualKind::InitialResidual { alpha } => {
                    let scaled_prop = tape.mul_scalar(prop, 1.0 - alpha);
                    let scaled_ego = tape.mul_scalar(x0, alpha);
                    tape.add(scaled_prop, scaled_ego)
                }
            };
            layers.push(h);
        }
        let final_x = mean_readout(tape, &layers);
        (final_x, on)
    }
}

impl Recommender for ResidualFamilyGcn {
    fn name(&self) -> String {
        match self.cfg.kind {
            ResidualKind::Vanilla => "GCN (vanilla)".into(),
            ResidualKind::Residual => "GCN+residual".into(),
            ResidualKind::InitialResidual { alpha } => {
                format!("GCNII-style (α={alpha})")
            }
        }
    }

    fn train_epoch(&mut self, ds: &Dataset, _epoch: usize, rng: &mut StdRng) -> EpochStats {
        self.inference = None;
        let batches: Vec<_> = BprEpoch::new(ds, self.cfg.batch_size, rng).collect();
        for batch in batches {
            let mut tape = Tape::new();
            let (final_x, on) = self.forward(&mut tape);
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
        let (final_x, _) = self.forward(&mut tape);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tiny_dataset, train_and_eval};
    use rand::SeedableRng;

    fn factory(kind: ResidualKind) -> impl FnOnce(&Dataset, &mut StdRng) -> Box<dyn Recommender> {
        move |ds, rng| {
            Box::new(ResidualFamilyGcn::new(
                ds,
                ResidualGcnConfig { kind, ..Default::default() },
                rng,
            ))
        }
    }

    #[test]
    fn residual_beats_random() {
        let (r, rand_r) = train_and_eval(factory(ResidualKind::Residual), 25);
        assert!(r > 1.5 * rand_r, "GCN+residual R@20 {r} vs random {rand_r}");
    }

    #[test]
    fn initial_residual_beats_random() {
        let (r, rand_r) = train_and_eval(
            factory(ResidualKind::InitialResidual { alpha: 0.1 }),
            25,
        );
        assert!(r > 1.5 * rand_r, "GCNII-style R@20 {r} vs random {rand_r}");
    }

    #[test]
    fn vanilla_trains_without_divergence() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ResidualGcnConfig {
            kind: ResidualKind::Vanilla,
            n_layers: 2,
            ..Default::default()
        };
        let mut m = ResidualFamilyGcn::new(&ds, cfg, &mut rng);
        let first = m.train_epoch(&ds, 0, &mut rng).loss;
        for e in 1..10 {
            let s = m.train_epoch(&ds, e, &mut rng);
            assert!(s.loss.is_finite());
        }
        let last = m.train_epoch(&ds, 10, &mut rng).loss;
        assert!(last < first, "{first} -> {last}");
        assert!(
            m.n_parameters() > m.params.value(EGO).len(),
            "vanilla must carry W"
        );
    }

    /// Eq. 23: the residual propagation equals propagation with Â + I.
    #[test]
    fn residual_equals_shifted_adjacency() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ResidualGcnConfig {
            kind: ResidualKind::Residual,
            n_layers: 1,
            ..Default::default()
        };
        let m = ResidualFamilyGcn::new(&ds, cfg, &mut rng);
        let mut tape = Tape::new();
        let (_, on) = m.forward(&mut tape);
        let x0v = tape.value(on[EGO]).clone();
        // Manual (Â + I) X.
        let prop = m.adj.matrix().spmm(x0v.data(), x0v.cols());
        let manual = Matrix::from_vec(x0v.rows(), x0v.cols(), prop).add(&x0v);
        // Layer 1 = second half of the mean readout * 2 - x0 ... simpler:
        // recompute forward and read the final mean = (X0 + L1)/2.
        let mut tape2 = Tape::new();
        let (f, _) = m.forward(&mut tape2);
        let fv = tape2.value(f);
        let mut expect = manual.add(&x0v);
        expect.scale(0.5);
        assert!(fv.approx_eq(&expect, 1e-5));
    }

    #[test]
    fn alpha_one_freezes_representation() {
        // α = 1 keeps X^{l+1} = X^0: the final embedding equals the ego
        // layer regardless of depth.
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = ResidualGcnConfig {
            kind: ResidualKind::InitialResidual { alpha: 1.0 },
            n_layers: 3,
            ..Default::default()
        };
        let m = ResidualFamilyGcn::new(&ds, cfg, &mut rng);
        let mut tape = Tape::new();
        let (f, on) = m.forward(&mut tape);
        assert!(tape.value(f).approx_eq(tape.value(on[EGO]), 1e-6));
    }
}
