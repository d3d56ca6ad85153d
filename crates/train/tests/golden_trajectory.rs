//! Golden-trajectory regression test.
//!
//! Freezes seeded 3-epoch runs of the three ego-table GCN families on the
//! scaled MOOC preset: LayerGCN, LightGCN and LR-GCCF. For each, the
//! per-epoch training losses, validation Recall@20 values and a per-layer
//! probe (LayerGCN: the refinement similarities; LightGCN and LR-GCCF:
//! `diagnostics().smoothness`) are pinned to constants captured from the
//! reference build, and so is a 64-bit hash of the bits of every cell of
//! the final `final_embeddings()` table. Every other trained model — each
//! `ModelKind` of Table II, the residual family, the learnable-weight
//! LightGCN and LayerGCN-SSL — is pinned by its exact per-epoch loss,
//! validation Recall@20 and a hash of the bits of its `score_users` over
//! every user, since not every model has `final_embeddings`
//! ([`SCORE_PINS`]). The ego-table models are pinned the same way on a
//! cold catalogue where most nodes, items included, have no training edge
//! ([`COLD_PINS`]), so batches that draw edgeless negatives are covered
//! too. Any future kernel rewrite,
//! parallelization change, optimizer tweak or model refactor that silently
//! perturbs the numerics fails here instead of shipping — the kernels are
//! contractually bitwise identical across thread counts, so this test
//! passes unchanged at `LRGCN_THREADS=1` and `LRGCN_THREADS=8`.
//!
//! To re-capture after an *intentional* numeric change, run with
//! `LRGCN_GOLDEN_PRINT=1` and paste the printed table:
//!
//! ```text
//! LRGCN_GOLDEN_PRINT=1 cargo test -p lrgcn-train --test golden_trajectory -- --nocapture
//! ```

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_graph::EdgePruner;
use lrgcn_models::traits::{EpochStats, ModelDiagnostics};
use lrgcn_models::{
    LayerGcn, LayerGcnConfig, LayerGcnSsl, LayerGcnSslConfig, LightGcn, LightGcnConfig, LrGccf,
    LrGccfConfig, ModelKind, Recommender, ResidualFamilyGcn, ResidualGcnConfig, ResidualKind,
    WeightedLightGcn,
};
use lrgcn_tensor::Matrix;
use lrgcn_train::{train_with_early_stopping, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

const EPOCHS: usize = 3;
const TOL: f64 = 1e-6;

/// Captured from the reference build (seed 2023 model init, seed 7
/// sampling). Loss is the mean BPR+L2 objective per epoch; recall is
/// validation Recall@20 (eval_every = 1, so every epoch validates).
/// Pasted verbatim from `LRGCN_GOLDEN_PRINT=1` at 17 digits — more than
/// f64 can hold, which is the point: the parsed constant is bit-exact.
#[allow(clippy::excessive_precision)]
const GOLDEN_LOSS: [f64; EPOCHS] = [
    0.69378465414047241,
    0.69375324249267578,
    0.69372189044952393,
];
#[allow(clippy::excessive_precision)]
const GOLDEN_RECALL: [f64; EPOCHS] = [
    0.67581300813008127,
    0.66463414634146345,
    0.68191056910569103,
];
/// Per-epoch LayerGCN layer similarities (the Fig. 5 refinement weights,
/// recorded into `History::layer_values` by `record_diagnostics`). The
/// diagnostics probe accumulates serially in f64, so these too are
/// thread-invariant and pinned to the same tolerance.
#[allow(clippy::excessive_precision)]
const GOLDEN_SIMS: [[f64; 4]; EPOCHS] = [
    [
        0.01855245605111122,
        0.08845362812280655,
        0.01677223108708858,
        0.06840750575065613,
    ],
    [
        0.03228902444243431,
        0.15920068323612213,
        0.03093312866985798,
        0.12100542336702347,
    ],
    [
        0.04605074599385262,
        0.19458585977554321,
        0.04709725454449654,
        0.13851954042911530,
    ],
];

/// FNV-1a hash of LayerGCN's `final_embeddings()` after its run.
const GOLDEN_LAYERGCN_EMB_HASH: u64 = 0xc4c9b45beedbe1f5;

#[allow(clippy::excessive_precision)]
const GOLDEN_LIGHTGCN_LOSS: [f64; EPOCHS] = [
    0.69157016277313232,
    0.69130361080169678,
    0.69096845388412476,
];
#[allow(clippy::excessive_precision)]
const GOLDEN_LIGHTGCN_RECALL: [f64; EPOCHS] = [
    0.77032520325203258,
    0.77642276422764234,
    0.79166666666666674,
];
/// LightGCN's `diagnostics().smoothness` per epoch: cosine of each
/// consecutive layer pair of `[X^0, ..., X^4]`.
#[allow(clippy::excessive_precision)]
const GOLDEN_LIGHTGCN_SMOOTHNESS: [[f64; 4]; EPOCHS] = [
    [
        0.01689154500071894,
        0.08708745893848917,
        0.10811139031438531,
        0.12180046798267263,
    ],
    [
        0.02858095795535506,
        0.13657913370438907,
        0.16229801690497270,
        0.17437261185829603,
    ],
    [
        0.04029933023425771,
        0.18196977973713616,
        0.21192109633642997,
        0.22254072834074129,
    ],
];
const GOLDEN_LIGHTGCN_EMB_HASH: u64 = 0x07619ec29d62b0e2;

#[allow(clippy::excessive_precision)]
const GOLDEN_LRGCCF_LOSS: [f64; EPOCHS] = [
    0.52666670083999634,
    0.50596481561660767,
    0.47940281033515930,
];
#[allow(clippy::excessive_precision)]
const GOLDEN_LRGCCF_RECALL: [f64; EPOCHS] = [
    0.78252032520325210,
    0.79166666666666674,
    0.80589430894308955,
];
/// LR-GCCF's `diagnostics().smoothness` per epoch over `[X^0, ..., X^3]`.
#[allow(clippy::excessive_precision)]
const GOLDEN_LRGCCF_SMOOTHNESS: [[f64; 3]; EPOCHS] = [
    [
        0.98342406702883567,
        0.98616021753936567,
        0.97550127147978238,
    ],
    [
        0.98319617631205936,
        0.98532534111800907,
        0.97412886610841587,
    ],
    [
        0.98296929768089003,
        0.98446424179040815,
        0.97282534697064804,
    ],
];
const GOLDEN_LRGCCF_EMB_HASH: u64 = 0xa0e9de0da7191348;

/// One model's pinned run: the exact per-epoch loss and validation
/// Recall@20, and the FNV-1a hash of its `score_users` over every user.
struct ScorePin {
    model: &'static str,
    loss: [f64; EPOCHS],
    recall: [f64; EPOCHS],
    score_hash: u64,
}

/// Every model the shared parameter set trains, by the label
/// [`build_pinned`] knows it under. Captured with `LRGCN_GOLDEN_PRINT=1`;
/// `{:?}` prints the shortest digits that parse back to the same `f64`, so
/// these compare with `==`.
const SCORE_PINS: [ScorePin; 16] = [
    ScorePin {
        model: "BPR",
        loss: [0.6953631639480591, 0.6930577754974365, 0.6901462078094482],
        recall: [0.6951219512195121, 0.698170731707317, 0.698170731707317],
        score_hash: 0xc49242a56e987da4,
    },
    ScorePin {
        model: "MultiVAE",
        loss: [6.204492807388306, 6.065877437591553, 6.023692607879639],
        recall: [0.6920731707317074, 0.7764227642276424, 0.7926829268292683],
        score_hash: 0x72ab76893105b653,
    },
    ScorePin {
        model: "EHCF",
        loss: [
            0.0038172982167452574,
            -0.005266718100756407,
            -0.014302206225693226,
        ],
        recall: [0.698170731707317, 0.698170731707317, 0.6951219512195121],
        score_hash: 0xa06d670ea8c8b70c,
    },
    ScorePin {
        model: "BUIR",
        loss: [4.024263858795166, 3.928027868270874, 3.8333442211151123],
        recall: [0.7520325203252033, 0.7520325203252033, 0.758130081300813],
        score_hash: 0x890f1184c9271bcf,
    },
    ScorePin {
        model: "NGCF",
        loss: [0.6042423248291016, 0.5741639137268066, 0.5479458570480347],
        recall: [0.7378048780487806, 0.7703252032520326, 0.7815040650406505],
        score_hash: 0xe9f91372f1cc78f2,
    },
    ScorePin {
        model: "LR-GCCF",
        loss: [0.5266667008399963, 0.5059648156166077, 0.4794028103351593],
        recall: [0.7825203252032521, 0.7916666666666667, 0.8058943089430896],
        score_hash: 0x28203079706420e7,
    },
    ScorePin {
        model: "LightGCN",
        loss: [0.6915701627731323, 0.6913036108016968, 0.6909684538841248],
        recall: [0.7703252032520326, 0.7764227642276423, 0.7916666666666667],
        score_hash: 0xe4a1bcfd02f20c12,
    },
    ScorePin {
        model: "UltraGCN",
        loss: [1.3527239561080933, 1.3475777506828308, 1.3431153297424316],
        recall: [0.6920731707317073, 0.6920731707317073, 0.698170731707317],
        score_hash: 0xddfdebb963c67cdf,
    },
    ScorePin {
        model: "IMP-GCN",
        loss: [0.690296471118927, 0.6898036003112793, 0.6892601847648621],
        recall: [0.8089430894308944, 0.8079268292682927, 0.8160569105691058],
        score_hash: 0x24a0c9d9cf80e296,
    },
    ScorePin {
        model: "LayerGCN-w/o",
        loss: [0.6937850713729858, 0.6937571167945862, 0.6937224864959717],
        recall: [0.6707317073170732, 0.6565040650406504, 0.6849593495934959],
        score_hash: 0xe95e21a7f49a3e36,
    },
    ScorePin {
        model: "LayerGCN-Full",
        loss: [0.6937846541404724, 0.6937532424926758, 0.6937218904495239],
        recall: [0.6758130081300813, 0.6646341463414634, 0.681910569105691],
        score_hash: 0x0c7d9f90dda437a0,
    },
    ScorePin {
        model: "GCN (vanilla)",
        loss: [0.6931630969047546, 0.6930935382843018, 0.6929838061332703],
        recall: [0.7306910569105691, 0.7347560975609756, 0.75],
        score_hash: 0x8618439b19845d81,
    },
    ScorePin {
        model: "GCN+residual",
        loss: [0.6190013885498047, 0.6087083220481873, 0.5957270264625549],
        recall: [0.7947154471544716, 0.7997967479674798, 0.8201219512195121],
        score_hash: 0xa3a918ea753109c6,
    },
    ScorePin {
        model: "GCNII-style",
        loss: [0.6912256479263306, 0.6909061074256897, 0.6905049681663513],
        recall: [0.7560975609756099, 0.7703252032520326, 0.7703252032520326],
        score_hash: 0x5316542c7f6e7291,
    },
    ScorePin {
        model: "LightGCN-learnable",
        loss: [0.6915701627731323, 0.6913017630577087, 0.6909652352333069],
        recall: [0.7703252032520326, 0.7764227642276423, 0.7916666666666667],
        score_hash: 0xa75386615eb3d105,
    },
    ScorePin {
        model: "LayerGCN-SSL",
        loss: [0.6937856078147888, 0.8612948656082153, 0.8371487855911255],
        recall: [0.6788617886178863, 0.6270325203252032, 0.6443089430894309],
        score_hash: 0x5814de40317eb4c2,
    },
];

/// The ego-table models on [`cold_fixture`], where most nodes have no
/// training edge, at batch size [`COLD_BATCH`]. Captured like
/// [`SCORE_PINS`].
const COLD_PINS: [ScorePin; 5] = [
    ScorePin {
        model: "LayerGCN-w/o",
        loss: [0.6933796405792236, 0.6930124163627625, 0.6923674941062927],
        recall: [
            0.08333333333333333,
            0.10119047619047618,
            0.17261904761904762,
        ],
        score_hash: 0x6e30a03cff693ce1,
    },
    ScorePin {
        model: "LayerGCN-Full",
        loss: [0.6933982968330383, 0.6930479407310486, 0.6923254132270813],
        recall: [
            0.08333333333333333,
            0.11904761904761904,
            0.17261904761904762,
        ],
        score_hash: 0x81c1af39e406024b,
    },
    ScorePin {
        model: "LayerGCN-DropEdge",
        loss: [0.6933306753635406, 0.6931828558444977, 0.6929311156272888],
        recall: [
            0.10119047619047618,
            0.10119047619047618,
            0.19047619047619047,
        ],
        score_hash: 0x307467c150557bcb,
    },
    ScorePin {
        model: "LightGCN",
        loss: [0.6879963874816895, 0.6867920160293579, 0.6857423186302185],
        recall: [
            0.21428571428571427,
            0.32142857142857145,
            0.39285714285714285,
        ],
        score_hash: 0x7d590e8c91b7bdae,
    },
    ScorePin {
        model: "LR-GCCF",
        loss: [0.3332325667142868, 0.2821802645921707, 0.24220683425664902],
        recall: [0.19642857142857142, 0.25, 0.35714285714285715],
        score_hash: 0xaf5ecd40465a23ab,
    },
];

/// One seeded run: per-epoch loss, validation recall, the history's
/// per-layer values, each epoch's `diagnostics().smoothness`, and the hash
/// of the final embedding table.
#[derive(Debug, PartialEq)]
struct Trajectory {
    losses: Vec<f64>,
    recalls: Vec<f64>,
    layer_values: Vec<Vec<f64>>,
    smoothness: Vec<Vec<f64>>,
    emb_hash: u64,
}

/// Forwards to the wrapped model and keeps every diagnostics probe the
/// trainer takes, so one run yields each epoch's smoothness.
struct Probe<M: ?Sized> {
    smoothness: Mutex<Vec<Vec<f64>>>,
    inner: Box<M>,
}

impl<M: Recommender + ?Sized> Recommender for Probe<M> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn train_epoch(&mut self, ds: &Dataset, epoch: usize, rng: &mut StdRng) -> EpochStats {
        self.inner.train_epoch(ds, epoch, rng)
    }
    fn refresh(&mut self, ds: &Dataset) {
        self.inner.refresh(ds)
    }
    fn score_users(&self, ds: &Dataset, users: &[u32]) -> Matrix {
        self.inner.score_users(ds, users)
    }
    fn n_parameters(&self) -> usize {
        self.inner.n_parameters()
    }
    fn diagnostics(&self, ds: &Dataset) -> Option<ModelDiagnostics> {
        let d = self.inner.diagnostics(ds)?;
        self.smoothness.lock().unwrap().push(d.smoothness.clone());
        Some(d)
    }
}

/// 64-bit FNV-1a over the `to_bits()` of every cell, row-major.
fn bits_hash(m: &Matrix) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in m.data() {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The fixture every pin except [`COLD_PINS`] trains on.
fn mooc_fixture() -> Dataset {
    let log = SyntheticConfig::mooc().scaled(0.25).generate(11);
    Dataset::chronological_split("mooc-golden", &log, SplitRatios::default())
}

/// Trains one model on the MOOC fixture for [`EPOCHS`] and hashes the
/// table `hashed` reads from it afterwards.
fn run_family<M: Recommender + ?Sized>(
    build: impl FnOnce(&Dataset, &mut StdRng) -> Box<M>,
    hashed: impl FnOnce(&mut M, &Dataset) -> Matrix,
) -> Trajectory {
    run_on(&mooc_fixture(), build, hashed)
}

/// Trains one model on `ds` for [`EPOCHS`] and hashes the table `hashed`
/// reads from it afterwards.
fn run_on<M: Recommender + ?Sized>(
    ds: &Dataset,
    build: impl FnOnce(&Dataset, &mut StdRng) -> Box<M>,
    hashed: impl FnOnce(&mut M, &Dataset) -> Matrix,
) -> Trajectory {
    let mut rng = StdRng::seed_from_u64(2023);
    let mut model = Probe {
        inner: build(ds, &mut rng),
        smoothness: Mutex::new(Vec::new()),
    };
    let cfg = TrainConfig {
        max_epochs: EPOCHS,
        patience: 1000,
        eval_every: 1,
        criterion_k: 20,
        seed: 7,
        verbose: false,
        restore_best: false,
        record_diagnostics: true,
        ..Default::default()
    };
    let out = train_with_early_stopping(&mut model, ds, &cfg);
    let recalls: Vec<f64> = out.history.val_curve().iter().map(|&(_, r)| r).collect();
    let layer_values: Vec<Vec<f64>> = out
        .history
        .records()
        .iter()
        .filter_map(|r| r.layer_values.clone())
        .collect();
    Trajectory {
        losses: out.history.losses(),
        recalls,
        layer_values,
        smoothness: model.smoothness.into_inner().unwrap(),
        emb_hash: bits_hash(&hashed(&mut model.inner, ds)),
    }
}

fn layergcn_run() -> Trajectory {
    run_family(
        |ds, rng| Box::new(LayerGcn::new(ds, LayerGcnConfig::default(), rng)),
        |m, _| m.final_embeddings(),
    )
}

fn lightgcn_run() -> Trajectory {
    run_family(
        |ds, rng| Box::new(LightGcn::new(ds, LightGcnConfig::default(), rng)),
        |m, _| m.final_embeddings(),
    )
}

fn lrgccf_run() -> Trajectory {
    run_family(
        |ds, rng| Box::new(LrGccf::new(ds, LrGccfConfig::default(), rng)),
        |m, _| m.final_embeddings(),
    )
}

/// LayerGCN-SSL with its contrastive term on from the second epoch, so
/// the pinned run covers the two-view InfoNCE path, not only the warm-up.
fn pinned_ssl_config() -> LayerGcnSslConfig {
    LayerGcnSslConfig {
        warmup_epochs: 1,
        ..LayerGcnSslConfig::default()
    }
}

/// Builds the model a [`SCORE_PINS`] label names: a `ModelKind` by its
/// Table II label, or one of the models outside the registry.
fn build_pinned(label: &str, ds: &Dataset, rng: &mut StdRng) -> Box<dyn Recommender> {
    if let Some(kind) = ModelKind::all().into_iter().find(|k| k.label() == label) {
        return kind.build(ds, rng);
    }
    let residual = |kind| ResidualGcnConfig {
        kind,
        ..ResidualGcnConfig::default()
    };
    match label {
        "GCN (vanilla)" => Box::new(ResidualFamilyGcn::new(
            ds,
            residual(ResidualKind::Vanilla),
            rng,
        )),
        "GCN+residual" => Box::new(ResidualFamilyGcn::new(
            ds,
            residual(ResidualKind::Residual),
            rng,
        )),
        "GCNII-style" => Box::new(ResidualFamilyGcn::new(
            ds,
            residual(ResidualKind::InitialResidual { alpha: 0.1 }),
            rng,
        )),
        "LightGCN-learnable" => Box::new(WeightedLightGcn::new(ds, LightGcnConfig::default(), rng)),
        "LayerGCN-SSL" => Box::new(LayerGcnSsl::new(ds, pinned_ssl_config(), rng)),
        other => panic!("no pinned model is labelled {other:?}"),
    }
}

/// Every label [`build_pinned`] builds, in table order.
fn pinned_labels() -> Vec<&'static str> {
    let mut labels: Vec<&'static str> = ModelKind::all().iter().map(|k| k.label()).collect();
    labels.extend([
        "GCN (vanilla)",
        "GCN+residual",
        "GCNII-style",
        "LightGCN-learnable",
        "LayerGCN-SSL",
    ]);
    labels
}

/// `score_users` over every user, after a refresh.
fn all_user_scores(m: &mut (dyn Recommender + 'static), ds: &Dataset) -> Matrix {
    m.refresh(ds);
    let users: Vec<u32> = (0..ds.n_users() as u32).collect();
    m.score_users(ds, &users)
}

/// One pinned run, hashing `score_users` over every user after a refresh.
fn scored_run(label: &str) -> Trajectory {
    run_family(|ds, rng| build_pinned(label, ds, rng), all_user_scores)
}

/// A cold catalogue: most nodes have no training edge, items as well as
/// users, so batches draw edgeless negatives. The MOOC fixture has no
/// edgeless item.
fn cold_fixture() -> Dataset {
    let cfg = SyntheticConfig {
        name: "Cold",
        n_users: 100,
        n_items: 1000,
        n_interactions: 1200,
        ..SyntheticConfig::yelp()
    };
    Dataset::chronological_split("cold-golden", &cfg.generate(11), SplitRatios::default())
}

/// Batch size of every [`COLD_PINS`] run: several batches per epoch.
const COLD_BATCH: usize = 256;

/// Builds the ego-table model a [`COLD_PINS`] label names.
fn build_cold(label: &str, ds: &Dataset, rng: &mut StdRng) -> Box<dyn Recommender> {
    let layergcn = |pruner| LayerGcnConfig {
        pruner,
        batch_size: COLD_BATCH,
        ..LayerGcnConfig::default()
    };
    match label {
        "LayerGCN-w/o" => Box::new(LayerGcn::new(ds, layergcn(EdgePruner::None), rng)),
        "LayerGCN-Full" => Box::new(LayerGcn::new(
            ds,
            layergcn(EdgePruner::DegreeDrop { ratio: 0.1 }),
            rng,
        )),
        "LayerGCN-DropEdge" => Box::new(LayerGcn::new(
            ds,
            layergcn(EdgePruner::DropEdge { ratio: 0.3 }),
            rng,
        )),
        "LightGCN" => Box::new(LightGcn::new(
            ds,
            LightGcnConfig {
                batch_size: COLD_BATCH,
                ..LightGcnConfig::default()
            },
            rng,
        )),
        "LR-GCCF" => Box::new(LrGccf::new(
            ds,
            LrGccfConfig {
                batch_size: COLD_BATCH,
                ..LrGccfConfig::default()
            },
            rng,
        )),
        other => panic!("no cold pin is labelled {other:?}"),
    }
}

/// One cold-fixture run, hashing `score_users` over every user.
fn cold_run(label: &str) -> Trajectory {
    run_on(
        &cold_fixture(),
        |ds, rng| build_cold(label, ds, rng),
        all_user_scores,
    )
}

fn printing() -> bool {
    std::env::var("LRGCN_GOLDEN_PRINT").is_ok()
}

fn print_run(family: &str, t: &Trajectory) {
    println!("{family} LOSS: {:.17?}", t.losses);
    println!("{family} RECALL: {:.17?}", t.recalls);
    println!("{family} LAYER_VALUES: {:.17?}", t.layer_values);
    println!("{family} SMOOTHNESS: {:.17?}", t.smoothness);
    println!("{family} EMB_HASH: {:#018x}", t.emb_hash);
}

/// Compares `got` with `want` per epoch at [`TOL`], naming each deviation.
fn check_rows<const N: usize>(
    what: &str,
    got: &[Vec<f64>],
    want: &[[f64; N]; EPOCHS],
    failures: &mut Vec<String>,
) {
    assert_eq!(got.len(), EPOCHS, "{what}: one row per epoch");
    for (e, (row, golden)) in got.iter().zip(want).enumerate() {
        assert_eq!(row.len(), N, "{what}: layer count changed");
        for (l, (&g, &w)) in row.iter().zip(golden).enumerate() {
            if (g - w).abs() > TOL {
                failures.push(format!(
                    "epoch {e} layer {l} {what} {g:.9} != golden {w:.9}"
                ));
            }
        }
    }
}

/// Checks one family's losses, recalls, per-layer rows and embedding hash.
fn check_run<const N: usize>(
    family: &str,
    t: &Trajectory,
    layer_rows: &[Vec<f64>],
    golden: (&[f64; EPOCHS], &[f64; EPOCHS], &[[f64; N]; EPOCHS], u64),
) {
    let (loss, recall, rows, hash) = golden;
    assert_eq!(t.losses.len(), EPOCHS);
    assert_eq!(t.recalls.len(), EPOCHS);
    let mut failures = Vec::new();
    for e in 0..EPOCHS {
        if (t.losses[e] - loss[e]).abs() > TOL {
            failures.push(format!(
                "epoch {e} loss {:.9} != golden {:.9}",
                t.losses[e], loss[e]
            ));
        }
        if (t.recalls[e] - recall[e]).abs() > TOL {
            failures.push(format!(
                "epoch {e} recall@20 {:.9} != golden {:.9}",
                t.recalls[e], recall[e]
            ));
        }
    }
    check_rows("per-layer value", layer_rows, rows, &mut failures);
    if t.emb_hash != hash {
        failures.push(format!(
            "final embedding hash {:#018x} != golden {hash:#018x}",
            t.emb_hash
        ));
    }
    if !failures.is_empty() {
        // The word below is the tripwire scripts/verify.sh greps for; it
        // must appear on stderr only when the trajectory actually diverges.
        eprintln!(
            "{family}: numeric drift detected:\n  {}",
            failures.join("\n  ")
        );
        panic!(
            "{family} golden trajectory mismatch ({} deviations)",
            failures.len()
        );
    }
}

#[test]
fn layergcn_mooc_trajectory_matches_golden_values() {
    let t = layergcn_run();
    if printing() {
        print_run("LAYERGCN", &t);
        return;
    }
    assert_eq!(
        t.layer_values.len(),
        EPOCHS,
        "every epoch validates, so every epoch probes"
    );
    check_run(
        "LayerGCN",
        &t,
        &t.layer_values,
        (
            &GOLDEN_LOSS,
            &GOLDEN_RECALL,
            &GOLDEN_SIMS,
            GOLDEN_LAYERGCN_EMB_HASH,
        ),
    );
}

#[test]
fn lightgcn_mooc_trajectory_matches_golden_values() {
    let t = lightgcn_run();
    if printing() {
        print_run("LIGHTGCN", &t);
        return;
    }
    check_run(
        "LightGCN",
        &t,
        &t.smoothness,
        (
            &GOLDEN_LIGHTGCN_LOSS,
            &GOLDEN_LIGHTGCN_RECALL,
            &GOLDEN_LIGHTGCN_SMOOTHNESS,
            GOLDEN_LIGHTGCN_EMB_HASH,
        ),
    );
}

#[test]
fn lrgccf_mooc_trajectory_matches_golden_values() {
    let t = lrgccf_run();
    if printing() {
        print_run("LRGCCF", &t);
        return;
    }
    check_run(
        "LR-GCCF",
        &t,
        &t.smoothness,
        (
            &GOLDEN_LRGCCF_LOSS,
            &GOLDEN_LRGCCF_RECALL,
            &GOLDEN_LRGCCF_SMOOTHNESS,
            GOLDEN_LRGCCF_EMB_HASH,
        ),
    );
}

#[test]
fn trajectory_is_reproducible_within_one_build() {
    // Guards the *premise* of the golden tests: two in-process runs with
    // the same seeds must agree bitwise, otherwise pinned constants would
    // flake.
    for run in [layergcn_run, lightgcn_run, lrgccf_run] {
        assert_eq!(run(), run(), "a family's run varied across identical runs");
    }
}

/// Prints one [`ScorePin`] in the form the pin tables hold.
fn print_pin(label: &str, t: &Trajectory) {
    println!("    ScorePin {{");
    println!("        model: {label:?},");
    println!("        loss: {:?},", t.losses);
    println!("        recall: {:?},", t.recalls);
    println!("        score_hash: {:#018x},", t.emb_hash);
    println!("    }},");
}

/// Runs every pin of `pins` with `run` and fails on any deviation.
fn check_pins(pins: &[ScorePin], run: impl Fn(&str) -> Trajectory) {
    let mut failures = Vec::new();
    for pin in pins {
        let t = run(pin.model);
        if t.losses != pin.loss {
            failures.push(format!(
                "{}: loss {:?} != golden {:?}",
                pin.model, t.losses, pin.loss
            ));
        }
        if t.recalls != pin.recall {
            failures.push(format!(
                "{}: recall@20 {:?} != golden {:?}",
                pin.model, t.recalls, pin.recall
            ));
        }
        if t.emb_hash != pin.score_hash {
            failures.push(format!(
                "{}: score hash {:#018x} != golden {:#018x}",
                pin.model, t.emb_hash, pin.score_hash
            ));
        }
    }
    if !failures.is_empty() {
        // Same tripwire word as `check_run`, for scripts/verify.sh.
        eprintln!("numeric drift detected:\n  {}", failures.join("\n  "));
        panic!("{} pinned score deviations", failures.len());
    }
}

#[test]
fn every_trained_model_matches_its_pinned_scores() {
    if printing() {
        for label in pinned_labels() {
            print_pin(label, &scored_run(label));
        }
        return;
    }
    let labels: Vec<&str> = SCORE_PINS.iter().map(|p| p.model).collect();
    assert_eq!(
        labels,
        pinned_labels(),
        "one pin per trained model, in order"
    );
    check_pins(&SCORE_PINS, scored_run);
}

/// The cold pins mean something only while most nodes are edgeless.
#[test]
fn cold_fixture_is_mostly_edgeless() {
    let ds = cold_fixture();
    let degrees = ds.train().node_degrees();
    let dead_users = degrees[..ds.n_users()].iter().filter(|&&d| d == 0).count();
    let dead_items = degrees[ds.n_users()..].iter().filter(|&&d| d == 0).count();
    if printing() {
        println!(
            "COLD: {dead_users} of {} users and {dead_items} of {} items edgeless",
            ds.n_users(),
            ds.n_items()
        );
    }
    assert!(
        2 * (dead_users + dead_items) > degrees.len(),
        "{} of {} nodes edgeless",
        dead_users + dead_items,
        degrees.len()
    );
    assert!(dead_items > 0, "the cold fixture must have edgeless items");
}

#[test]
fn ego_table_models_match_their_cold_pins() {
    if printing() {
        for pin in &COLD_PINS {
            print_pin(pin.model, &cold_run(pin.model));
        }
        return;
    }
    check_pins(&COLD_PINS, cold_run);
}
