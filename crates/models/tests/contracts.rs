//! Contract tests every `Recommender` implementation must satisfy,
//! exercised across the full model registry plus the models outside it:
//! the SSL extension, the residual family and the learnable-weight
//! LightGCN.

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_models::layergcn_ssl::{LayerGcnSsl, LayerGcnSslConfig};
use lrgcn_models::{
    LightGcnConfig, ModelKind, Recommender, ResidualFamilyGcn, ResidualGcnConfig, ResidualKind,
    WeightedLightGcn,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dataset() -> Dataset {
    let log = SyntheticConfig::games().scaled(0.12).generate(21);
    Dataset::chronological_split("contract", &log, SplitRatios::default())
}

fn all_models(ds: &Dataset) -> Vec<Box<dyn Recommender>> {
    let mut out: Vec<Box<dyn Recommender>> = Vec::new();
    for kind in ModelKind::all() {
        let mut rng = StdRng::seed_from_u64(17);
        out.push(kind.build(ds, &mut rng));
    }
    let mut rng = StdRng::seed_from_u64(17);
    out.push(Box::new(LayerGcnSsl::new(
        ds,
        LayerGcnSslConfig::default(),
        &mut rng,
    )));
    for kind in [
        ResidualKind::Vanilla,
        ResidualKind::Residual,
        ResidualKind::InitialResidual { alpha: 0.1 },
    ] {
        let cfg = ResidualGcnConfig {
            kind,
            ..ResidualGcnConfig::default()
        };
        out.push(Box::new(ResidualFamilyGcn::new(
            ds,
            cfg,
            &mut StdRng::seed_from_u64(17),
        )));
    }
    let mut rng = StdRng::seed_from_u64(17);
    out.push(Box::new(WeightedLightGcn::new(
        ds,
        LightGcnConfig::default(),
        &mut rng,
    )));
    out
}

/// Which optional trait capabilities each model has: `snapshot` (the
/// trainer's best-epoch restore), `checkpoint_entries` (`train --save`,
/// resume), `optim_state` (exact resume) and `set_learning_rate` (the
/// divergence recovery's LR halving).
const CAPABILITIES: [(&str, [bool; 4]); 16] = [
    ("BPR", [true, false, false, false]),
    ("MultiVAE", [false; 4]),
    ("EHCF", [false; 4]),
    ("BUIR", [false; 4]),
    ("NGCF", [false; 4]),
    ("LR-GCCF", [true; 4]),
    ("LightGCN-4L", [true; 4]),
    ("UltraGCN", [false; 4]),
    ("IMP-GCN", [false; 4]),
    ("LayerGCN (w/o Dropout)", [true; 4]),
    ("LayerGCN (Full)", [true; 4]),
    ("LayerGCN-SSL", [false; 4]),
    ("GCN (vanilla)", [false; 4]),
    ("GCN+residual", [false; 4]),
    ("GCNII-style (α=0.1)", [false; 4]),
    ("LightGCN-4L-learnable", [false; 4]),
];

#[test]
fn capability_table_is_as_declared() {
    let ds = dataset();
    let got: Vec<(String, [bool; 4])> = all_models(&ds)
        .into_iter()
        .map(|mut m| {
            let caps = [
                m.snapshot().is_some(),
                m.checkpoint_entries().is_some(),
                m.optim_state().is_some(),
                m.set_learning_rate(1e-3),
            ];
            (m.name(), caps)
        })
        .collect();
    let want: Vec<(String, [bool; 4])> = CAPABILITIES
        .iter()
        .map(|&(name, caps)| (name.to_string(), caps))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn names_are_unique_and_nonempty() {
    let ds = dataset();
    let models = all_models(&ds);
    let mut names: Vec<String> = models.iter().map(|m| m.name()).collect();
    assert!(names.iter().all(|n| !n.is_empty()));
    names.sort();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "duplicate model names");
}

#[test]
fn scores_are_deterministic_between_refreshes() {
    let ds = dataset();
    for mut m in all_models(&ds) {
        let mut rng = StdRng::seed_from_u64(5);
        m.train_epoch(&ds, 0, &mut rng);
        m.refresh(&ds);
        let a = m.score_users(&ds, &[0, 1, 2]);
        let b = m.score_users(&ds, &[0, 1, 2]);
        assert!(a.approx_eq(&b, 0.0), "{} non-deterministic scoring", m.name());
        m.refresh(&ds);
        let c = m.score_users(&ds, &[0, 1, 2]);
        assert!(
            a.approx_eq(&c, 0.0),
            "{} refresh changed scores without training",
            m.name()
        );
    }
}

#[test]
fn scores_finite_after_training_burst() {
    let ds = dataset();
    for mut m in all_models(&ds) {
        let mut rng = StdRng::seed_from_u64(5);
        for e in 0..3 {
            let s = m.train_epoch(&ds, e, &mut rng);
            assert!(s.loss.is_finite(), "{} loss not finite", m.name());
            assert!(s.n_batches > 0, "{} ran zero batches", m.name());
        }
        m.refresh(&ds);
        let users: Vec<u32> = (0..ds.n_users() as u32).collect();
        let s = m.score_users(&ds, &users);
        assert_eq!(s.shape(), (ds.n_users(), ds.n_items()), "{}", m.name());
        assert!(!s.has_non_finite(), "{} produced NaN/inf scores", m.name());
    }
}

#[test]
fn score_chunking_is_consistent() {
    // Scoring users one-by-one must match scoring them in a block.
    let ds = dataset();
    for mut m in all_models(&ds) {
        let mut rng = StdRng::seed_from_u64(5);
        m.train_epoch(&ds, 0, &mut rng);
        m.refresh(&ds);
        let block = m.score_users(&ds, &[3, 4, 5]);
        for (r, u) in [3u32, 4, 5].into_iter().enumerate() {
            let single = m.score_users(&ds, &[u]);
            for c in 0..ds.n_items() {
                assert_eq!(
                    block[(r, c)],
                    single[(0, c)],
                    "{}: chunked score differs for user {u}",
                    m.name()
                );
            }
        }
    }
}

#[test]
fn every_registry_model_trains_one_clean_instrumented_epoch() {
    // Cross-model smoke test: each model in the registry runs one epoch on
    // the tiny dataset, finishes with finite loss and finite embeddings,
    // and demonstrably went through the instrumented kernels (counters are
    // process-global and other tests run concurrently, so assert only
    // non-zero *deltas*, never exact values).
    use lrgcn_obs::registry::{get, Counter};
    let ds = dataset();
    for kind in ModelKind::all() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut m = kind.build(&ds, &mut rng);
        let before: u64 = [
            Counter::SpmmCalls,
            Counter::MatmulCalls,
            Counter::GatherCalls,
            Counter::MapCalls,
        ]
        .iter()
        .map(|&c| get(c))
        .sum();
        let stats = m.train_epoch(&ds, 0, &mut rng);
        assert!(
            stats.loss.is_finite(),
            "{}: NaN/inf loss after one epoch",
            m.name()
        );
        m.refresh(&ds);
        let users: Vec<u32> = (0..ds.n_users() as u32).collect();
        let scores = m.score_users(&ds, &users);
        assert!(
            !scores.has_non_finite(),
            "{}: NaN/inf in refreshed embeddings/scores",
            m.name()
        );
        let after: u64 = [
            Counter::SpmmCalls,
            Counter::MatmulCalls,
            Counter::GatherCalls,
            Counter::MapCalls,
        ]
        .iter()
        .map(|&c| get(c))
        .sum();
        // Graph models go through SpMM, factorization models through
        // gather/matmul/map — every model must tick at least one kernel.
        assert!(
            after > before,
            "{}: no instrumented kernel invocations recorded",
            m.name()
        );
    }
}

#[test]
fn graph_models_tick_spmm_counters() {
    // The propagation-based models specifically must exercise the SpMM
    // path — a silent fall-back to dense matmul would hide here otherwise.
    use lrgcn_obs::registry::{get, Counter};
    let ds = dataset();
    for name in ["layergcn", "lightgcn", "ngcf", "lrgccf"] {
        let kind = ModelKind::parse(name).expect("registry name");
        let mut rng = StdRng::seed_from_u64(29);
        let mut m = kind.build(&ds, &mut rng);
        let before = get(Counter::SpmmCalls);
        m.train_epoch(&ds, 0, &mut rng);
        assert!(
            get(Counter::SpmmCalls) > before,
            "{name}: trained an epoch without a single SpMM"
        );
    }
}

#[test]
fn diagnostics_are_finite_and_schema_complete() {
    // Every registry model either opts out of diagnostics (None) or returns
    // a fully finite probe whose JSONL rendering is schema-complete. The
    // propagation models must all opt in — over-smoothing is the paper's
    // core subject and losing the probe silently would gut the diagnosis.
    let ds = dataset();
    for kind in ModelKind::all() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut m = kind.build(&ds, &mut rng);
        m.train_epoch(&ds, 0, &mut rng);
        let Some(d) = m.diagnostics(&ds) else {
            assert!(
                !matches!(
                    kind,
                    ModelKind::Ngcf
                        | ModelKind::LrGccf
                        | ModelKind::LightGcn
                        | ModelKind::ImpGcn
                        | ModelKind::LayerGcnNoDrop
                        | ModelKind::LayerGcnFull
                ),
                "{}: propagation model must implement diagnostics",
                m.name()
            );
            continue;
        };
        assert!(
            !d.smoothness.is_empty(),
            "{}: diagnostics without a smoothness chain",
            m.name()
        );
        for (l, s) in d.smoothness.iter().enumerate() {
            assert!(
                s.is_finite() && (-1.0..=1.0).contains(s),
                "{}: smoothness[{l}] = {s} out of cosine range",
                m.name()
            );
        }
        assert!(
            d.embedding_l2.is_finite() && d.embedding_l2 > 0.0,
            "{}: embedding L2 {} not positive-finite",
            m.name(),
            d.embedding_l2
        );
        let gn = d.grad_norm.expect("trained epoch must record gradients");
        assert!(gn.is_finite() && gn > 0.0, "{}: grad norm {gn}", m.name());
        for (g, v) in &d.grad_groups {
            assert!(!g.is_empty() && v.is_finite(), "{}: group {g}={v}", m.name());
        }
        for w in &d.layer_weights {
            assert!(w.is_finite(), "{}: layer weight {w}", m.name());
        }
        // The JSONL rendering must carry every schema key, round-trip
        // through the parser, and stay free of nulls (all values finite).
        let rec = lrgcn_obs::diag::DiagRecord {
            run: 1,
            epoch: 0,
            model: m.name(),
            smoothness: d.smoothness.clone(),
            embedding_l2: d.embedding_l2,
            grad_norm: d.grad_norm,
            grad_groups: d.grad_groups.clone(),
            layer_weights: d.layer_weights.clone(),
        };
        let line = rec.to_value().render();
        let v = lrgcn_obs::json::parse(&line).expect("diag record parses");
        for key in [
            "event",
            "run",
            "epoch",
            "model",
            "smoothness",
            "embedding_l2",
            "grad_norm",
            "grad_groups",
            "layer_weights",
        ] {
            assert!(
                v.get(key).is_some(),
                "{}: diag record missing key {key}: {line}",
                m.name()
            );
        }
        assert!(
            !line.contains("null"),
            "{}: finite diagnostics rendered a null: {line}",
            m.name()
        );
    }
}

#[test]
fn layergcn_diagnostics_show_refinement_weights() {
    // LayerGCN's layer_weights are the per-layer mean cosine similarities
    // (paper Fig. 5); after a few epochs they must sit inside [-1, 1] and
    // have exactly n_layers entries.
    let ds = dataset();
    let kind = ModelKind::parse("layernodrop").expect("registry name");
    let mut rng = StdRng::seed_from_u64(37);
    let mut m = kind.build(&ds, &mut rng);
    for e in 0..3 {
        m.train_epoch(&ds, e, &mut rng);
    }
    let d = m.diagnostics(&ds).expect("layergcn implements diagnostics");
    assert_eq!(d.layer_weights.len(), 4, "default LayerGCN depth");
    for w in &d.layer_weights {
        assert!((-1.0..=1.0).contains(w), "similarity weight {w}");
    }
    // Sum readout over refined layers: smoothness chain covers ego + L
    // layers, i.e. L consecutive pairs.
    assert_eq!(d.smoothness.len(), 4);
}

#[test]
fn parameter_counts_are_sane() {
    let ds = dataset();
    let n = ds.n_users() + ds.n_items();
    for m in all_models(&ds) {
        let p = m.n_parameters();
        // Every model carries at least one 64-dim table over users or items.
        assert!(
            p >= 64 * ds.n_users().min(ds.n_items()),
            "{}: {p} parameters is implausibly small",
            m.name()
        );
        assert!(
            p <= 64 * n * 40,
            "{}: {p} parameters is implausibly large",
            m.name()
        );
    }
}
