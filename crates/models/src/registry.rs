//! Model registry: build any of the paper's models by name.
//!
//! The experiment binaries (Table II etc.) iterate over [`ModelKind::all`]
//! in the paper's column order and construct each model with its default
//! hyper-parameters via [`ModelKind::build`].

use crate::{
    bpr::{BprMf, BprMfConfig},
    buir::{Buir, BuirConfig},
    ehcf::{Ehcf, EhcfConfig},
    egogcn::{EgoGcn, EgoGcnConfig, LayerGcnConfig, LightGcnConfig, LrGccfConfig},
    impgcn::{ImpGcn, ImpGcnConfig},
    multivae::{MultiVae, MultiVaeConfig},
    ngcf::{Ngcf, NgcfConfig},
    traits::Recommender,
    ultragcn::{UltraGcn, UltraGcnConfig},
};
use lrgcn_data::Dataset;
use rand::rngs::StdRng;

/// Every model column of the paper's Table II, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModelKind {
    Bpr,
    MultiVae,
    Ehcf,
    Buir,
    Ngcf,
    LrGccf,
    LightGcn,
    UltraGcn,
    ImpGcn,
    /// LayerGCN (w/o Dropout).
    LayerGcnNoDrop,
    /// LayerGCN (Full), with DegreeDrop.
    LayerGcnFull,
}

impl ModelKind {
    /// All models in Table II column order.
    pub fn all() -> Vec<ModelKind> {
        use ModelKind::*;
        vec![
            Bpr, MultiVae, Ehcf, Buir, Ngcf, LrGccf, LightGcn, UltraGcn, ImpGcn,
            LayerGcnNoDrop, LayerGcnFull,
        ]
    }

    /// Column header used in printed tables.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Bpr => "BPR",
            ModelKind::MultiVae => "MultiVAE",
            ModelKind::Ehcf => "EHCF",
            ModelKind::Buir => "BUIR",
            ModelKind::Ngcf => "NGCF",
            ModelKind::LrGccf => "LR-GCCF",
            ModelKind::LightGcn => "LightGCN",
            ModelKind::UltraGcn => "UltraGCN",
            ModelKind::ImpGcn => "IMP-GCN",
            ModelKind::LayerGcnNoDrop => "LayerGCN-w/o",
            ModelKind::LayerGcnFull => "LayerGCN-Full",
        }
    }

    /// Parses a (case-insensitive, punctuation-lax) model name.
    pub fn parse(name: &str) -> Option<ModelKind> {
        let norm: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        let m = match norm.as_str() {
            "bpr" | "bprmf" => ModelKind::Bpr,
            "multivae" | "vae" => ModelKind::MultiVae,
            "ehcf" => ModelKind::Ehcf,
            "buir" => ModelKind::Buir,
            "ngcf" => ModelKind::Ngcf,
            "lrgccf" => ModelKind::LrGccf,
            "lightgcn" | "light" => ModelKind::LightGcn,
            "ultragcn" | "ultra" => ModelKind::UltraGcn,
            "impgcn" | "imp" => ModelKind::ImpGcn,
            "layergcnwo" | "layergcnwodropout" | "layernodrop" => ModelKind::LayerGcnNoDrop,
            "layergcn" | "layergcnfull" | "layer" => ModelKind::LayerGcnFull,
            _ => return None,
        };
        Some(m)
    }

    /// The [`EgoGcn`] configuration this kind builds, or `None` for the
    /// models outside the ego-table family.
    fn ego_config(&self) -> Option<EgoGcnConfig> {
        match self {
            ModelKind::LrGccf => Some(LrGccfConfig::default().into()),
            ModelKind::LightGcn => Some(LightGcnConfig::default().into()),
            ModelKind::LayerGcnNoDrop => Some(LayerGcnConfig::without_dropout().into()),
            ModelKind::LayerGcnFull => Some(LayerGcnConfig::default().into()),
            _ => None,
        }
    }

    /// The model-family tag this kind writes into tagged checkpoints, or
    /// `None` when the family has no stable checkpoint format. Every
    /// returned value is listed in [`crate::checkpoint::SERVABLE_TAGS`]
    /// (enforced by a test), so "this kind saves" and "serve can load it"
    /// stay the same statement.
    pub fn checkpoint_tag(&self) -> Option<&'static str> {
        self.ego_config().map(|cfg| cfg.propagation.tag())
    }

    /// Builds the model with its default hyper-parameters.
    pub fn build(&self, ds: &Dataset, rng: &mut StdRng) -> Box<dyn Recommender> {
        match self {
            ModelKind::Bpr => Box::new(BprMf::new(ds, BprMfConfig::default(), rng)),
            ModelKind::MultiVae => Box::new(MultiVae::new(ds, MultiVaeConfig::default(), rng)),
            ModelKind::Ehcf => Box::new(Ehcf::new(ds, EhcfConfig::default(), rng)),
            ModelKind::Buir => Box::new(Buir::new(ds, BuirConfig::default(), rng)),
            ModelKind::Ngcf => Box::new(Ngcf::new(ds, NgcfConfig::default(), rng)),
            ModelKind::UltraGcn => Box::new(UltraGcn::new(ds, UltraGcnConfig::default(), rng)),
            ModelKind::ImpGcn => Box::new(ImpGcn::new(ds, ImpGcnConfig::default(), rng)),
            ModelKind::LrGccf
            | ModelKind::LightGcn
            | ModelKind::LayerGcnNoDrop
            | ModelKind::LayerGcnFull => {
                let cfg = self.ego_config().expect("an ego-table kind");
                Box::new(EgoGcn::new(ds, cfg, rng))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::tiny_dataset;
    use rand::SeedableRng;

    #[test]
    fn parse_roundtrip() {
        for kind in ModelKind::all() {
            let parsed = ModelKind::parse(kind.label())
                .unwrap_or_else(|| panic!("cannot parse label {:?}", kind.label()));
            assert_eq!(parsed, kind);
        }
        assert_eq!(ModelKind::parse("LightGCN"), Some(ModelKind::LightGcn));
        assert_eq!(ModelKind::parse("layer-gcn"), Some(ModelKind::LayerGcnFull));
        assert!(ModelKind::parse("nope").is_none());
    }

    #[test]
    fn checkpoint_tags_are_servable_and_backed_by_entries() {
        let ds = tiny_dataset(4);
        for kind in ModelKind::all() {
            let mut rng = StdRng::seed_from_u64(7);
            let m = kind.build(&ds, &mut rng);
            match kind.checkpoint_tag() {
                Some(tag) => {
                    assert!(
                        crate::checkpoint::SERVABLE_TAGS.contains(&tag),
                        "{tag:?} not in SERVABLE_TAGS"
                    );
                    assert!(
                        m.checkpoint_entries().is_some(),
                        "{} declares tag {tag:?} but has no checkpoint entries",
                        kind.label()
                    );
                    assert!(
                        m.optim_state().is_some(),
                        "{} declares tag {tag:?} but has no optimizer state for resume",
                        kind.label()
                    );
                }
                None => assert!(
                    m.checkpoint_entries().is_none(),
                    "{} has checkpoint entries but no tag",
                    kind.label()
                ),
            }
        }
        // Conversely, every servable tag is writable by some ModelKind.
        for tag in crate::checkpoint::SERVABLE_TAGS {
            assert!(
                ModelKind::all().iter().any(|k| k.checkpoint_tag() == Some(tag)),
                "no ModelKind writes tag {tag:?}"
            );
        }
    }

    #[test]
    fn all_build_and_train_one_epoch() {
        let ds = tiny_dataset(6);
        for kind in ModelKind::all() {
            let mut rng = StdRng::seed_from_u64(11);
            let mut m = kind.build(&ds, &mut rng);
            let stats = m.train_epoch(&ds, 0, &mut rng);
            assert!(
                stats.loss.is_finite(),
                "{} produced non-finite loss",
                kind.label()
            );
            m.refresh(&ds);
            let s = m.score_users(&ds, &[0, 1]);
            assert_eq!(s.shape(), (2, ds.n_items()), "{}", kind.label());
            assert!(!s.has_non_finite(), "{}", kind.label());
            assert!(m.n_parameters() > 0);
        }
    }
}
