//! Model-tagged checkpoints over `lrgcn_tensor::io`.
//!
//! The binary checkpoint format stores anonymous `(name, matrix)` entries;
//! this module layers a convention on top so a file is self-describing:
//!
//! * a zero-sized marker entry named `__model__:<tag>` records which model
//!   family wrote the file (`layergcn`, `lightgcn`, `lrgccf`),
//! * the remaining entries are exactly what the model's
//!   [`Recommender::checkpoint_entries`] returned.
//!
//! A model refuses entries tagged for another family. Untagged legacy
//! files carry no family and are accepted; the serving engine reads them
//! as `layergcn`, the only family that existed before the tag.

use crate::egogcn::{EgoGcnConfig, LayerGcnConfig, LightGcnConfig, LrGccfConfig};
use crate::traits::Recommender;
use lrgcn_graph::EdgePruner;
use lrgcn_tensor::io::{self, IoError};
use lrgcn_tensor::Matrix;

/// Entry-name prefix of the model-family marker.
pub const MODEL_TAG_PREFIX: &str = "__model__:";

/// Canonical family tags with a stable checkpoint format, i.e. the values
/// [`save_model`] writes and [`servable_config`] rebuilds. This is the
/// single source of truth: the CLI's `--save` error message and the serve
/// engine's unsupported-tag error both derive from it, and
/// `ModelKind::checkpoint_tag` must only ever return values listed here.
pub const SERVABLE_TAGS: [&str; 3] = ["layergcn", "lightgcn", "lrgccf"];

/// The configuration a `tag`ged checkpoint is rebuilt with for serving:
/// the family's defaults with the checkpoint's embedding width and the
/// caller's depth; `dropout` picks LayerGCN's pruner (and so its name).
pub fn servable_config(
    tag: &str,
    embedding_dim: usize,
    n_layers: usize,
    dropout: f32,
) -> Result<EgoGcnConfig, String> {
    let cfg: EgoGcnConfig = match tag {
        "layergcn" => LayerGcnConfig {
            pruner: if dropout > 0.0 {
                EdgePruner::DegreeDrop { ratio: dropout }
            } else {
                EdgePruner::None
            },
            ..LayerGcnConfig::default()
        }
        .into(),
        "lightgcn" => LightGcnConfig::default().into(),
        "lrgccf" => LrGccfConfig::default().into(),
        other => {
            return Err(format!(
                "checkpoint is tagged {other:?}, which this server cannot rebuild \
                 (supported: {})",
                SERVABLE_TAGS.join(", ")
            ))
        }
    };
    Ok(EgoGcnConfig {
        embedding_dim,
        n_layers,
        ..cfg
    })
}

/// Writes `entries` to `path` behind the `tag` marker.
pub(crate) fn save_entries(
    path: impl AsRef<std::path::Path>,
    tag: &str,
    entries: &[(String, Matrix)],
) -> Result<(), IoError> {
    let marker_name = format!("{MODEL_TAG_PREFIX}{tag}");
    let marker = Matrix::zeros(0, 0);
    let mut refs: Vec<(&str, &Matrix)> = vec![(marker_name.as_str(), &marker)];
    refs.extend(entries.iter().map(|(n, m)| (n.as_str(), m)));
    io::save_checkpoint(path, &refs)
}

/// Saves `model` to `path` as a tagged checkpoint.
///
/// Fails with a user-facing message when the model has no stable checkpoint
/// format (its [`Recommender::checkpoint_entries`] returns `None`).
pub fn save_model(
    path: impl AsRef<std::path::Path>,
    tag: &str,
    model: &dyn Recommender,
) -> Result<(), String> {
    let entries = model.checkpoint_entries().ok_or_else(|| {
        format!(
            "{} has no stable checkpoint format (supported: {})",
            model.name(),
            SERVABLE_TAGS.join(", ")
        )
    })?;
    save_entries(path, tag, &entries).map_err(|e| e.to_string())
}

/// The model-family tag recorded in checkpoint entries, if any.
pub fn model_tag(entries: &[(String, Matrix)]) -> Option<&str> {
    entries
        .iter()
        .find_map(|(n, _)| n.strip_prefix(MODEL_TAG_PREFIX))
}

/// Finds the named entry, with a [`IoError::Corrupt`]-style message.
pub fn require_entry<'a>(
    entries: &'a [(String, Matrix)],
    name: &str,
) -> Result<&'a Matrix, String> {
    entries
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, m)| m)
        .ok_or_else(|| IoError::Corrupt(format!("missing {name:?} entry")).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::tiny_dataset;
    use crate::{LayerGcn, LayerGcnConfig, LightGcn, LightGcnConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tagged_roundtrip_lightgcn() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = LightGcn::new(&ds, LightGcnConfig::default(), &mut rng);
        m.train_epoch(&ds, 0, &mut rng);
        m.refresh(&ds);
        let before = m.score_users(&ds, &[0, 1]);

        let path = std::env::temp_dir().join("lrgcn_ckpt_tag_lightgcn.bin");
        save_model(&path, "lightgcn", &m).expect("save");
        let entries = lrgcn_tensor::io::load_checkpoint(&path).expect("load");
        assert_eq!(model_tag(&entries), Some("lightgcn"));

        let mut rng2 = StdRng::seed_from_u64(999);
        let mut fresh = LightGcn::new(&ds, LightGcnConfig::default(), &mut rng2);
        fresh.load_checkpoint_entries(&entries).expect("restore");
        fresh.refresh(&ds);
        assert!(fresh.score_users(&ds, &[0, 1]).approx_eq(&before, 0.0));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn layergcn_save_is_tagged_and_legacy_loadable() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(3);
        let m = LayerGcn::new(&ds, LayerGcnConfig::default(), &mut rng);
        let path = std::env::temp_dir().join("lrgcn_ckpt_tag_layergcn.bin");
        m.save(&path).expect("save");
        let entries = lrgcn_tensor::io::load_checkpoint(&path).expect("load");
        assert_eq!(model_tag(&entries), Some("layergcn"));
        // The pre-tag loader (find the "ego" entry) still works.
        let mut rng2 = StdRng::seed_from_u64(4);
        let mut m2 = LayerGcn::new(&ds, LayerGcnConfig::default(), &mut rng2);
        m2.load(&path).expect("legacy-style load");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn checkpoints_of_another_family_are_refused() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(3);
        let light = LightGcn::new(&ds, LightGcnConfig::default(), &mut rng);
        let path = std::env::temp_dir().join("lrgcn_ckpt_cross_family.bin");
        save_model(&path, "lightgcn", &light).expect("save");
        // Same ego shape, so only the tag tells the families apart.
        let mut layer = LayerGcn::new(&ds, LayerGcnConfig::default(), &mut rng);
        let err = layer.load(&path).expect_err("a lightgcn file loaded into LayerGCN");
        let msg = err.to_string();
        assert!(msg.contains("lightgcn") && msg.contains("layergcn"), "{msg}");
        let entries = lrgcn_tensor::io::load_checkpoint(&path).expect("read");
        let msg = layer
            .load_checkpoint_entries(&entries)
            .expect_err("lightgcn entries loaded into LayerGCN");
        assert!(msg.contains("lightgcn") && msg.contains("layergcn"), "{msg}");
        // Untagged files predate the marker and stay loadable.
        let untagged: Vec<(String, Matrix)> = entries
            .into_iter()
            .filter(|(n, _)| !n.starts_with(MODEL_TAG_PREFIX))
            .collect();
        layer.load_checkpoint_entries(&untagged).expect("untagged entries");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn servable_config_rebuilds_the_tagged_family() {
        for tag in SERVABLE_TAGS {
            let cfg = servable_config(tag, 8, 2, 0.1).expect("servable");
            assert_eq!(cfg.propagation.tag(), tag);
            assert_eq!((cfg.embedding_dim, cfg.n_layers), (8, 2));
        }
        let pruner = |dropout| servable_config("layergcn", 8, 2, dropout).unwrap().pruner;
        assert_eq!(pruner(0.1), EdgePruner::DegreeDrop { ratio: 0.1 });
        assert_eq!(pruner(0.0), EdgePruner::None);
        let err = servable_config("mystery", 8, 2, 0.1).expect_err("unknown tag");
        for tag in SERVABLE_TAGS {
            assert!(err.contains(tag), "{err:?} does not name {tag}");
        }
    }

    #[test]
    fn untagged_files_have_no_tag() {
        let m = Matrix::zeros(2, 2);
        let entries = vec![("ego".to_string(), m)];
        assert_eq!(model_tag(&entries), None);
    }

    #[test]
    fn unsupported_models_refuse_to_save() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(3);
        let m = crate::BprMf::new(&ds, crate::BprMfConfig::default(), &mut rng);
        let err = save_model(std::env::temp_dir().join("x"), "bpr", &m).expect_err("no format");
        assert!(err.contains("no stable checkpoint format"), "{err}");
    }

    #[test]
    fn wrong_shape_entries_are_rejected() {
        let ds = tiny_dataset(4);
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = LightGcn::new(&ds, LightGcnConfig::default(), &mut rng);
        let entries = vec![("ego".to_string(), Matrix::zeros(1, 1))];
        assert!(m.load_checkpoint_entries(&entries).is_err());
        let missing: Vec<(String, Matrix)> = vec![];
        assert!(m.load_checkpoint_entries(&missing).is_err());
    }
}
