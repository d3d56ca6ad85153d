//! # lrgcn-models — LayerGCN and the paper's nine baselines
//!
//! Every model from Table II of "Layer-refined Graph Convolutional Networks
//! for Recommendation" (Zhou et al., ICDE 2023), each implemented from
//! scratch on `lrgcn-tensor`'s autodiff tape:
//!
//! | Module | Model | Paper ref |
//! |---|---|---|
//! | [`egogcn`] | One ego-table GCN, three [`Propagation`]s: **LayerGCN** (the contribution; Full / w/o Dropout / DropEdge / Mixed), LightGCN and linear-residual LR-GCCF | §III-B, He'20, Chen'20 |
//! | [`bpr`] | BPR matrix factorization | Rendle'09 |
//! | [`lightgcn`] | LightGCN's learnable-layer-weight variant (Fig. 1) | He'20 |
//! | [`ngcf`] | Neural Graph CF | Wang'19 |
//! | [`multivae`] | Variational autoencoder CF | Liang'18 |
//! | [`ehcf`] | Efficient non-sampling CF | Chen'20 |
//! | [`buir`] | Bootstrapped (negative-free) CF, LightGCN backbone | Lee'21 |
//! | [`ultragcn`] | Infinite-layer constraint CF | Mao'21 |
//! | [`impgcn`] | Interest-aware subgraph GCN | Liu'21 |
//! | [`classic`] | Popularity + ItemKNN (non-learned floors) | §II-A |
//! | [`residual`] | Vanilla GCN / residual GCN / GCNII-style initial residual | §IV-B |
//! | [`layergcn_ssl`] | LayerGCN + contrastive SSL (extension, §VI) | future work |
//!
//! All models implement [`traits::Recommender`] and train through one
//! `params::Params`: their parameters, one Adam optimiser and one step.
//! [`layergcn`] keeps the
//! `layergcn::{LayerGcn, LayerGcnConfig, refined_chain}` import path.

pub mod bpr;
pub mod buir;
pub mod checkpoint;
pub mod classic;
pub mod common;
pub mod egogcn;
pub mod ehcf;
pub mod foldin;
pub mod impgcn;
pub mod layergcn;
pub mod layergcn_ssl;
pub mod lightgcn;
pub mod live_items;
pub mod multivae;
pub mod ngcf;
mod params;
pub mod registry;
pub mod residual;
pub mod traits;
pub mod ultragcn;

#[cfg(test)]
pub(crate) mod test_util;

pub use bpr::{BprMf, BprMfConfig};
pub use checkpoint::{model_tag, save_model, servable_config, MODEL_TAG_PREFIX, SERVABLE_TAGS};
pub use classic::{ItemKnn, ItemKnnConfig, Popularity};
pub use foldin::FoldInBasis;
pub use buir::{Buir, BuirConfig};
pub use egogcn::{
    EgoGcn, EgoGcnConfig, LayerGcn, LayerGcnConfig, LightGcn, LightGcnConfig, LrGccf,
    LrGccfConfig, Propagation,
};
pub use ehcf::{Ehcf, EhcfConfig};
pub use impgcn::{ImpGcn, ImpGcnConfig};
pub use layergcn_ssl::{LayerGcnSsl, LayerGcnSslConfig};
pub use lightgcn::WeightedLightGcn;
pub use live_items::LiveItems;
pub use multivae::{MultiVae, MultiVaeConfig};
pub use ngcf::{Ngcf, NgcfConfig};
pub use ultragcn::{UltraGcn, UltraGcnConfig};
pub use registry::ModelKind;
pub use residual::{ResidualFamilyGcn, ResidualGcnConfig, ResidualKind};
pub use traits::{EpochStats, OptimState, Recommender};
