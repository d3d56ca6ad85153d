//! LayerGCN — the paper's contribution (§III-B) — under its own path.
//!
//! The model is the [`Propagation::Refined`](crate::egogcn::Propagation)
//! variant of [`crate::egogcn::EgoGcn`]; this module keeps the
//! `layergcn::{LayerGcn, LayerGcnConfig, refined_chain}` names that callers
//! import.

pub use crate::egogcn::{refined_chain, LayerGcn, LayerGcnConfig};
