//! # lrgcn-eval — evaluation stack for the LayerGCN reproduction
//!
//! * [`metrics`] — Recall@K (Eq. 26), NDCG@K (Eq. 27), precision, hit rate;
//! * [`topk`] — the all-ranking protocol with train-item masking (§V-A3);
//! * [`stratified`] — head/tail popularity breakdown of recall;
//! * [`ttest`] — the paired t-test behind Table II's significance stars;
//! * [`beyond`] — coverage / Gini-exposure / novelty companions to the
//!   accuracy tables;
//! * [`oversmooth`] — layer-divergence and edge-distance diagnostics backing
//!   the over-smoothing analysis (Eq. 15/17, Figs. 1/5/6).

pub mod beyond;
pub mod metrics;
pub mod oversmooth;
pub mod stratified;
pub mod topk;
pub mod ttest;

pub use topk::{
    evaluate_ranking, evaluate_ranking_parallel, overlap_fraction, rank_order, top_k_indices,
    top_k_indices_into, top_k_with_scores, EvalReport, RankingMetrics, Split,
};
pub use ttest::{paired_t_test, TTestResult};
