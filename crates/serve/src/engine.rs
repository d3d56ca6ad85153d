//! The serving engine: checkpoint + dataset → an immutable scoring state
//! with atomic hot reload.
//!
//! [`Engine::open`] reads a tagged checkpoint (see
//! `lrgcn_models::checkpoint`), rebuilds the matching model family around
//! it, runs the inference propagation once and keeps only the **final node
//! embedding matrix** — the `(n_users + n_items) × d` table the offline
//! evaluator scores from. Request handling then reuses the *same* kernels
//! as the evaluator ([`lrgcn_models::common::score_from_final`], the same
//! `-inf` masking of training items, [`lrgcn_eval::top_k_with_scores`]), so
//! a served top-K list is byte-identical to the offline ranking — for any
//! `LRGCN_THREADS`, by the parallel layer's bitwise-identity contract.
//!
//! Reload builds a fresh [`EngineState`] off to the side and swaps it in
//! with one `RwLock<Arc<_>>` write: requests in flight keep scoring against
//! the `Arc` snapshot they already cloned, so zero requests fail or observe
//! a torn state during a reload. The generation counter feeds the response
//! cache keys, which is what invalidates cached answers.
//!
//! ## Live rows and the zero class
//!
//! The state stores the item table once, split by content into a
//! [`LiveItems`]: the **live** rows (any component other than `±0.0`),
//! compacted in ascending id order behind the user rows, and the sorted ids
//! of the all-zero rows, which share one zero row. The offline evaluator
//! scores LayerGCN's cold-heavy tables from the same type; the module doc
//! of [`lrgcn_models::live_items`] says why the split is bitwise.
//!
//! For a finite query every zero row scores exactly `+0.0`. The scans
//! therefore run over the live block only, and the zero rows enter a
//! ranking as one class — `+0.0` at the lowest unmasked zero ids, merged
//! under [`rank_order`] — and only when fewer than `k` live candidates
//! survive or the k-th live score is `<= 0`. Live positions map to ids
//! monotonically, so the index tie-break is the full scan's, and the
//! answer is bitwise the full scan's. A query with a non-finite component
//! (where `dot(row, 0)` may be NaN) takes a full-width fallback that scores
//! and selects every id in one vector, NaN panic included.
//!
//! ## One read pipeline
//!
//! Every `/recs` and `/similar` answer comes out of one private pipeline,
//! `EngineState::rank`, whose only input besides the query is a
//! [`ReadPlan`]: how many IVF cells to probe (`0` = every live row) and
//! whether an int8 pre-rank comes first. Its stages — candidates, score,
//! cosine, mask, select, rescore, zero class — are listed on `rank`. With
//! [`EngineOptions::quant`] the state carries an int8 [`QuantizedTable`]
//! of the live rows (rebuilt on every reload); the int8 stage ranks the
//! candidates cheaply and the exact f32 dot re-scores only the top `4·K`.
//! The IVF index (`EngineOptions::ann`, or `ann_standby` for the brownout
//! controller) is built over the live rows too. [`EngineState::plan`] is
//! the configured plan; the server serves a cheaper one under brownout,
//! and the same value keys the response cache. The measured recall of
//! each approximate plan against the exact scan
//! ([`EngineState::quant_recall`], [`EngineState::ann_recall`]) is
//! computed once per load and exported as the `serve.quant.recall_ppm` /
//! `serve.ann.recall_ppm` gauges.

use crate::ann::{IvfConfig, IvfIndex};
use crate::delta::StreamDelta;
use lrgcn_data::Dataset;
use lrgcn_models::foldin::FoldInBasis;
use lrgcn_stream::{EventLog, StreamEvent};
use lrgcn_eval::{overlap_fraction, rank_order, top_k_indices_into};
use lrgcn_models::checkpoint::{model_tag, require_entry, servable_config};
use lrgcn_models::{EgoGcn, LiveItems, Recommender};
use lrgcn_obs::window::ReadPath;
use lrgcn_obs::{registry, Counter, Gauge};
use lrgcn_tensor::matrix::dot;
use lrgcn_tensor::{kernels, Matrix, QuantizedTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Model hyper-parameters the checkpoint does not record. They must match
/// the training invocation (same contract as `lrgcn evaluate`); the
/// embedding dimension itself is inferred from the checkpoint.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    pub n_layers: usize,
    /// Degree-sensitive dropout ratio used to *construct* LayerGCN (only
    /// training uses it; inference propagates over the full adjacency).
    pub dropout: f32,
    pub seed: u64,
    /// Serve `/recs`, `/similar` and `/score` through the int8 quantized
    /// two-stage read path instead of the exact f32 scan.
    pub quant: bool,
    /// Serve `/recs` and `/similar` through the IVF ANN index (sub-linear
    /// candidate generation; composes with `quant` for the in-cell scan).
    pub ann: bool,
    /// Build the IVF index even when `ann` is off, without serving through
    /// it by default. The brownout controller (DESIGN.md §14) needs a
    /// ready-made cheap read path to step down to under overload; a standby
    /// index makes exact-serving deployments degradable without a reload.
    pub ann_standby: bool,
    /// How many IVF cells a query probes: every request under `ann`, and
    /// the brownout controller's level-1 plan on a standby index (level 2
    /// halves it). Unused when no index is built.
    pub nprobe: usize,
    /// IVF cell count; `0` auto-sizes to `≈ √n_items`.
    pub ann_cells: usize,
    /// Streaming ingestion (DESIGN.md §13): the event-log directory whose
    /// acknowledged events the engine replays on every open/reload. The
    /// covered prefix (recorded in the checkpoint by `lrgcn retrain`)
    /// extends the training dataset; the uncovered suffix becomes the
    /// state's fold-in [`StreamDelta`]. `None` disables streaming.
    pub events_dir: Option<PathBuf>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            n_layers: 4,
            dropout: 0.1,
            seed: 2023,
            quant: false,
            ann: false,
            ann_standby: false,
            nprobe: IvfConfig::default().nprobe,
            ann_cells: 0,
            events_dir: None,
        }
    }
}

/// First-stage candidate multiplier: the quantized scan keeps `4·K`
/// candidates for the exact rescore.
const CANDIDATE_FACTOR: usize = 4;
/// How many users the build-time recall guardrail samples.
const RECALL_SAMPLE_USERS: usize = 64;
/// The K the guardrail compares at (the paper's headline Recall@20 cut).
const RECALL_K: usize = 20;

/// Reusable per-worker request buffers. Request handling on the hot path
/// writes scores into these instead of allocating an `n_items`-sized score
/// matrix plus an index vector per request; `server.rs` keeps one per
/// worker thread in a `thread_local`.
#[derive(Default)]
pub struct Scratch {
    scores: Vec<f32>,
    idx: Vec<u32>,
    qbuf: Vec<i8>,
    /// Probed IVF cell ids (ANN path only).
    cells: Vec<u32>,
    /// ANN candidates (live positions) gathered from the probed cells.
    cand: Vec<u32>,
    /// The streaming path's seen mask: training plus folded-in items.
    seen: Vec<u32>,
}

/// How one `/recs` or `/similar` read is served: which candidates the
/// pipeline scores and whether an int8 pre-rank comes first. The engine's
/// configured plan is [`EngineState::plan`]; the brownout controller
/// (DESIGN.md §14) serves a cheaper one under overload. The same value is
/// the response-cache key component and names the [`ReadPath`] a request
/// is counted under. A plan asking for an index or a table the state did
/// not build reads as if that field were off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ReadPlan {
    /// IVF cells to probe (clamped to the index's cell count); `0` scans
    /// every live row.
    pub nprobe: usize,
    /// Pre-rank with the int8 table and rescore the top
    /// `CANDIDATE_FACTOR·k` with the exact f32 dot.
    pub int8: bool,
}

impl ReadPlan {
    /// The label the request windows count this plan under.
    pub fn path(self) -> ReadPath {
        if self.nprobe > 0 {
            ReadPath::Ann
        } else if self.int8 {
            ReadPath::Quant
        } else {
            ReadPath::Exact
        }
    }
}

/// What [`EngineState::rank`] scores: the raw dot (`/recs`) or the cosine
/// against a query of the given L2 norm (`/similar`), where a zero norm on
/// either side scores `0` rather than NaN.
#[derive(Clone, Copy)]
enum Metric {
    Dot,
    Cosine(f32),
}

/// One immutable, fully-materialized serving snapshot.
///
/// With streaming on, "immutable" means the *trained* part: the snapshot
/// additionally carries a swappable [`StreamDelta`] of folded-in events
/// (see [`EngineState::apply_events`]). Keeping the delta inside the state
/// makes the (state, delta) pair a single consistency domain — a request
/// that cloned the state `Arc` always reads a delta built for exactly that
/// state, even across a hot reload.
pub struct EngineState {
    /// Human-readable model name (`Recommender::name`).
    pub model_name: String,
    /// Checkpoint family tag (see `lrgcn_models::checkpoint::SERVABLE_TAGS`).
    pub tag: String,
    /// Monotone reload counter; part of every cache key.
    pub generation: u64,
    /// Learnable scalar count, for /healthz.
    pub n_parameters: usize,
    pub n_users: usize,
    pub n_items: usize,
    pub dim: usize,
    /// Log events baked into this state's training matrices (the covered
    /// prefix recorded in the checkpoint by `lrgcn retrain`); 0 without
    /// streaming.
    pub covered_events: u64,
    /// The dataset this state was built against: the base dataset extended
    /// with the covered event prefix (identical to the base without
    /// streaming).
    ds: Arc<Dataset>,
    /// Fold-in basis for synthesizing rows of post-training nodes; `None`
    /// when streaming is off or the model family opts out.
    foldin: Option<FoldInBasis>,
    /// Folded-in events on top of this state (always the empty delta at
    /// version 0 without streaming).
    delta: RwLock<Arc<StreamDelta>>,
    /// Final node embeddings with the item block reduced to its live rows.
    items: LiveItems,
    /// L2 norms of the live rows, by live position (cosine for /similar).
    live_norms: Vec<f32>,
    /// Int8 table of the live rows when the quantized read path is on.
    quant: Option<QuantizedTable>,
    /// IVF index over the live rows when the ANN read path is on *or*
    /// built on standby for brownout fallback. Its members are live
    /// positions.
    ann: Option<IvfIndex>,
    /// The read plan built from the options: the index's probe width when
    /// `EngineOptions::ann` serves through it (`0` for a standby-only
    /// index), int8 when the table exists.
    plan: ReadPlan,
    /// Mean overlap of the quantized top-20 with the exact top-20 over a
    /// user sample, measured at build time. `1.0` when quant is off.
    pub quant_recall: f64,
    /// Mean overlap of the ANN top-20 with the exact top-20 over a user
    /// sample, measured at build time. `1.0` when ANN is off.
    pub ann_recall: f64,
}

impl EngineState {
    #[allow(clippy::too_many_arguments)] // internal constructor, one call site
    fn new(
        model_name: String,
        tag: String,
        generation: u64,
        n_parameters: usize,
        ds: Arc<Dataset>,
        covered_events: u64,
        foldin: Option<FoldInBasis>,
        final_emb: Matrix,
        opts: &EngineOptions,
    ) -> Self {
        let (n_users, n_items) = (ds.n_users(), ds.n_items());
        let dim = final_emb.cols();
        let items = LiveItems::split(final_emb, n_users);
        let n_live = items.n_live();
        let live_norms = (0..n_live)
            .map(|p| {
                let row = items.live_row(p);
                dot(row, row).sqrt()
            })
            .collect();
        let quant = opts
            .quant
            .then(|| QuantizedTable::from_matrix_rows(items.table(), n_users, n_users + n_live));
        let ann = (opts.ann || opts.ann_standby).then(|| {
            let cfg = IvfConfig {
                n_cells: opts.ann_cells,
                nprobe: opts.nprobe,
                seed: opts.seed,
            };
            // The cell count is sized from the whole catalogue, as
            // configured; the build clamps it to the live rows it indexes.
            let cfg = IvfConfig {
                n_cells: cfg.resolved_cells(n_items),
                ..cfg
            };
            IvfIndex::build(items.live_block(), n_live, dim, &cfg)
        });
        Self {
            model_name,
            tag,
            generation,
            n_parameters,
            n_users,
            n_items,
            dim,
            covered_events,
            ds,
            foldin,
            delta: RwLock::new(Arc::new(StreamDelta::default())),
            items,
            live_norms,
            plan: ReadPlan {
                nprobe: ann.as_ref().filter(|_| opts.ann).map_or(0, IvfIndex::nprobe),
                int8: quant.is_some(),
            },
            quant,
            ann,
            quant_recall: 1.0,
            ann_recall: 1.0,
        }
    }

    /// The dataset this state was built against (base + covered events).
    pub fn ds(&self) -> &Arc<Dataset> {
        &self.ds
    }

    /// True when this snapshot can synthesize fold-in rows for
    /// post-training users/items.
    pub fn foldin_enabled(&self) -> bool {
        self.foldin.is_some()
    }

    /// The current fold-in delta. Cloning the `Arc` pins a consistent
    /// snapshot for the whole request.
    pub fn delta(&self) -> Arc<StreamDelta> {
        self.delta.read().expect("stream delta poisoned").clone()
    }

    /// Folds acknowledged log events into this state's delta and returns
    /// the new delta. The caller must serialize calls (the server's ingest
    /// lock does) so fold-ins apply in log order; each call clones the
    /// current delta off to the side and swaps the `Arc`, so concurrent
    /// readers never block or observe a torn delta. All arithmetic runs
    /// serially in event order — folded rows are bitwise identical for any
    /// `LRGCN_THREADS`.
    pub fn apply_events(&self, events: &[StreamEvent]) -> Arc<StreamDelta> {
        let cur = self.delta();
        let mut next = (*cur).clone();
        next.version += 1;
        for ev in events {
            next.events_applied += 1;
            self.fold_event(&mut next, ev.user, ev.item);
        }
        let next = Arc::new(next);
        *self.delta.write().expect("stream delta poisoned") = next.clone();
        next
    }

    /// One event's fold-in (see `lrgcn_models::foldin` for the math).
    /// Repeats of training edges and already-folded pairs are no-ops.
    fn fold_event(&self, d: &mut StreamDelta, user: u32, item: u32) {
        if (user as usize) < self.n_users
            && (item as usize) < self.n_items
            && self.ds.is_train_interaction(user, item)
        {
            return;
        }
        let entry = d.user_items.entry(user).or_default();
        match entry.binary_search(&item) {
            Ok(_) => return,
            Err(pos) => entry.insert(pos, item),
        }
        let items = entry.clone();
        if (item as usize) >= self.n_items {
            let users = d.item_users.entry(item).or_default();
            if let Err(pos) = users.binary_search(&user) {
                users.insert(pos, user);
            }
        }
        let Some(basis) = &self.foldin else { return };
        let row = if (user as usize) < self.n_users {
            basis.updated_user_row(user, self.user_row(user), &items)
        } else {
            basis.synth_user_row(&items)
        };
        d.user_rows.insert(user, row);
        if (item as usize) >= self.n_items {
            let users = d.item_users.get(&item).expect("just inserted").clone();
            d.item_rows.insert(item, basis.synth_item_row(&users));
        }
    }

    /// The read plan requests are served with when nothing overrides it:
    /// the configured probe width under `EngineOptions::ann`, else a full
    /// scan, int8-pre-ranked under `EngineOptions::quant`.
    pub fn plan(&self) -> ReadPlan {
        self.plan
    }

    /// True when this snapshot carries the int8 table and serves through
    /// it by default.
    pub fn quant_enabled(&self) -> bool {
        self.quant.is_some()
    }

    /// Heap bytes of the int8 table (0 when quant is off).
    pub fn quant_bytes(&self) -> usize {
        self.quant.as_ref().map_or(0, |q| q.bytes())
    }

    /// True when this snapshot serves through the IVF ANN read path *by
    /// default* (a standby index does not count; see
    /// [`EngineState::ann_available`]).
    pub fn ann_enabled(&self) -> bool {
        self.plan.nprobe > 0
    }

    /// True when an IVF index exists at all — serving default or standby —
    /// so a [`ReadPlan`] with `nprobe > 0` can route through it.
    pub fn ann_available(&self) -> bool {
        self.ann.is_some()
    }

    /// Heap bytes of the IVF index (0 when ANN is off).
    pub fn ann_bytes(&self) -> usize {
        self.ann.as_ref().map_or(0, |a| a.bytes())
    }

    /// IVF cell count (0 when ANN is off).
    pub fn ann_cells(&self) -> usize {
        self.ann.as_ref().map_or(0, |a| a.n_cells())
    }

    /// Effective probe width (0 when ANN is off).
    pub fn ann_nprobe(&self) -> usize {
        self.ann.as_ref().map_or(0, |a| a.nprobe())
    }

    /// How many item rows are live (not all-zero); for /healthz.
    pub(crate) fn live_items(&self) -> usize {
        self.items.n_live()
    }

    fn user_row(&self, user: u32) -> &[f32] {
        self.items.table().row(user as usize)
    }

    fn item_norm(&self, item: u32) -> f32 {
        self.items.live_position(item).map_or(0.0, |p| self.live_norms[p])
    }

    /// The raw score matrix for a chunk of users, bitwise what the exact
    /// evaluator gives over the full item table ([`LiveItems::score_users`]).
    pub fn score_users(&self, users: &[u32]) -> Matrix {
        self.items.score_users(users)
    }

    /// Top-K recommendations for one user, optionally masking the items the
    /// user interacted with in training — the same masking and the same
    /// tie-break as the offline evaluator. Allocating wrapper around
    /// [`EngineState::top_k_into`].
    pub fn top_k(
        &self,
        ds: &Dataset,
        user: u32,
        k: usize,
        exclude_seen: bool,
    ) -> Result<Vec<(u32, f32)>, String> {
        self.top_k_into(ds, user, k, exclude_seen, &mut Scratch::default())
    }

    /// [`EngineState::top_k`] under the configured [`ReadPlan`], writing
    /// every `O(n_items)` intermediate into a caller-held [`Scratch`].
    /// `exclude_seen` masks `ds`'s training items.
    pub fn top_k_into(
        &self,
        ds: &Dataset,
        user: u32,
        k: usize,
        exclude_seen: bool,
        scratch: &mut Scratch,
    ) -> Result<Vec<(u32, f32)>, String> {
        if user as usize >= self.n_users {
            return Err(format!("user {user} out of range (0..{})", self.n_users));
        }
        let seen: &[u32] = if exclude_seen { ds.train_items(user) } else { &[] };
        let row = self.user_row(user);
        Ok(self.rank(row, Metric::Dot, seen, k, self.plan, scratch))
    }

    /// [`EngineState::recs`] under the configured [`ReadPlan`].
    pub fn top_k_stream(
        &self,
        delta: &StreamDelta,
        user: u32,
        k: usize,
        exclude_seen: bool,
        scratch: &mut Scratch,
    ) -> Result<Vec<(u32, f32)>, String> {
        self.recs(delta, user, k, exclude_seen, self.plan, scratch)
    }

    /// Top-K for a user as seen through a streaming fold-in [`StreamDelta`]
    /// (pin one `Arc` per request via [`EngineState::delta`]), served with
    /// `plan`: post-training users serve from their synthesized row,
    /// trained users with folded-in events from their updated row, and
    /// synthesized new-item rows join the candidate pool. With
    /// `exclude_seen`, folded-in interactions are masked alongside training
    /// ones. With an empty delta this is byte-identical to
    /// [`EngineState::top_k`] over the state's own dataset.
    pub fn recs(
        &self,
        delta: &StreamDelta,
        user: u32,
        k: usize,
        exclude_seen: bool,
        plan: ReadPlan,
        scratch: &mut Scratch,
    ) -> Result<Vec<(u32, f32)>, String> {
        let trained = (user as usize) < self.n_users;
        let row: &[f32] = match delta.user_row(user) {
            Some(r) => r,
            None if trained => self.user_row(user),
            None => {
                return Err(format!(
                    "user {user} out of range (0..{}) and not folded in",
                    self.n_users
                ))
            }
        };
        let folded = delta.user_items(user);
        let mut merged = std::mem::take(&mut scratch.seen);
        merged.clear();
        let seen: &[u32] = if !exclude_seen {
            &[]
        } else {
            let train: &[u32] = if trained { self.ds.train_items(user) } else { &[] };
            if folded.is_empty() {
                train
            } else {
                merged.extend_from_slice(train);
                merged.extend_from_slice(folded);
                merged.sort_unstable();
                merged.dedup();
                &merged
            }
        };
        let mut out = self.rank(row, Metric::Dot, seen, k, plan, scratch);
        let mut extended = false;
        for (it, irow) in delta.item_rows() {
            if seen.binary_search(&it).is_ok() {
                continue;
            }
            out.push((it, dot(row, irow)));
            extended = true;
        }
        if extended {
            out.sort_by(rank_order);
            out.truncate(k);
        }
        scratch.seen = merged;
        Ok(out)
    }

    /// Top-K most similar items by embedding cosine (the query item itself
    /// excluded). Zero-norm embeddings score 0 rather than NaN. Allocating
    /// wrapper around [`EngineState::similar_items_into`].
    pub fn similar_items(&self, item: u32, k: usize) -> Result<Vec<(u32, f32)>, String> {
        self.similar_items_into(item, k, &mut Scratch::default())
    }

    /// [`EngineState::similar`] under the configured [`ReadPlan`].
    pub fn similar_items_into(
        &self,
        item: u32,
        k: usize,
        scratch: &mut Scratch,
    ) -> Result<Vec<(u32, f32)>, String> {
        self.similar(item, k, self.plan, scratch)
    }

    /// [`EngineState::similar_items`] served with `plan`.
    pub fn similar(
        &self,
        item: u32,
        k: usize,
        plan: ReadPlan,
        scratch: &mut Scratch,
    ) -> Result<Vec<(u32, f32)>, String> {
        if item as usize >= self.n_items {
            return Err(format!("item {item} out of range (0..{})", self.n_items));
        }
        let metric = Metric::Cosine(self.item_norm(item));
        Ok(self.rank(self.items.item_row(item as usize), metric, &[item], k, plan, scratch))
    }

    /// The read pipeline every `/recs` and `/similar` answer comes from:
    /// the top `k` catalogue items for `query` under `metric`, best first
    /// in [`rank_order`], none of the sorted `excluded` ids among them.
    ///
    /// 1. *Candidates*: every live position, or — when `plan` probes an
    ///    index — the probed cells' members, sorted ascending so that an
    ///    index tie-break is still an id tie-break.
    /// 2. *Score*: `matmul_nt_block` over the live block on a full scan,
    ///    `dot` per candidate otherwise, or the int8 table under
    ///    `plan.int8`. A cosine query of norm 0 scores every candidate 0
    ///    without a scan.
    /// 3. *Cosine*: under [`Metric::Cosine`], each score becomes a cosine.
    /// 4. *Mask*: the `excluded` ids score `-inf`.
    /// 5. *Select*: one `top_k_indices_into` keeps `k` (int8:
    ///    `CANDIDATE_FACTOR·k`) candidates; masked ones are dropped.
    /// 6. *Rescore*: under int8, the survivors get their exact score and
    ///    are cut to `k`.
    /// 7. *Zero class*: [`EngineState::merge_zero_class`].
    ///
    /// An exact full-scan dot query with a non-finite component takes
    /// [`EngineState::top_k_exact_full_width`] instead.
    fn rank(
        &self,
        query: &[f32],
        metric: Metric,
        excluded: &[u32],
        k: usize,
        plan: ReadPlan,
        scratch: &mut Scratch,
    ) -> Vec<(u32, f32)> {
        let ann = self.ann.as_ref().filter(|_| plan.nprobe > 0);
        let quant = self.quant.as_ref().filter(|_| plan.int8);
        if ann.is_none()
            && quant.is_none()
            && matches!(metric, Metric::Dot)
            && !query.iter().all(|x| x.is_finite())
        {
            return self.top_k_exact_full_width(query, excluded, k, scratch);
        }
        let Scratch {
            scores,
            idx,
            qbuf,
            cells,
            cand,
            ..
        } = scratch;
        let cand: Option<&[u32]> = ann.map(move |ann| {
            let probed = ann.candidates_into_n(query, plan.nprobe, cells, cand);
            cand.sort_unstable();
            registry::add(Counter::AnnCellsProbed, probed as u64);
            registry::add(Counter::AnnCandidates, cand.len() as u64);
            cand.as_slice()
        });
        let pos = |i: usize| cand.map_or(i, |c| c[i] as usize);
        let finish = |p: usize, s: f32| match metric {
            Metric::Dot => s,
            Metric::Cosine(qn) => {
                let n = qn * self.live_norms[p];
                if n > 0.0 {
                    s / n
                } else {
                    0.0
                }
            }
        };

        scores.clear();
        scores.resize(cand.map_or(self.live_items(), <[u32]>::len), 0.0);
        let scan = match metric {
            Metric::Dot => true,
            Metric::Cosine(qn) => qn > 0.0,
        };
        if scan {
            let q_scale = match quant {
                Some(_) => QuantizedTable::quantize_query(query, qbuf),
                None => 0.0,
            };
            match (quant, cand) {
                (Some(qt), None) => qt.scores_into(qbuf, q_scale, scores),
                (None, None) => self.live_scores_into(query, scores),
                (_, Some(c)) => {
                    for (s, &p) in scores.iter_mut().zip(c) {
                        *s = match quant {
                            Some(qt) => qt.score_row(p as usize, qbuf, q_scale),
                            None => dot(query, self.items.live_row(p as usize)),
                        };
                    }
                }
            }
            if let Metric::Cosine(_) = metric {
                for (i, s) in scores.iter_mut().enumerate() {
                    *s = finish(pos(i), *s);
                }
            }
        }

        for &it in excluded {
            let Some(p) = self.items.live_position(it) else {
                continue;
            };
            let slot = cand.map_or(Some(p), |c| c.binary_search(&(p as u32)).ok());
            if let Some(i) = slot {
                scores[i] = f32::NEG_INFINITY;
            }
        }

        let width = if quant.is_some() {
            k.saturating_mul(CANDIDATE_FACTOR)
        } else {
            k
        };
        top_k_indices_into(scores, width, idx);
        let mut out: Vec<(u32, f32)> = idx
            .iter()
            .map(|&i| i as usize)
            .filter(|&i| scores[i] != f32::NEG_INFINITY)
            .map(|i| {
                let p = pos(i);
                let s = if quant.is_some() {
                    finish(p, dot(query, self.items.live_row(p)))
                } else {
                    scores[i]
                };
                (self.items.live_ids()[p], s)
            })
            .collect();
        if quant.is_some() {
            registry::add(Counter::QuantScans, 1);
            registry::add(Counter::QuantRescored, out.len() as u64);
            out.sort_by(rank_order);
            out.truncate(k);
        }

        self.merge_zero_class(&mut out, k, excluded);
        out
    }

    /// Exact f32 scores of a readout row against the live rows, one per
    /// live position, written into `out` (`live_items` long). The same
    /// `matmul_nt` kernel as [`score_from_final`], so every live score is
    /// bitwise the offline evaluator's.
    fn live_scores_into(&self, row: &[f32], out: &mut [f32]) {
        let kern = kernels::active_kernel();
        kernels::count_dispatch(kern);
        kernels::matmul_nt_block(
            kern,
            row,
            self.dim,
            self.items.live_block(),
            self.live_items(),
            out,
        );
    }

    /// Merges the zero class into `out`, a live ranking in [`rank_order`]
    /// at most `k` long. Every zero row scores `+0.0` (and a zero row's
    /// cosine is `0`), so the class can only place when fewer than `k`
    /// live candidates survive or the k-th live score is `<= 0`, and then
    /// only through its `k` lowest ids outside `excluded` (sorted
    /// ascending; walked as a merge).
    fn merge_zero_class(&self, out: &mut Vec<(u32, f32)>, k: usize, excluded: &[u32]) {
        let open = out.len() < k || out.last().is_some_and(|&(_, s)| s <= 0.0);
        if !open {
            return;
        }
        let before = out.len();
        let mut excluded = excluded.iter().peekable();
        for &z in self.items.zero_ids() {
            if out.len() - before == k {
                break;
            }
            while excluded.next_if(|&&e| e < z).is_some() {}
            if excluded.peek() != Some(&&z) {
                out.push((z, 0.0));
            }
        }
        if out.len() > before {
            out.sort_by(rank_order);
            out.truncate(k);
        }
    }

    /// The exact full scan for a query row with a non-finite component,
    /// whose zero-row score `dot(row, 0)` may be NaN: every id is scored
    /// into one full-width vector and selected in one pass, so a NaN panics
    /// exactly where a full scan's would.
    fn top_k_exact_full_width(
        &self,
        row: &[f32],
        seen: &[u32],
        k: usize,
        scratch: &mut Scratch,
    ) -> Vec<(u32, f32)> {
        let scores = &mut scratch.scores;
        scores.clear();
        scores.resize(self.n_items, 0.0);
        self.live_scores_into(row, &mut scores[..self.live_items()]);
        // Scatter in place, last position first: `live_ids[p] >= p`, so no
        // position is overwritten before it is read.
        for p in (0..self.live_items()).rev() {
            scores[self.items.live_ids()[p] as usize] = scores[p];
        }
        let zero = dot(row, self.items.zero_row());
        for &z in self.items.zero_ids() {
            scores[z as usize] = zero;
        }
        for &it in seen {
            if (it as usize) < self.n_items {
                scores[it as usize] = f32::NEG_INFINITY;
            }
        }
        top_k_indices_into(scores, k, &mut scratch.idx);
        scratch
            .idx
            .iter()
            .map(|&i| (i, scores[i as usize]))
            .filter(|&(_, s)| s != f32::NEG_INFINITY)
            .collect()
    }

    /// Dot-product scores for explicit `(user, item)` pairs — the
    /// micro-batcher's coalesced kernel. Out-of-range ids are an error (the
    /// whole batch is rejected so the caller can 400 it). Under quant the
    /// dots are int8-approximated (documented serving trade-off); the
    /// default path is exact f32.
    pub fn score_pairs(&self, pairs: &[(u32, u32)]) -> Result<Vec<f32>, String> {
        for &(u, i) in pairs {
            if u as usize >= self.n_users {
                return Err(format!("user {u} out of range (0..{})", self.n_users));
            }
            if i as usize >= self.n_items {
                return Err(format!("item {i} out of range (0..{})", self.n_items));
            }
        }
        if let Some(qt) = &self.quant {
            let mut qbuf = Vec::new();
            registry::add(Counter::QuantScans, 1);
            return Ok(pairs
                .iter()
                .map(|&(u, i)| {
                    let q_scale =
                        QuantizedTable::quantize_query(self.user_row(u), &mut qbuf);
                    // A zero row quantizes to scale 0, which scores 0.
                    self.items.live_position(i)
                        .map_or(0.0, |p| qt.score_row(p, &qbuf, q_scale))
                })
                .collect());
        }
        Ok(pairs
            .iter()
            .map(|&(u, i)| dot(self.user_row(u), self.items.item_row(i as usize)))
            .collect())
    }
}

/// Mean overlap of the top-`RECALL_K` under `plan` with the exact top-20
/// over up to [`RECALL_SAMPLE_USERS`] users spread evenly across the id
/// space — the build-time guardrail behind the `serve.quant.recall_ppm` /
/// `serve.ann.recall_ppm` gauges.
fn measure_recall(state: &EngineState, ds: &Dataset, plan: ReadPlan) -> f64 {
    let samples = state.n_users.min(RECALL_SAMPLE_USERS);
    if samples == 0 {
        return 1.0;
    }
    let stride = state.n_users / samples;
    let mut scratch = Scratch::default();
    let mut top = |user: u32, plan| -> Vec<u32> {
        let row = state.user_row(user);
        let seen = ds.train_items(user);
        let ranked = state.rank(row, Metric::Dot, seen, RECALL_K, plan, &mut scratch);
        ranked.iter().map(|&(i, _)| i).collect()
    };
    let total: f64 = (0..samples)
        .map(|s| {
            let user = (s * stride) as u32;
            let exact = top(user, ReadPlan::default());
            overlap_fraction(&top(user, plan), &exact)
        })
        .sum();
    total / samples as f64
}

/// Loads a tagged checkpoint and materializes an [`EngineState`].
///
/// `events` is the full acknowledged event log (empty without streaming).
/// The checkpoint's covered-prefix entry (written by `lrgcn retrain`, see
/// `lrgcn_stream::COVERED_ENTRY`) says how many of those events its
/// training matrices already include: that prefix extends the dataset the
/// state is built against, and the uncovered suffix is folded into the
/// state's [`StreamDelta`] before the state goes live.
fn build_state(
    base: &Arc<Dataset>,
    opts: &EngineOptions,
    ckpt: &Path,
    generation: u64,
    events: &[StreamEvent],
) -> Result<EngineState, String> {
    let entries = lrgcn_tensor::io::load_checkpoint(ckpt)
        .map_err(|e| format!("loading {}: {e}", ckpt.display()))?;
    // Untagged files predate the marker and were always LayerGCN.
    let tag = model_tag(&entries).unwrap_or("layergcn").to_string();
    let covered = lrgcn_stream::unpack_covered(&entries).min(events.len() as u64);
    let ds: Arc<Dataset> = if covered > 0 {
        let pairs: Vec<(u32, u32)> = events[..covered as usize]
            .iter()
            .map(|e| (e.user, e.item))
            .collect();
        Arc::new(base.extend_with_events(&pairs))
    } else {
        base.clone()
    };
    let ego = require_entry(&entries, "ego")?;
    let n_nodes = ds.n_users() + ds.n_items();
    if ego.rows() != n_nodes {
        return Err(format!(
            "checkpoint has {} node embeddings but the dataset has {} users + {} items — \
             pass the same --input/--kcore used at training time",
            ego.rows(),
            ds.n_users(),
            ds.n_items()
        ));
    }
    let cfg = servable_config(&tag, ego.cols(), opts.n_layers, opts.dropout)?;
    let mut m = EgoGcn::new(&ds, cfg, &mut StdRng::seed_from_u64(opts.seed));
    m.load_checkpoint_entries(&entries)?;
    let foldin = if opts.events_dir.is_some() {
        m.fold_in_basis(&ds)
    } else {
        None
    };
    let mut state = EngineState::new(
        m.name(),
        tag,
        generation,
        m.n_parameters(),
        ds.clone(),
        covered,
        foldin,
        m.final_embeddings(),
        opts,
    );
    if state.quant_enabled() {
        let plan = ReadPlan { nprobe: 0, int8: true };
        state.quant_recall = measure_recall(&state, &ds, plan);
        registry::gauge_set(
            Gauge::QuantRecallPpm,
            (state.quant_recall * 1_000_000.0).round() as u64,
        );
    }
    // A standby index is measured too: its recall is exactly what the
    // brownout controller trades away when it steps down to ANN.
    if state.ann_available() {
        let plan = ReadPlan {
            nprobe: state.ann_nprobe(),
            int8: state.quant_enabled(),
        };
        state.ann_recall = measure_recall(&state, &ds, plan);
        registry::gauge_set(
            Gauge::AnnRecallPpm,
            (state.ann_recall * 1_000_000.0).round() as u64,
        );
    }
    // Events past the covered prefix become the state's starting delta, so
    // a freshly opened (or reloaded) engine serves every acknowledged event.
    if (covered as usize) < events.len() {
        state.apply_events(&events[covered as usize..]);
    }
    Ok(state)
}

/// The live engine: dataset + current [`EngineState`] behind a
/// `RwLock<Arc<_>>` for lock-free-after-clone reads and atomic reloads.
pub struct Engine {
    ds: Arc<Dataset>,
    opts: EngineOptions,
    ckpt_path: Mutex<PathBuf>,
    state: RwLock<Arc<EngineState>>,
    generation: AtomicU64,
}

/// Replays the configured event log (empty without streaming, or before
/// the server has written its first segment).
fn load_events(opts: &EngineOptions) -> Result<Vec<StreamEvent>, String> {
    match &opts.events_dir {
        Some(dir) => EventLog::replay(dir),
        None => Ok(Vec::new()),
    }
}

impl Engine {
    /// Loads the checkpoint once and propagates the final embeddings. With
    /// [`EngineOptions::events_dir`] set, the acknowledged event log is
    /// replayed into the initial state (covered prefix → training matrices,
    /// suffix → fold-in delta), so a restart never forgets an acked event.
    pub fn open(
        ckpt: impl AsRef<Path>,
        ds: Arc<Dataset>,
        opts: EngineOptions,
    ) -> Result<Engine, String> {
        let ckpt = ckpt.as_ref().to_path_buf();
        let events = load_events(&opts)?;
        let state = build_state(&ds, &opts, &ckpt, 0, &events)?;
        Ok(Engine {
            ds,
            opts,
            ckpt_path: Mutex::new(ckpt),
            state: RwLock::new(Arc::new(state)),
            generation: AtomicU64::new(0),
        })
    }

    /// The **base** dataset the engine was opened with (never extended by
    /// streaming; see [`EngineState::ds`] for the state's own view).
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.ds
    }

    /// Folds freshly acknowledged events into the current state's delta.
    /// The server's ingest path calls this after every durable append,
    /// under its log lock — see `EngineState::apply_events` for ordering.
    pub fn fold_in(&self, events: &[StreamEvent]) -> Arc<StreamDelta> {
        self.state().apply_events(events)
    }

    /// The current snapshot. Cloning the `Arc` means the caller keeps a
    /// consistent state for its whole request even across a reload.
    pub fn state(&self) -> Arc<EngineState> {
        self.state.read().expect("engine state poisoned").clone()
    }

    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Re-reads the checkpoint file (which may have been replaced on disk)
    /// and atomically swaps the serving state. On any error the old state
    /// stays live. Returns the new state.
    pub fn reload(&self) -> Result<Arc<EngineState>, String> {
        let path = self.ckpt_path.lock().expect("ckpt path poisoned").clone();
        self.reload_from(&path)
    }

    /// [`Engine::reload`] from an explicit path, which becomes the new
    /// checkpoint path on success.
    pub fn reload_from(&self, path: &Path) -> Result<Arc<EngineState>, String> {
        let generation = self.generation.load(Ordering::SeqCst) + 1;
        let events = load_events(&self.opts)?;
        let state = Arc::new(build_state(&self.ds, &self.opts, path, generation, &events)?);
        *self.ckpt_path.lock().expect("ckpt path poisoned") = path.to_path_buf();
        *self.state.write().expect("engine state poisoned") = state.clone();
        self.generation.store(generation, Ordering::SeqCst);
        registry::add(Counter::ServeReloads, 1);
        Ok(state)
    }
}

#[cfg(test)]
mod zero_class;

#[cfg(test)]
mod tests {
    use super::*;
    use lrgcn_graph::EdgePruner;
    use lrgcn_models::checkpoint::{save_model, SERVABLE_TAGS};
    use lrgcn_models::{LayerGcn, LayerGcnConfig, LightGcn, LightGcnConfig, LrGccf, LrGccfConfig};

    /// 4 users × 6 items, every user trained on `{u, u+1, u+2} mod 6`.
    fn tiny_dataset() -> Arc<Dataset> {
        let mut train = Vec::new();
        for u in 0..4u32 {
            for o in 0..3u32 {
                train.push((u, (u + o) % 6));
            }
        }
        Arc::new(Dataset::from_parts(
            "tiny",
            4,
            6,
            train,
            vec![vec![]; 4],
            vec![vec![4], vec![5], vec![0], vec![1]],
        ))
    }

    pub(super) fn save_lightgcn(ds: &Dataset, path: &Path) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = LightGcn::new(
            ds,
            LightGcnConfig {
                embedding_dim: 8,
                n_layers: 2,
                ..LightGcnConfig::default()
            },
            &mut rng,
        );
        m.train_epoch(ds, 0, &mut rng);
        save_model(path, "lightgcn", &m).expect("save");
    }

    #[test]
    fn open_rebuilds_lrgccf_checkpoints() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_lrgccf");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        let cfg = LrGccfConfig {
            embedding_dim: 8,
            n_layers: 2,
            ..LrGccfConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = LrGccf::new(&ds, cfg.clone(), &mut rng);
        m.train_epoch(&ds, 0, &mut rng);
        save_model(&ckpt, "lrgccf", &m).expect("save");

        let eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ..EngineOptions::default()
        })
        .expect("open");
        let st = eng.state();
        assert_eq!(st.tag, "lrgccf");
        // LR-GCCF serves the concatenated residual layers: (L+1) * d wide.
        assert_eq!(st.dim, 8 * 3);
        m.refresh(&ds);
        let expect = m.score_users(&ds, &[0, 1, 2, 3]);
        assert!(st.score_users(&[0, 1, 2, 3]).approx_eq(&expect, 0.0));
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn unknown_tags_name_every_servable_family() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_badtag");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        let marker = Matrix::zeros(0, 0);
        let ego = Matrix::zeros(10, 4);
        lrgcn_tensor::io::save_checkpoint(
            &ckpt,
            &[("__model__:mystery", &marker), ("ego", &ego)],
        )
        .expect("save");
        let err = match Engine::open(&ckpt, ds, EngineOptions::default()) {
            Ok(_) => panic!("unknown tag must not open"),
            Err(e) => e,
        };
        for tag in SERVABLE_TAGS {
            assert!(err.contains(tag), "error {err:?} does not mention {tag}");
        }
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn open_infers_dim_and_scores_match_the_model() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_open");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_lightgcn(&ds, &ckpt);

        let eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ..EngineOptions::default()
        })
        .expect("open");
        let st = eng.state();
        assert_eq!(st.tag, "lightgcn");
        assert_eq!(st.dim, 8);
        assert_eq!((st.n_users, st.n_items), (4, 6));

        // Engine scores == the model's own refresh+score path.
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = LightGcn::new(
            &ds,
            LightGcnConfig {
                embedding_dim: 8,
                n_layers: 2,
                ..LightGcnConfig::default()
            },
            &mut rng,
        );
        let entries = lrgcn_tensor::io::load_checkpoint(&ckpt).expect("entries");
        m.load_checkpoint_entries(&entries).expect("restore");
        m.refresh(&ds);
        let expect = m.score_users(&ds, &[0, 1, 2, 3]);
        assert!(st.score_users(&[0, 1, 2, 3]).approx_eq(&expect, 0.0));
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn top_k_masks_training_items_only_when_asked() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_mask");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_lightgcn(&ds, &ckpt);
        let eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ..EngineOptions::default()
        })
        .expect("open");
        let st = eng.state();

        let masked = st.top_k(&ds, 0, 6, true).expect("top_k");
        for &(it, _) in &masked {
            assert!(!ds.train_items(0).contains(&it), "seen item {it} leaked");
        }
        assert_eq!(masked.len(), 3); // 6 items - 3 seen
        let unmasked = st.top_k(&ds, 0, 6, false).expect("top_k");
        assert_eq!(unmasked.len(), 6);
        assert!(st.top_k(&ds, 99, 5, true).is_err());
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn similar_items_excludes_self_and_orders_by_cosine() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_sim");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_lightgcn(&ds, &ckpt);
        let eng = Engine::open(&ckpt, ds, EngineOptions {
            n_layers: 2,
            ..EngineOptions::default()
        })
        .expect("open");
        let st = eng.state();
        let sims = st.similar_items(2, 3).expect("similar");
        assert_eq!(sims.len(), 3);
        assert!(sims.iter().all(|&(it, _)| it != 2), "query item in results");
        assert!(sims.windows(2).all(|w| w[0].1 >= w[1].1), "not sorted");
        assert!(sims.iter().all(|&(_, s)| (-1.01..=1.01).contains(&s)));
        assert!(st.similar_items(99, 3).is_err());
        std::fs::remove_file(std::env::temp_dir().join("lrgcn_engine_sim/m.ckpt")).ok();
    }

    #[test]
    fn score_pairs_matches_row_dots_and_validates_range() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_pairs");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_lightgcn(&ds, &ckpt);
        let eng = Engine::open(&ckpt, ds, EngineOptions {
            n_layers: 2,
            ..EngineOptions::default()
        })
        .expect("open");
        let st = eng.state();
        let got = st.score_pairs(&[(0, 0), (3, 5)]).expect("score");
        let all = st.score_users(&[0, 3]);
        assert_eq!(got[0], all[(0, 0)]);
        assert_eq!(got[1], all[(1, 5)]);
        assert!(st.score_pairs(&[(0, 6)]).is_err());
        assert!(st.score_pairs(&[(4, 0)]).is_err());
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn reload_swaps_generation_and_survives_bad_files() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_reload");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_lightgcn(&ds, &ckpt);
        let eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ..EngineOptions::default()
        })
        .expect("open");
        let before = eng.state();
        assert_eq!(eng.generation(), 0);

        // A held snapshot stays valid across the swap.
        let new = eng.reload().expect("reload");
        assert_eq!(new.generation, 1);
        assert_eq!(eng.generation(), 1);
        assert_eq!(before.generation, 0);
        assert!(before.score_users(&[0]).approx_eq(&new.score_users(&[0]), 0.0));

        // A corrupt file leaves the old state serving.
        std::fs::write(&ckpt, b"garbage").expect("clobber");
        assert!(eng.reload().is_err());
        assert_eq!(eng.generation(), 1);
        assert_eq!(eng.state().generation, 1);
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn scratch_paths_match_the_allocating_wrappers() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_scratch");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_lightgcn(&ds, &ckpt);
        let eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ..EngineOptions::default()
        })
        .expect("open");
        let st = eng.state();
        let mut scratch = Scratch::default();
        for user in 0..4u32 {
            let a = st.top_k(&ds, user, 5, true).expect("top_k");
            let b = st
                .top_k_into(&ds, user, 5, true, &mut scratch)
                .expect("top_k_into");
            assert_eq!(a, b, "user {user}: scratch path diverged");
        }
        // The exact scratch path must also match the offline score matrix
        // bitwise, not just approximately.
        let offline = st.score_users(&[2]);
        let served = st.top_k(&ds, 2, 6, false).expect("top_k");
        for &(it, s) in &served {
            assert_eq!(
                s.to_bits(),
                offline[(0, it as usize)].to_bits(),
                "item {it} score drifted from the offline kernel"
            );
        }
        for item in 0..6u32 {
            let a = st.similar_items(item, 4).expect("similar");
            let b = st
                .similar_items_into(item, 4, &mut scratch)
                .expect("similar_into");
            assert_eq!(a, b, "item {item}: scratch path diverged");
        }
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn quant_engine_reranks_with_exact_scores() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_quant");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_lightgcn(&ds, &ckpt);
        let exact_eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ..EngineOptions::default()
        })
        .expect("open exact");
        let quant_eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            quant: true,
            ..EngineOptions::default()
        })
        .expect("open quant");
        let exact = exact_eng.state();
        let quant = quant_eng.state();
        assert!(!exact.quant_enabled());
        assert!(quant.quant_enabled());
        assert!(quant.quant_bytes() > 0);
        assert_eq!(exact.quant_recall, 1.0);
        assert!(
            quant.quant_recall > 0.9,
            "recall {} too low on a 6-item catalog",
            quant.quant_recall
        );
        // Candidate pool (4·K) covers the whole tiny catalog, so the
        // rescored quant ranking must equal the exact one, scores included.
        for user in 0..4u32 {
            let e = exact.top_k(&ds, user, 3, true).expect("exact");
            let q = quant.top_k(&ds, user, 3, true).expect("quant");
            assert_eq!(e, q, "user {user}: full-coverage rescore diverged");
        }
        let e = exact.similar_items(1, 3).expect("exact similar");
        let q = quant.similar_items(1, 3).expect("quant similar");
        assert_eq!(e, q, "similar: full-coverage rescore diverged");
        // Pair scores are approximate under quant but must stay close.
        let pairs = [(0u32, 0u32), (1, 4), (3, 5)];
        let es = exact.score_pairs(&pairs).expect("exact pairs");
        let qs = quant.score_pairs(&pairs).expect("quant pairs");
        for (i, (a, b)) in es.iter().zip(&qs).enumerate() {
            assert!(
                (a - b).abs() <= 0.05 * a.abs().max(1.0),
                "pair {i}: exact {a} vs quant {b}"
            );
        }
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn ann_engine_with_full_probe_matches_exact() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_ann");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_lightgcn(&ds, &ckpt);
        let exact_eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ..EngineOptions::default()
        })
        .expect("open exact");
        // nprobe covers every cell, so the candidate set is the whole
        // catalog and the exact-rescored ANN ranking must equal the exact
        // scan, scores included.
        let ann_eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ann: true,
            nprobe: 6,
            ann_cells: 3,
            ..EngineOptions::default()
        })
        .expect("open ann");
        let exact = exact_eng.state();
        let ann = ann_eng.state();
        assert!(!exact.ann_enabled());
        assert!(ann.ann_enabled());
        assert!(ann.ann_bytes() > 0);
        assert_eq!(ann.ann_cells(), 3);
        assert_eq!(ann.ann_nprobe(), 3, "nprobe must clamp to the cell count");
        assert_eq!(exact.ann_recall, 1.0);
        assert_eq!(ann.ann_recall, 1.0, "full probe must be lossless");
        for user in 0..4u32 {
            let e = exact.top_k(&ds, user, 3, true).expect("exact");
            let a = ann.top_k(&ds, user, 3, true).expect("ann");
            assert_eq!(e, a, "user {user}: full-probe ANN diverged");
        }
        let e = exact.similar_items(1, 3).expect("exact similar");
        let a = ann.similar_items(1, 3).expect("ann similar");
        assert_eq!(e, a, "similar: full-probe ANN diverged");

        // ANN composed with quant still rescores with exact f32 dots.
        let both_eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ann: true,
            quant: true,
            nprobe: 6,
            ann_cells: 3,
            ..EngineOptions::default()
        })
        .expect("open ann+quant");
        let both = both_eng.state();
        assert!(both.ann_enabled() && both.quant_enabled());
        for user in 0..4u32 {
            let e = exact.top_k(&ds, user, 3, true).expect("exact");
            let b = both.top_k(&ds, user, 3, true).expect("ann+quant");
            assert_eq!(e, b, "user {user}: ann+quant full-coverage diverged");
        }
        std::fs::remove_file(ckpt).ok();
    }

    #[test]
    fn standby_index_serves_exact_until_overridden() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_standby");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_lightgcn(&ds, &ckpt);
        let exact_eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ..EngineOptions::default()
        })
        .expect("open exact");
        let standby_eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ann_standby: true,
            nprobe: 6,
            ann_cells: 3,
            ..EngineOptions::default()
        })
        .expect("open standby");
        let exact = exact_eng.state();
        let st = standby_eng.state();
        assert!(!st.ann_enabled(), "standby must not change the default path");
        assert!(st.ann_available());
        assert!(st.ann_bytes() > 0);
        assert_eq!(st.ann_recall, 1.0, "standby recall is still measured");

        let mut scratch = Scratch::default();
        let delta = st.delta();
        let full = ReadPlan { nprobe: st.ann_nprobe(), int8: false };
        let narrow = ReadPlan { nprobe: 1, ..full };
        for user in 0..4u32 {
            let e = exact.top_k(&ds, user, 3, true).expect("exact");
            // The configured plan: byte-identical to the exact engine.
            let d = st.top_k(&ds, user, 3, true).expect("default");
            assert_eq!(e, d, "user {user}: standby changed the default path");
            // Forced onto the index with a full probe: still identical
            // (every cell covered, exact rescore).
            let f = st
                .recs(&delta, user, 3, true, full, &mut scratch)
                .expect("forced");
            assert_eq!(e, f, "user {user}: forced full-probe ANN diverged");
            // Narrowed probe: a valid (possibly shorter) ranking whose
            // scores are exact dots for whatever candidates survive.
            let n = st
                .recs(&delta, user, 3, true, narrow, &mut scratch)
                .expect("narrowed");
            assert!(n.len() <= 3);
            for (it, s) in &n {
                let hit = e.iter().find(|(ei, _)| ei == it);
                if let Some((_, es)) = hit {
                    assert_eq!(s.to_bits(), es.to_bits(), "narrowed rescore drifted");
                }
            }
        }
        // /similar under a forced plan answers too.
        let e = exact.similar_items(1, 3).expect("exact similar");
        let f = st
            .similar(1, 3, full, &mut scratch)
            .expect("forced similar");
        assert_eq!(e, f, "similar: forced full-probe ANN diverged");
        std::fs::remove_file(ckpt).ok();
    }

    pub(super) fn save_layergcn(ds: &Dataset, path: &Path) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = LayerGcn::new(
            ds,
            LayerGcnConfig {
                embedding_dim: 8,
                n_layers: 2,
                pruner: EdgePruner::None,
                ..LayerGcnConfig::default()
            },
            &mut rng,
        );
        m.train_epoch(ds, 0, &mut rng);
        save_model(path, "layergcn", &m).expect("save");
    }

    /// The `serve_scan` shape in miniature: a catalogue that is two 16-item
    /// kernel panels plus a remainder, where only the first seven items
    /// were ever interacted with. LayerGCN drops the ego layer, so every
    /// isolated item's final row is all zeros and most of the row ties at
    /// score 0 — the select must break those ties by index, and the scan
    /// must produce the same bits for panel lanes and remainder cells.
    #[test]
    fn exact_top_k_equals_brute_force_on_a_mostly_isolated_catalogue() {
        let (n_users, n_items) = (5u32, 37u32);
        let train: Vec<(u32, u32)> = (0..n_users)
            .flat_map(|u| (0..3).map(move |o| (u, (u + o) % 7)))
            .collect();
        let ds = Arc::new(Dataset::from_parts(
            "isolated",
            n_users as usize,
            n_items as usize,
            train,
            vec![vec![]; n_users as usize],
            vec![vec![]; n_users as usize],
        ));
        let dir = std::env::temp_dir().join("lrgcn_engine_isolated");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_layergcn(&ds, &ckpt);
        let eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            ..EngineOptions::default()
        })
        .expect("open");
        let st = eng.state();
        let zero_rows = (0..n_items as usize)
            .filter(|&i| st.items.item_row(i).iter().all(|&x| x == 0.0))
            .count();
        assert_eq!(
            zero_rows, 30,
            "every isolated item must have an all-zero row"
        );

        let mut scratch = Scratch::default();
        for u in 0..n_users {
            for exclude_seen in [true, false] {
                let urow = st.user_row(u);
                let mut want: Vec<(u32, f32)> = (0..n_items)
                    .filter(|it| !(exclude_seen && ds.train_items(u).contains(it)))
                    .map(|it| (it, dot(urow, st.items.item_row(it as usize))))
                    .collect();
                want.sort_by(rank_order);
                for k in [1usize, 5, 20, 37, 50] {
                    let got = st
                        .top_k_into(&ds, u, k, exclude_seen, &mut scratch)
                        .expect("top_k");
                    let bits = |v: &[(u32, f32)]| -> Vec<(u32, u32)> {
                        v.iter().map(|&(i, s)| (i, s.to_bits())).collect()
                    };
                    assert_eq!(
                        bits(&got),
                        bits(&want[..k.min(want.len())]),
                        "user {u} k {k} exclude_seen {exclude_seen}"
                    );
                }
            }
        }
        std::fs::remove_file(ckpt).ok();
    }

    pub(super) fn ev(user: u32, item: u32, seq: u64) -> StreamEvent {
        StreamEvent {
            user,
            item,
            timestamp: 1_700_000_000 + seq as i64,
            client: "t".into(),
            seq,
            request_id: String::new(),
        }
    }

    #[test]
    fn streaming_fold_in_serves_new_users_and_items() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_stream");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_layergcn(&ds, &ckpt);
        let events_dir = dir.join("events");
        {
            let mut log = EventLog::open(&events_dir).expect("log");
            // New user 4 on trained items, plus a brand-new item 6.
            log.append_batch(&[ev(4, 0, 1), ev(4, 5, 2), ev(0, 6, 3)])
                .expect("append");
        }
        let eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            dropout: 0.0,
            events_dir: Some(events_dir.clone()),
            ..EngineOptions::default()
        })
        .expect("open");
        let st = eng.state();
        assert!(st.foldin_enabled());
        assert_eq!(st.covered_events, 0);
        let delta = st.delta();
        assert_eq!(delta.events_applied(), 3);
        assert_eq!(delta.version(), 1);
        assert_eq!(delta.touched_users(), 2);
        assert_eq!(delta.new_items(), 1);
        let mut scratch = Scratch::default();

        // The post-training user serves a non-empty, sorted, finite top-K
        // spanning trained items and the folded-in item 6.
        let recs = st
            .top_k_stream(&delta, 4, 10, false, &mut scratch)
            .expect("stream recs");
        assert_eq!(recs.len(), 7, "all 6 trained items + folded item 6");
        assert!(recs.windows(2).all(|w| w[0].1 >= w[1].1), "not sorted");
        assert!(recs.iter().all(|&(_, s)| s.is_finite()));

        // exclude_seen masks the folded-in interactions too.
        let masked = st
            .top_k_stream(&delta, 4, 10, true, &mut scratch)
            .expect("masked");
        let ids: Vec<u32> = masked.iter().map(|&(i, _)| i).collect();
        assert!(!ids.contains(&0) && !ids.contains(&5), "folded items leaked");
        assert!(ids.contains(&6), "new item should still be servable");

        // Trained user 0 folded in item 6: masked out for them, and their
        // row was refreshed (still a valid ranking over the rest).
        let u0 = st
            .top_k_stream(&delta, 0, 10, true, &mut scratch)
            .expect("u0");
        let u0_ids: Vec<u32> = u0.iter().map(|&(i, _)| i).collect();
        assert!(!u0_ids.contains(&6), "folded item 6 leaked for user 0");
        for &it in ds.train_items(0) {
            assert!(!u0_ids.contains(&it), "trained item {it} leaked");
        }

        // Users far past anything folded in are still a clean error.
        assert!(st.top_k_stream(&delta, 99, 5, true, &mut scratch).is_err());

        // An untouched trained user with exclude_seen and no new-item
        // overlap keeps the plain path's ranking as a prefix.
        let plain = st.top_k(&ds, 2, 3, true).expect("plain");
        let stream = st
            .top_k_stream(&delta, 2, 3, true, &mut scratch)
            .expect("stream");
        // Item 6's score may displace the tail, but the surviving trained
        // items must keep their exact scores.
        for (it, s) in &stream {
            if (*it as usize) < st.n_items {
                let exact = plain.iter().find(|(p, _)| p == it);
                if let Some((_, ps)) = exact {
                    assert_eq!(s.to_bits(), ps.to_bits(), "score drifted for {it}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_replays_the_event_log_into_the_new_state() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_stream_reload");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_layergcn(&ds, &ckpt);
        let events_dir = dir.join("events");
        let eng = Engine::open(&ckpt, ds.clone(), EngineOptions {
            n_layers: 2,
            dropout: 0.0,
            events_dir: Some(events_dir.clone()),
            ..EngineOptions::default()
        })
        .expect("open");
        // Nothing logged yet: the starting delta is empty at version 0.
        assert!(eng.state().delta().is_empty());
        assert_eq!(eng.state().delta().version(), 0);

        // Log two events (as the server's ingest path would), fold them in.
        let batch = [ev(5, 1, 1), ev(5, 2, 2)];
        {
            let mut log = EventLog::open(&events_dir).expect("log");
            log.append_batch(&batch).expect("append");
        }
        let delta = eng.fold_in(&batch);
        assert_eq!(delta.events_applied(), 2);
        let mut scratch = Scratch::default();
        let st = eng.state();
        let before = st
            .top_k_stream(&delta, 5, 4, true, &mut scratch)
            .expect("before");
        assert!(!before.is_empty());

        // Reload rebuilds the state and replays the log from disk — the
        // folded-in user survives with the identical synthesized ranking.
        let st2 = eng.reload().expect("reload");
        let d2 = st2.delta();
        assert_eq!(d2.events_applied(), 2);
        let after = st2
            .top_k_stream(&d2, 5, 4, true, &mut scratch)
            .expect("after");
        assert_eq!(before, after, "replayed fold-in state diverged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fold_in_without_a_basis_logs_but_serves_no_rows() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_stream_nobasis");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_lightgcn(&ds, &ckpt); // LightGCN opts out of fold-in.
        let events_dir = dir.join("events");
        let eng = Engine::open(&ckpt, ds, EngineOptions {
            n_layers: 2,
            events_dir: Some(events_dir),
            ..EngineOptions::default()
        })
        .expect("open");
        let st = eng.state();
        assert!(!st.foldin_enabled());
        let delta = eng.fold_in(&[ev(7, 0, 1)]);
        assert_eq!(delta.events_applied(), 1);
        // The interaction is tracked (exclude_seen, retrain) but no row is
        // synthesized, so the unseen user stays an error.
        assert_eq!(delta.user_items(7), &[0]);
        let mut scratch = Scratch::default();
        assert!(st.top_k_stream(&delta, 7, 5, true, &mut scratch).is_err());
        std::fs::remove_dir_all(std::env::temp_dir().join("lrgcn_engine_stream_nobasis")).ok();
    }

    #[test]
    fn mismatched_dataset_is_a_clear_error() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("lrgcn_engine_mismatch");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("m.ckpt");
        save_lightgcn(&ds, &ckpt);
        let other = Arc::new(Dataset::from_parts(
            "other",
            2,
            2,
            vec![(0, 0), (1, 1)],
            vec![vec![]; 2],
            vec![vec![1], vec![0]],
        ));
        let err = match Engine::open(&ckpt, other, EngineOptions::default()) {
            Err(e) => e,
            Ok(_) => panic!("mismatched dataset must fail"),
        };
        assert!(err.contains("users"), "{err}");
        std::fs::remove_file(ckpt).ok();
    }
}
