//! The four workloads.
//!
//! Every workload runs the whole path - generate, split, train, evaluate,
//! checkpoint, open, serve reads, stream writes - because every run must
//! report every end-to-end metric. They differ in the inputs and settings
//! the system's behaviour depends on, so that each layer is the dominant
//! cost on one workload and close to idle on another. `README.md` has the
//! rationale; the `why` strings are what `BENCHMARK.json` records.

use lrgcn::data::SyntheticConfig;
use lrgcn::graph::EdgePruner;
use lrgcn::models::LayerGcnConfig;

/// Who sends `GET /recs`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Users {
    /// Zipf(1.0) over a seeded permutation: a small hot set, cache-friendly.
    Zipf,
    /// Every trained user equally likely.
    Uniform,
}

/// Shares of `--seconds` given to each timed part. Training is sized in
/// epochs (work, not time), so that `recall_at_20` repeats for a seed; the
/// traffic phases are sized in seconds. Traffic runs in [`ROUNDS`] rounds,
/// and between two rounds the run repeats its compute-bound timings (set-up,
/// epochs, evaluations): the box runs a third slower for seconds at a time
/// (README, noise sources), and a timing taken in one block is either all
/// inside such a stretch or all outside it.
pub struct Plan {
    /// Timed `train_epoch` calls per second of `--seconds`, all told: the
    /// served model's, then `round_epochs` more after each round.
    pub epochs_per_second: f64,
    pub round_epochs: usize,
    /// `refresh` + test evaluations after the first one, spread over the
    /// rounds (the first round always has one).
    pub evals: usize,
    /// Phase A: open-loop reads alone, both connections.
    pub read_open: f64,
    /// Phase C: open-loop writes on one connection, reads on the other.
    pub mixed_open: f64,
}

/// Rounds the traffic is cut into; each round's slice of a phase is also
/// one slice of the tail figures ([`crate::stats::steady_quantiles`]).
pub const ROUNDS: usize = 5;

pub struct Spec {
    pub name: &'static str,
    /// Smoke-run presets (`--quick`).
    pub quick: bool,
    pub data: SyntheticConfig,
    pub model: LayerGcnConfig,
    pub cache_capacity: usize,
    pub users: Users,
    /// Poisson rate of `GET /recs` across both connections in phase A. A
    /// connection carries one request at a time, so the rate is kept where
    /// an arrival rarely finds both busy: the wait for a connection is part
    /// of the latency (timed from the due time), and at 100 rps it was all
    /// of the tail beyond 10.4 ms and moved with how the seed's arrivals
    /// clumped (README, noise sources).
    pub read_rps: f64,
    /// `recs_p50_ms` / `recs_p99_ms` come from phase C, beside the writer,
    /// instead of phase A; phase A is then skipped and C gets its time.
    pub reads_beside_writes: bool,
    pub plan: Plan,
}

/// Late sign-ups: this share of the highest user ids is held out of
/// training and only ever arrives through `POST /events`.
pub const LATE_USER_SHARE: f64 = 0.2;
/// Events per `POST /events` batch.
pub const EVENT_BATCH: usize = 5;
/// Event batches per second in phase C (fixed spacing, not Poisson: the
/// delta then grows identically in every run).
pub const WRITE_BATCHES_PER_SECOND: f64 = 40.0;
/// Poisson rate of the reader beside the writer in phase C: one connection,
/// so half of what two carry in phase A.
pub const MIXED_READ_RPS: f64 = 35.0;
/// The `k` of every timed `/recs`.
pub const K: usize = 20;
/// Server worker threads on every workload (the box has two cores).
pub const WORKERS: usize = 2;

pub const NAMES: [&str; 4] = ["train_yelp", "serve_wire", "serve_scan", "stream_mixed"];

const PLAN: Plan = Plan {
    epochs_per_second: 1.5,
    round_epochs: 2,
    evals: 10,
    read_open: 0.5,
    mixed_open: 0.3,
};

fn shallow_no_dropout(batch_size: usize) -> LayerGcnConfig {
    LayerGcnConfig {
        n_layers: 2,
        pruner: EdgePruner::None,
        batch_size,
        ..LayerGcnConfig::default()
    }
}

/// `quick` shrinks the presets for smoke runs; its numbers mean nothing.
pub fn by_name(name: &str, quick: bool) -> Option<Spec> {
    let scale = |cfg: SyntheticConfig| if quick { cfg.scaled(0.25) } else { cfg };
    Some(match name {
        "train_yelp" => Spec {
            name: "train_yelp",
            quick,
            data: scale(SyntheticConfig::yelp()),
            model: LayerGcnConfig::default(),
            cache_capacity: 4096,
            users: Users::Zipf,
            read_rps: 75.0,
            reads_beside_writes: false,
            plan: PLAN,
        },
        "serve_wire" => Spec {
            name: "serve_wire",
            quick,
            data: scale(SyntheticConfig::yelp()),
            model: shallow_no_dropout(2048),
            cache_capacity: 4096,
            users: Users::Zipf,
            read_rps: 75.0,
            reads_beside_writes: false,
            plan: PLAN,
        },
        "serve_scan" => Spec {
            name: "serve_scan",
            quick,
            data: SyntheticConfig {
                name: "Catalogue",
                n_users: if quick { 160 } else { 640 },
                n_items: if quick { 10_000 } else { 50_000 },
                n_interactions: if quick { 8_000 } else { 32_000 },
                n_clusters: 64,
                zipf_exponent: 1.0,
                noise_frac: 0.10,
                activity_sigma: 1.0,
            },
            // One batch per epoch; at the default rate five full-batch
            // steps would learn nothing, and recall would be noise.
            model: LayerGcnConfig {
                learning_rate: 0.02,
                ..shallow_no_dropout(32_768)
            },
            cache_capacity: 0,
            users: Users::Uniform,
            read_rps: 50.0,
            reads_beside_writes: false,
            // An epoch and an evaluation cost 0.11 s and 0.67 s here.
            plan: Plan {
                epochs_per_second: 1.0,
                evals: 5,
                ..PLAN
            },
        },
        "stream_mixed" => Spec {
            name: "stream_mixed",
            quick,
            data: scale(SyntheticConfig::yelp()),
            model: shallow_no_dropout(2048),
            cache_capacity: 4096,
            users: Users::Zipf,
            read_rps: 75.0,
            reads_beside_writes: true,
            plan: PLAN,
        },
        _ => return None,
    })
}
