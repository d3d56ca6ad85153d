//! # lrgcn-serve — zero-dependency online recommendation serving
//!
//! Turns a trained checkpoint (see `lrgcn_models::checkpoint`) into an HTTP
//! service on `std::net` alone — no tokio, no hyper, no serde:
//!
//! * [`engine`] — loads the checkpoint once, materializes the final node
//!   embedding table, and answers `/recs` and `/similar` through one read
//!   pipeline driven by a [`ReadPlan`] (and `score_pairs` beside it) on
//!   the *same* kernels as the offline evaluator, so served rankings are
//!   byte-identical to `evaluate_ranking` output for any `LRGCN_THREADS`.
//!   Hot reload swaps an `Arc<EngineState>` under a `RwLock`; requests in
//!   flight keep their snapshot.
//! * [`ann`] — a zero-dependency IVF index (deterministic k-means coarse
//!   quantizer + inverted cell lists) for sub-linear `/recs` and
//!   `/similar` candidate generation behind `serve --ann --nprobe N`,
//!   rebuilt on every hot reload and guarded by a build-time sampled
//!   recall measurement (`EngineState::ann_recall`).
//! * [`server`] — one acceptor blocked in `accept` feeding a fixed worker
//!   pool through a bounded queue, each worker serving a keep-alive
//!   connection request after request (idle connections are reclaimed
//!   when a new one would otherwise wait); routes for recommendations,
//!   item similarity, batch scoring, health, Prometheus-rendered obs
//!   metrics, reload and graceful shutdown.
//! * [`batch`] — concurrent `POST /score` requests coalesce into one
//!   scoring kernel per tick through a condvar queue.
//! * [`cache`] — a sharded LRU of per-user top-K responses, keyed by
//!   engine generation so reloads invalidate implicitly.
//! * [`delta`] — the epoch-free streaming fold-in overlay: `POST /events`
//!   appends to a crash-safe `lrgcn_stream::EventLog` and folds the new
//!   interactions into an immutable [`StreamDelta`] the read paths merge
//!   on top of the trained state — see DESIGN.md §13.
//! * [`http`] — the minimal HTTP/1.1 request/response layer:
//!   `Content-Length` framing, persistent connections, pipelining.
//! * [`chaos`] — the tree's one HTTP test client (`Conn`, `request`) and a
//!   deterministic socket-level fault injector: seeded plans of connection
//!   faults (abort mid-write, slow-loris, torn frames, garbage bytes, and
//!   the between-request states keep-alive adds) driven against a live
//!   server — see DESIGN.md §14.
//!
//! Overload control (DESIGN.md §14): [`server`] guards the compute routes
//! with a bounded admission gate (`--max-inflight`/`--max-queue`, sheds
//! are prompt 503 + `Retry-After`), honors per-request
//! `x-lrgcn-deadline-ms` deadlines (checked at dequeue and again before
//! the scoring kernel), and — with `--brownout` — steps the live read
//! path down under sustained pressure (exact → an IVF [`ReadPlan`] →
//! narrower probes + k cap → stale cache) and
//! back up with hysteresis. `--ann-standby` builds the IVF index without
//! serving through it so level 1 has somewhere cheaper to go.
//!
//! Every request path is instrumented with `lrgcn_obs` counters
//! (`serve.http.requests`, `serve.cache.hits`, ...), histograms
//! (`serve.request_ns`, `serve.score.batch_ns`) and trace spans, all
//! exposed at `GET /metrics`. A per-request middleware in [`server`]
//! additionally mints/echoes `x-lrgcn-request-id`, feeds the
//! `lrgcn_obs::window` rolling 10s/60s/300s windows (read at
//! `GET /admin/obs` and by `lrgcn top`), appends an optional sampled JSONL
//! access log, and tracks SLO burn rates — see DESIGN.md §12.

pub mod ann;
pub mod batch;
pub mod cache;
pub mod chaos;
pub mod delta;
pub mod engine;
pub mod http;
pub mod server;

pub use ann::{IvfConfig, IvfIndex};
pub use batch::Batcher;
pub use cache::TopKCache;
pub use chaos::{ChaosClient, ConnFault, FaultPlan};
pub use delta::StreamDelta;
pub use engine::{Engine, EngineOptions, EngineState, ReadPlan, Scratch};
pub use server::{render_metrics, serve, ServerConfig, ServerHandle};
