//! The HTTP front-end: worker pool, routing, metrics rendering, graceful
//! shutdown.
//!
//! ```text
//! GET  /healthz                     liveness + model/generation + 60s window
//! GET  /metrics                     Prometheus text of the obs registry
//! GET  /admin/obs                   windowed RED snapshot (10s/60s/300s) JSON
//! GET  /recs/{user}?k=N[&exclude_seen=bool]   cached top-K for a user
//! GET  /similar/{item}?k=N          item-item cosine neighbours
//! POST /score                       {"pairs": [[u,i],...]} micro-batched
//! POST /events                      append interaction events (JSON/JSONL)
//! POST /admin/reload                re-read the checkpoint, swap, bump gen
//! POST /admin/shutdown              begin graceful shutdown
//! ```
//!
//! Concurrency model: one acceptor thread blocks in `accept` and hands
//! sockets to `workers` threads over a bounded queue ([`Conns`]). A worker
//! owns a connection for its whole life and loops read-request → route →
//! write-response on it (HTTP/1.1 keep-alive), closing on `Connection:
//! close`, HTTP/1.0, a parse or framing error, [`IDLE_TIMEOUT`],
//! [`MAX_REQUESTS_PER_CONN`] or shutdown.
//!
//! An idle connection never makes a new one wait. A worker that *parks*
//! (blocks for the next request's first byte) registers a clone of its
//! socket; an acceptor holding a socket nobody is free to take marks the
//! longest-parked entry reclaimed and shuts the clone down, and the woken
//! worker drops that connection — without looking at bytes that may have
//! raced in, the ordinary keep-alive close race clients retry — and takes
//! the queued socket. Only connections that have been answered before are
//! reclaimed: a client retries a reused connection that died, not a fresh
//! one. Symmetrically, a worker about to answer while sockets are queued
//! answers `Connection: close` and moves on.
//!
//! A request in flight always runs to completion: shutdown sets a flag,
//! wakes the acceptor with a self-connect and reclaims every parked
//! connection, so only *idle* connections are cut; reloads swap an `Arc`
//! snapshot. Neither ever fails an accepted request.
//!
//! Every request passes through a thin observability middleware (DESIGN.md
//! §12): it assigns a request id (honoring an inbound
//! `x-lrgcn-request-id`, echoing it on the response), times the full
//! handler, classifies (route × status class × read path), feeds the
//! cumulative registry and the `obs::window` rolling rings, and appends a
//! sampled JSONL access-log line when `--access-log` is armed.

use crate::batch::Batcher;
use crate::cache::{Key, TopKCache};
use crate::engine::{Engine, EngineState, ReadPlan, Scratch};
use crate::http::{read_more, read_request, write_response, Request};
use lrgcn_obs::json::Value;
use lrgcn_obs::registry::{bucket_upper_ns, HIST_BUCKETS};
use lrgcn_obs::window::{self, ReadPath, Route, WindowStats, WINDOWS_S};
use lrgcn_obs::{registry, Counter, Gauge, Hist};
use lrgcn_stream::{EventLog, StreamEvent};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Server knobs. `Default` binds an ephemeral localhost port.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8642`; port 0 picks one.
    pub addr: String,
    /// Worker threads; 0 means the parallel layer's effective thread count
    /// (the `LRGCN_THREADS` convention).
    pub workers: usize,
    /// Total response-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Micro-batch coalescing window.
    pub batch_tick: Duration,
    /// JSONL access-log path (append); `None` disables the access log.
    pub access_log: Option<PathBuf>,
    /// Log one request in N (1 = every request). Ignored without
    /// `access_log`.
    pub access_sample: u64,
    /// Latency SLO threshold: p99 target in milliseconds. Requests slower
    /// than this are "slow" for burn-rate purposes.
    pub slo_p99_ms: Option<u64>,
    /// Availability SLO budget: tolerated error ratio in parts per million.
    pub slo_err_ppm: Option<u64>,
    /// Streaming ingestion: directory of the crash-safe event log behind
    /// `POST /events` (DESIGN.md §13). Should match
    /// `EngineOptions::events_dir` so reloads replay what ingestion wrote.
    /// `None` disables the route (404).
    pub events_log: Option<PathBuf>,
    /// Backpressure threshold: concurrent in-flight `/events` requests at
    /// or above this answer 503 + `Retry-After` instead of queueing on the
    /// log mutex without bound.
    pub events_max_pending: u64,
    /// Admission control (DESIGN.md §14): maximum concurrent compute
    /// requests (`/recs`, `/similar`, `/score`) past the gate. `0` turns
    /// the gate off.
    pub max_inflight: usize,
    /// Bounded admission queue: requests allowed to wait for a slot while
    /// `max_inflight` are executing. Arrivals beyond this shed immediately
    /// with 503 + `Retry-After`.
    pub max_queue: usize,
    /// Default per-request deadline (milliseconds) for compute routes when
    /// the client sends no `x-lrgcn-deadline-ms` header; `0` = none.
    pub deadline_default_ms: u64,
    /// Arms the brownout controller (requires `slo_p99_ms`): under
    /// sustained overload the live read path steps down — exact → ANN →
    /// narrower probes + k cap → stale cache + queue off — and steps back
    /// up with hysteresis once the 10s window is healthy again.
    pub brownout: bool,
    /// Consecutive pressured controller ticks before stepping one level
    /// deeper into degradation.
    pub brownout_up_ticks: u32,
    /// Consecutive calm ticks before stepping one level back toward
    /// healthy. Larger than `brownout_up_ticks` so recovery is cautious.
    pub brownout_down_ticks: u32,
    /// Brownout controller tick interval (tests shrink it to milliseconds).
    pub brownout_tick: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            cache_capacity: 4096,
            batch_tick: Duration::from_millis(1),
            access_log: None,
            access_sample: 1,
            slo_p99_ms: None,
            slo_err_ppm: None,
            events_log: None,
            events_max_pending: 1024,
            max_inflight: 0,
            max_queue: 32,
            deadline_default_ms: 0,
            brownout: false,
            brownout_up_ticks: 3,
            brownout_down_ticks: 10,
            brownout_tick: Duration::from_secs(1),
        }
    }
}

/// A running server. Dropping the handle does NOT stop it; call
/// [`ServerHandle::shutdown`] + [`ServerHandle::wait`] (or POST
/// /admin/shutdown) for a graceful stop.
pub struct ServerHandle {
    addr: SocketAddr,
    conns: Arc<Conns>,
    batcher: Arc<Batcher>,
    /// Acceptor, workers and (when armed) the brownout controller.
    workers: Vec<JoinHandle<()>>,
    scorer: Option<JoinHandle<()>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begins graceful shutdown: workers finish their in-flight request,
    /// idle connections are closed, the scorer drains the queue.
    pub fn shutdown(&self) {
        self.conns.shutdown();
        self.batcher.shutdown();
    }

    /// True once shutdown has been requested (by this handle or over HTTP).
    pub fn is_shutting_down(&self) -> bool {
        self.conns.stopping()
    }

    /// Blocks until the acceptor, every worker and the scorer have exited.
    pub fn wait(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(s) = self.scorer.take() {
            let _ = s.join();
        }
    }
}

/// Per-connection socket timeout: a peer stalled mid-request or
/// mid-response cannot pin a worker.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a connection may sit between requests before the worker
/// closes it. (Before its first request it gets [`SOCKET_TIMEOUT`]: a
/// client that connects and says nothing is stalled, not idle.)
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Requests answered on one connection before the server closes it, so no
/// client holds a worker's buffers forever.
const MAX_REQUESTS_PER_CONN: usize = 1000;
/// Accepted sockets that may wait for a worker; past this the acceptor
/// stops accepting and the kernel backlog holds the rest.
const MAX_QUEUED_SOCKETS: usize = 128;
/// Pause after a failed `accept` (fd exhaustion): bounds the retry rate
/// without a sleep shutdown would have to wait out.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Binds, spawns the worker pool and the batch scorer, returns immediately.
pub fn serve(engine: Arc<Engine>, cfg: ServerConfig) -> Result<ServerHandle, String> {
    if cfg.brownout && cfg.slo_p99_ms.is_none() {
        return Err("brownout control needs a latency target: set slo_p99_ms".into());
    }
    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("binding {}: {e}", cfg.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    let n_workers = if cfg.workers == 0 {
        lrgcn_tensor::par::effective_threads()
    } else {
        cfg.workers
    };
    let conns = Arc::new(Conns::new(addr));
    let cache = Arc::new(TopKCache::new(cfg.cache_capacity, n_workers.max(1)));
    let batcher = Batcher::new(cfg.batch_tick);
    let obs = Arc::new(ObsState::new(&cfg)?);
    let overload = Arc::new(Overload::new(&cfg));
    registry::gauge_set(Gauge::BrownoutLevel, 0);
    let ingest = match &cfg.events_log {
        Some(dir) => {
            let log = EventLog::open(dir)?;
            // Retrain staleness at boot: events the serving checkpoint's
            // training matrices don't include yet.
            registry::gauge_set(
                Gauge::EventsLogLag,
                log.len().saturating_sub(engine.state().covered_events),
            );
            Some(Arc::new(EventIngest {
                log: Mutex::new(log),
                pending: AtomicU64::new(0),
                max_pending: cfg.events_max_pending,
                last_fold_in_ms: AtomicU64::new(0),
            }))
        }
        None => None,
    };

    let scorer = {
        let b = batcher.clone();
        let e = engine.clone();
        std::thread::Builder::new()
            .name("lrgcn-serve-scorer".into())
            .spawn(move || b.run_scorer(e))
            .map_err(|e| format!("spawning scorer: {e}"))?
    };

    let mut workers = Vec::with_capacity(n_workers + 2);
    {
        let conns = conns.clone();
        workers.push(
            std::thread::Builder::new()
                .name("lrgcn-serve-accept".into())
                .spawn(move || accept_loop(listener, &conns))
                .map_err(|e| format!("spawning acceptor: {e}"))?,
        );
    }
    for w in 0..n_workers {
        let ctx = Ctx {
            worker: w,
            engine: engine.clone(),
            cache: cache.clone(),
            batcher: batcher.clone(),
            conns: conns.clone(),
            cache_enabled: cfg.cache_capacity > 0,
            obs: obs.clone(),
            ingest: ingest.clone(),
            overload: overload.clone(),
        };
        workers.push(
            std::thread::Builder::new()
                .name(format!("lrgcn-serve-{w}"))
                .spawn(move || worker_loop(ctx))
                .map_err(|e| format!("spawning worker: {e}"))?,
        );
    }

    if cfg.brownout {
        let ov = overload.clone();
        let conns = conns.clone();
        let slo_ns = cfg.slo_p99_ms.unwrap_or(0).saturating_mul(1_000_000);
        let tick = cfg.brownout_tick;
        let mut ctl = BrownoutCtl::new(cfg.brownout_up_ticks, cfg.brownout_down_ticks);
        // The controller joins the worker pool for shutdown purposes: it
        // sleeps at most one tick past the stop flag flipping.
        workers.push(
            std::thread::Builder::new()
                .name("lrgcn-serve-brownout".into())
                .spawn(move || {
                    while !conns.stopping() {
                        std::thread::sleep(tick);
                        let w10 = window::serving_window(window::now_sec(), 10);
                        let old = ov.level.load(Ordering::SeqCst);
                        let new = ctl.tick(old, under_pressure(&w10, slo_ns, &ov));
                        if new != old {
                            ov.level.store(new, Ordering::SeqCst);
                            registry::gauge_set(Gauge::BrownoutLevel, new as u64);
                            registry::add(
                                if new > old {
                                    Counter::ServeBrownoutStepUps
                                } else {
                                    Counter::ServeBrownoutStepDowns
                                },
                                1,
                            );
                        }
                    }
                })
                .map_err(|e| format!("spawning brownout controller: {e}"))?,
        );
    }

    if lrgcn_obs::sink::enabled() {
        let run = lrgcn_obs::sink::next_run_id();
        lrgcn_obs::sink::emit(&lrgcn_obs::event::run_start(
            run,
            &engine.state().model_name,
            "serve",
            n_workers as u64,
        ));
    }

    Ok(ServerHandle {
        addr,
        conns,
        batcher,
        workers,
        scorer: Some(scorer),
    })
}

thread_local! {
    /// Per-worker request buffers: score/index/quant-query scratch reused
    /// across every request a worker thread handles, so the hot path
    /// allocates nothing proportional to the catalog size.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Everything a worker needs, cloned per thread.
struct Ctx {
    /// This worker's index; names its entry in the parked table.
    worker: usize,
    engine: Arc<Engine>,
    cache: Arc<TopKCache>,
    batcher: Arc<Batcher>,
    /// Socket queue, parked table and the shutdown flag.
    conns: Arc<Conns>,
    cache_enabled: bool,
    obs: Arc<ObsState>,
    /// Streaming ingestion state; `None` when `--events-log` is off.
    ingest: Option<Arc<EventIngest>>,
    /// Admission gate + brownout level (DESIGN.md §14).
    overload: Arc<Overload>,
}

/// Shared `POST /events` ingestion state: the durable log behind one mutex
/// (appends and fold-ins happen under it, in arrival order — which is also
/// what makes `/admin/reload`'s full-log replay consistent: the reload
/// handler holds this lock too, so disk and memory agree at the swap), plus
/// the backpressure counter the handlers check *before* queueing on it.
struct EventIngest {
    log: Mutex<EventLog>,
    /// `/events` requests currently in flight (parsing, appending, folding).
    pending: AtomicU64,
    /// At or above this many in-flight requests, new ones get 503.
    max_pending: u64,
    /// Unix millis of the last completed fold-in; 0 = none yet.
    last_fold_in_ms: AtomicU64,
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Deepest brownout level; see DESIGN.md §14 for what each level does.
const BROWNOUT_MAX_LEVEL: u8 = 3;
/// Per-request `k` ceiling at brownout levels >= 2.
const BROWNOUT_K_CAP: usize = 20;
/// A queued request with no deadline is shed after this long: rejects must
/// stay prompt even for clients that never set `x-lrgcn-deadline-ms`.
const MAX_QUEUE_WAIT: Duration = Duration::from_secs(2);
/// Minimum 10s-window traffic before a blown p99 counts as pressure —
/// below this a single slow request would flap the controller.
const PRESSURE_MIN_REQUESTS: u64 = 5;
/// Upper bound on a client-supplied deadline; anything larger is a typo.
const MAX_DEADLINE_MS: u64 = 3_600_000;

/// Shared overload-control state (DESIGN.md §14): the admission gate over
/// the compute routes plus the brownout degradation level the controller
/// thread maintains.
#[derive(Debug)]
struct Overload {
    /// Compute requests allowed to execute concurrently; `0` = gate off.
    max_inflight: u64,
    /// Waiters allowed behind a full gate before arrivals shed.
    max_queue: u64,
    /// Deadline applied when the client sends none; `0` = none.
    deadline_default_ms: u64,
    /// Admitted compute requests currently executing.
    inflight: AtomicU64,
    /// Requests currently waiting for a slot.
    queued: AtomicU64,
    /// Pairs with `slot_freed`: waiters re-check `inflight` under this
    /// lock and releasers notify under it, so a freed slot is never
    /// announced between a waiter's check and its sleep.
    gate: Mutex<()>,
    slot_freed: Condvar,
    /// Brownout level, 0 (healthy) ..= [`BROWNOUT_MAX_LEVEL`]. Written
    /// only by the controller thread; read on every gated request.
    level: AtomicU8,
    brownout: bool,
}

impl Overload {
    fn new(cfg: &ServerConfig) -> Self {
        Self {
            max_inflight: cfg.max_inflight as u64,
            max_queue: cfg.max_queue as u64,
            deadline_default_ms: cfg.deadline_default_ms,
            inflight: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            gate: Mutex::new(()),
            slot_freed: Condvar::new(),
            level: AtomicU8::new(0),
            brownout: cfg.brownout,
        }
    }

    fn level(&self) -> u8 {
        if self.brownout {
            self.level.load(Ordering::SeqCst)
        } else {
            0
        }
    }

    /// Resolves the request's absolute deadline: the
    /// `x-lrgcn-deadline-ms` header when present (malformed values are a
    /// 400, not silently ignored — a client that tried to bound its wait
    /// must not wait unboundedly), else the server default, else none.
    fn deadline_of(&self, req: &Request) -> Result<Option<Instant>, Reply> {
        let ms = match req.header("x-lrgcn-deadline-ms") {
            Some(raw) => match raw.parse::<u64>() {
                Ok(ms) if (1..=MAX_DEADLINE_MS).contains(&ms) => ms,
                _ => {
                    return Err(error_response(
                        400,
                        &format!("x-lrgcn-deadline-ms must be 1..={MAX_DEADLINE_MS}, got {raw:?}"),
                    ))
                }
            },
            None => self.deadline_default_ms,
        };
        Ok((ms > 0).then(|| Instant::now() + Duration::from_millis(ms)))
    }

    fn try_slot(&self) -> bool {
        loop {
            let cur = self.inflight.load(Ordering::SeqCst);
            if cur >= self.max_inflight {
                return false;
            }
            if self
                .inflight
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Takes an execution slot, or queues for one within the bounded
    /// queue. `Err` is the finished 503 reply: shed when the queue is
    /// full (or at brownout level 3, where queueing is disabled — worker
    /// time is better spent on requests that can still succeed), or
    /// deadline-exceeded when the deadline passed while queued — the
    /// "checked at dequeue" half of the deadline contract.
    fn admit(&self, deadline: Option<Instant>) -> Result<Option<SlotGuard<'_>>, Reply> {
        if self.max_inflight == 0 {
            return Ok(None);
        }
        if self.try_slot() {
            return Ok(Some(SlotGuard(self)));
        }
        let max_queue = if self.level() >= BROWNOUT_MAX_LEVEL {
            0
        } else {
            self.max_queue
        };
        if self.queued.fetch_add(1, Ordering::SeqCst) >= max_queue {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(shed_response("server at capacity, retry later"));
        }
        let give_up_at = deadline.unwrap_or_else(|| Instant::now() + MAX_QUEUE_WAIT);
        let mut guard = self.gate.lock().expect("admission gate poisoned");
        loop {
            if self.try_slot() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Ok(Some(SlotGuard(self)));
            }
            let now = Instant::now();
            if now >= give_up_at {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Err(if deadline.is_some() {
                    deadline_response("deadline expired while queued for admission")
                } else {
                    shed_response("queued past the maximum wait, retry later")
                });
            }
            // Fast-path arrivals may steal a freed slot ahead of us
            // (admission is not FIFO-fair); the bounded wait plus the 503
            // fallback keeps that unfairness from becoming starvation.
            let (g, _) = self
                .slot_freed
                .wait_timeout(guard, give_up_at - now)
                .expect("admission gate poisoned");
            guard = g;
        }
    }
}

/// Releases the admission slot and wakes one queued waiter.
#[derive(Debug)]
struct SlotGuard<'a>(&'a Overload);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
        // Lock-then-notify pairs with the waiter's check-then-wait under
        // the same mutex: no wakeup can fall in the gap.
        let _g = self.0.gate.lock().expect("admission gate poisoned");
        self.0.slot_freed.notify_one();
    }
}

/// Hysteresis state machine for the brownout level: one level deeper
/// after `up_ticks` consecutive pressured ticks, one level back after
/// `down_ticks` consecutive calm ticks, both streaks reset on every
/// transition (and on every contrary sample), so one noisy second can
/// neither trigger nor undo a step.
struct BrownoutCtl {
    bad: u32,
    good: u32,
    up_ticks: u32,
    down_ticks: u32,
}

impl BrownoutCtl {
    fn new(up_ticks: u32, down_ticks: u32) -> Self {
        Self {
            bad: 0,
            good: 0,
            up_ticks: up_ticks.max(1),
            down_ticks: down_ticks.max(1),
        }
    }

    /// Feeds one tick's pressure verdict; returns the (possibly stepped)
    /// level.
    fn tick(&mut self, level: u8, pressure: bool) -> u8 {
        if pressure {
            self.bad += 1;
            self.good = 0;
        } else {
            self.good += 1;
            self.bad = 0;
        }
        if pressure && self.bad >= self.up_ticks && level < BROWNOUT_MAX_LEVEL {
            self.bad = 0;
            level + 1
        } else if !pressure && self.good >= self.down_ticks && level > 0 {
            self.good = 0;
            level - 1
        } else {
            level
        }
    }
}

/// One controller tick's verdict: the 10s p99 has blown the SLO with real
/// traffic behind it, or the admission gate is saturated with a backlog
/// queued behind it.
fn under_pressure(w10: &WindowStats, slo_ns: u64, ov: &Overload) -> bool {
    let slow = w10.requests >= PRESSURE_MIN_REQUESTS && w10.hist.quantile_ns(0.99) > slo_ns;
    let saturated = ov.max_inflight > 0
        && ov.inflight.load(Ordering::SeqCst) >= ov.max_inflight
        && ov.queued.load(Ordering::SeqCst) > 0;
    slow || saturated
}

/// What a compute handler receives from the overload layer: the deadline
/// (re-checked right before the scoring kernel), the read plan and k cap
/// of the brownout level, and the slot guard that holds its admission slot
/// for the handler's whole run.
struct Permit<'a> {
    deadline: Option<Instant>,
    plan: ReadPlan,
    level: u8,
    _slot: Option<SlotGuard<'a>>,
}

impl Permit<'_> {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Brownout levels >= 2 cap `k` to bound per-request work.
    fn cap_k(&self, k: usize) -> usize {
        if self.level >= 2 {
            k.min(BROWNOUT_K_CAP)
        } else {
            k
        }
    }

    /// Level 3 serves any cached ranking for the user, generations old
    /// included, before spending compute.
    fn stale_ok(&self) -> bool {
        self.level >= BROWNOUT_MAX_LEVEL
    }
}

/// Runs a compute request through deadline resolution and the admission
/// gate; the brownout read plan is sampled once, at admission.
fn gated<'a>(req: &Request, ctx: &'a Ctx) -> Result<Permit<'a>, Reply> {
    let deadline = ctx.overload.deadline_of(req)?;
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(deadline_response("deadline expired before admission"));
    }
    let slot = ctx.overload.admit(deadline)?;
    let level = ctx.overload.level();
    Ok(Permit {
        deadline,
        plan: plan_for(level, &ctx.engine.state()),
        level,
        _slot: slot,
    })
}

/// The read plan a brownout level serves with. Level 0 is the engine's
/// configured plan; level 1 probes the IVF index (when one is loaded —
/// `--ann-standby` exists exactly for this) at its configured width;
/// levels 2+ halve the width. A server with no index degrades by shedding
/// alone: the plan never makes a request *more* expensive.
fn plan_for(level: u8, st: &EngineState) -> ReadPlan {
    let plan = st.plan();
    if level == 0 || !st.ann_available() {
        return plan;
    }
    let nprobe = st.ann_nprobe();
    ReadPlan {
        nprobe: if level >= 2 { (nprobe / 2).max(1) } else { nprobe },
        ..plan
    }
}

/// Per-server observability state shared by every worker: request-id
/// generator, SLO thresholds, and the (optional) sampled access log.
struct ObsState {
    started: Instant,
    slo_p99_ms: Option<u64>,
    slo_err_ppm: Option<u64>,
    access: Option<Mutex<File>>,
    access_sample: u64,
    access_seq: AtomicU64,
    id_prefix: String,
    id_seq: AtomicU64,
}

impl ObsState {
    fn new(cfg: &ServerConfig) -> Result<Self, String> {
        let access = match &cfg.access_log {
            Some(p) => Some(Mutex::new(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(p)
                    .map_err(|e| format!("opening access log {}: {e}", p.display()))?,
            )),
            None => None,
        };
        let boot_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Ok(Self {
            started: Instant::now(),
            slo_p99_ms: cfg.slo_p99_ms,
            slo_err_ppm: cfg.slo_err_ppm,
            access,
            access_sample: cfg.access_sample.max(1),
            access_seq: AtomicU64::new(0),
            id_prefix: format!("{:08x}", (boot_ns >> 16) as u32 ^ boot_ns as u32),
            id_seq: AtomicU64::new(0),
        })
    }

    /// A fresh process-unique request id: boot-derived prefix + sequence.
    fn fresh_id(&self) -> String {
        format!(
            "{}-{:x}",
            self.id_prefix,
            self.id_seq.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Honors a well-formed inbound `x-lrgcn-request-id` (propagation from
    /// an upstream caller); anything missing, oversized or containing
    /// header-unsafe bytes gets a fresh id instead.
    fn request_id(&self, req: &Request) -> String {
        if let Some(id) = req.header("x-lrgcn-request-id") {
            let ok = !id.is_empty()
                && id.len() <= 64
                && id
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b':'));
            if ok {
                return id.to_string();
            }
        }
        self.fresh_id()
    }

    /// Appends one JSONL access-log line for every `access_sample`-th
    /// request. The line reuses the `obs::json` bit-exact encoder; a full
    /// line is written with one `write_all`, so concurrent workers never
    /// interleave partial lines.
    #[allow(clippy::too_many_arguments)]
    fn access_log(
        &self,
        id: &str,
        method: &str,
        path: &str,
        route: Route,
        read_path: ReadPath,
        status: u16,
        ns: u64,
        generation: u64,
    ) {
        let Some(file) = &self.access else { return };
        let seq = self.access_seq.fetch_add(1, Ordering::Relaxed);
        if !seq.is_multiple_of(self.access_sample) {
            return;
        }
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut line = Value::obj([
            ("ts_ms", Value::u64(ts_ms)),
            ("id", Value::str(id)),
            ("method", Value::str(method)),
            ("path", Value::str(path)),
            ("route", Value::str(route.name())),
            ("status", Value::u64(status as u64)),
            ("latency_ns", Value::u64(ns)),
            ("read_path", Value::str(read_path.name())),
            ("generation", Value::u64(generation)),
        ])
        .render()
        .into_bytes();
        line.push(b'\n');
        if let Ok(mut f) = file.lock() {
            let _ = f.write_all(&line);
        }
    }
}

/// Maps a parsed request onto the closed [`Route`] label space. Must agree
/// with [`route`]'s dispatch so latency series line up with handlers.
fn classify_route(req: &Request) -> Route {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Route::Healthz,
        ("GET", "/metrics") => Route::Metrics,
        ("GET", "/admin/obs") => Route::AdminObs,
        ("POST", "/score") => Route::Score,
        ("POST", "/events") => Route::Events,
        ("POST", "/admin/reload") => Route::AdminReload,
        ("POST", "/admin/shutdown") => Route::AdminShutdown,
        ("GET", p) if p.starts_with("/recs/") => Route::Recs,
        ("GET", p) if p.starts_with("/similar/") => Route::Similar,
        _ => Route::Other,
    }
}

/// The connection layer's shared state: accepted sockets waiting for a
/// worker, the connections workers are parked on, and the shutdown flag.
struct Conns {
    addr: SocketAddr,
    stop: AtomicBool,
    state: Mutex<ConnState>,
    /// Workers wait here for a socket.
    ready: Condvar,
    /// The acceptor waits here for queue room, and after a failed accept.
    room: Condvar,
}

#[derive(Default)]
struct ConnState {
    queue: VecDeque<TcpStream>,
    /// Workers blocked on `ready`; each takes one queued socket when woken.
    free_workers: usize,
    /// At most one entry per worker.
    parked: Vec<Parked>,
}

/// A connection whose worker is blocked waiting for its next request.
struct Parked {
    worker: usize,
    since: Instant,
    /// The connection has had an answer, so its client knows keep-alive
    /// connections get closed under it and retries. A fresh connection's
    /// client does not: only shutdown reclaims those.
    answered: bool,
    /// `try_clone` of the worker's socket: shutting it down ends the
    /// worker's blocked read.
    socket: TcpStream,
    /// Set by whoever shut `socket` down; tells the worker the connection
    /// is gone whatever its read returned.
    reclaimed: bool,
}

impl Parked {
    fn reclaim(&mut self) {
        self.reclaimed = true;
        let _ = self.socket.shutdown(Shutdown::Both);
    }
}

impl Conns {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stop: AtomicBool::new(false),
            state: Mutex::default(),
            ready: Condvar::new(),
            room: Condvar::new(),
        }
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Every update under this lock is a single push, pop, remove or
    /// counter step, so the state a panicking holder leaves is still valid.
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acceptor side: queues `socket`, and if no free worker will come for
    /// it, reclaims the longest-parked keep-alive connection so one does.
    fn offer(&self, socket: TcpStream) {
        let mut st = self.lock();
        while st.queue.len() >= MAX_QUEUED_SOCKETS && !self.stopping() {
            st = self.room.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if self.stopping() {
            return;
        }
        st.queue.push_back(socket);
        let on_their_way = st.free_workers + st.parked.iter().filter(|p| p.reclaimed).count();
        if st.queue.len() > on_their_way {
            if let Some(idlest) = st
                .parked
                .iter_mut()
                .filter(|p| p.answered && !p.reclaimed)
                .min_by_key(|p| p.since)
            {
                idlest.reclaim();
            }
        }
        self.ready.notify_one();
    }

    /// Acceptor side: waits out [`ACCEPT_BACKOFF`] or until shutdown.
    fn accept_backoff(&self) {
        let st = self.lock();
        if !self.stopping() {
            drop(self.room.wait_timeout(st, ACCEPT_BACKOFF));
        }
    }

    /// Worker side: the next accepted socket, or `None` once shutdown began.
    fn next_socket(&self) -> Option<TcpStream> {
        let mut st = self.lock();
        loop {
            if self.stopping() {
                return None;
            }
            if let Some(socket) = st.queue.pop_front() {
                self.room.notify_one();
                return Some(socket);
            }
            st.free_workers += 1;
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.free_workers -= 1;
        }
    }

    /// True while accepted sockets wait for a worker.
    fn backlog(&self) -> bool {
        !self.lock().queue.is_empty()
    }

    /// Worker side: registers `stream` as parked. False means close it
    /// instead: shutdown began, or sockets are queued behind a connection
    /// that has already had an answer (`answered`).
    fn park(&self, worker: usize, stream: &TcpStream, answered: bool) -> bool {
        let Ok(socket) = stream.try_clone() else {
            return false;
        };
        let mut st = self.lock();
        if self.stopping() || (answered && !st.queue.is_empty()) {
            return false;
        }
        st.parked.push(Parked {
            worker,
            since: Instant::now(),
            answered,
            socket,
            reclaimed: false,
        });
        true
    }

    /// Worker side: removes this worker's parked entry; true if the
    /// connection was reclaimed while it was parked.
    fn unpark(&self, worker: usize) -> bool {
        let mut st = self.lock();
        let at = st
            .parked
            .iter()
            .position(|p| p.worker == worker)
            .expect("unpark follows a successful park by the same worker");
        st.parked.swap_remove(at).reclaimed
    }

    /// Begins shutdown: no new sockets are served, parked connections are
    /// cut, every waiter wakes. Requests in flight are not touched.
    fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        {
            let mut st = self.lock();
            st.queue.clear();
            st.parked.iter_mut().for_each(Parked::reclaim);
            self.ready.notify_all();
            self.room.notify_all();
        }
        // The acceptor is blocked in `accept`; a connection to ourselves
        // is the portable way to make that call return.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, SOCKET_TIMEOUT);
    }
}

fn accept_loop(listener: TcpListener, conns: &Conns) {
    loop {
        let accepted = listener.accept();
        if conns.stopping() {
            return;
        }
        match accepted {
            Ok((socket, _peer)) => conns.offer(socket),
            Err(_) => conns.accept_backoff(),
        }
    }
}

fn worker_loop(ctx: Ctx) {
    while let Some(stream) = ctx.conns.next_socket() {
        serve_connection(stream, &ctx);
    }
}

/// One connection, start to finish: request after request until a close
/// rule fires (module docs).
fn serve_connection(mut stream: TcpStream, ctx: &Ctx) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    // A response is one small write; left to Nagle, every second one on a
    // connection would wait ~40 ms for the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut carry: Vec<u8> = Vec::with_capacity(1024);
    for answered in 0..MAX_REQUESTS_PER_CONN {
        if carry.is_empty() && !await_request(&mut stream, &mut carry, answered > 0, ctx) {
            return;
        }
        let last = answered + 1 == MAX_REQUESTS_PER_CONN;
        if !serve_request(&mut stream, &mut carry, last, ctx) {
            return;
        }
    }
}

/// Parks until the next request's first byte is in `carry`. False when the
/// connection ended instead — peer closed, idle too long, reclaimed,
/// shutdown — which is neither a request nor an error: nothing is counted
/// and nothing is written.
fn await_request(stream: &mut TcpStream, carry: &mut Vec<u8>, answered: bool, ctx: &Ctx) -> bool {
    if !ctx.conns.park(ctx.worker, stream, answered) {
        return false;
    }
    let parked_at = Instant::now();
    let limit = if answered {
        IDLE_TIMEOUT
    } else {
        SOCKET_TIMEOUT
    };
    // The socket's read timeout stays SOCKET_TIMEOUT for the connection's
    // whole life; idling longer than that is a few extra wake-ups.
    let got = loop {
        match read_more(stream, carry) {
            Ok(n) => break n,
            Err(e)
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
                    && parked_at.elapsed() < limit => {}
            Err(_) => break 0,
        }
    };
    // A reclaimed connection is dropped whatever the read returned.
    !ctx.conns.unpark(ctx.worker) && got > 0
}

/// Reads, routes and answers one request whose first byte is already in
/// `carry`; everything measured or counted per request happens here, so
/// time a connection spent idle is never latency. Returns whether the
/// connection stays open; `last` is the per-connection request cap.
fn serve_request(stream: &mut TcpStream, carry: &mut Vec<u8>, last: bool, ctx: &Ctx) -> bool {
    registry::add(Counter::ServeRequests, 1);
    let _span = lrgcn_obs::trace::span("serve_request", "serve");
    let t0 = Instant::now();

    let (req_id, route_label, method, path, reply, keep_alive) = match read_request(stream, carry) {
        Ok(req) => {
            let id = ctx.obs.request_id(&req);
            let label = classify_route(&req);
            let reply = route(&req, ctx, &id);
            (id, label, req.method, req.path, reply, req.keep_alive)
        }
        // After a parse or framing error the next request's position in
        // the byte stream is unknown: answer and close.
        Err(err) => (
            ctx.obs.fresh_id(),
            Route::Other,
            "-".to_string(),
            "-".to_string(),
            error_response(err.status, &err.msg),
            false,
        ),
    };
    let (status, content_type, body) = reply;
    if status >= 400 {
        registry::add(Counter::ServeErrors, 1);
    }
    // Evaluated after routing, so `/admin/shutdown` closes its own
    // connection; a waiting socket outranks this client's next request.
    let close = !keep_alive || last || ctx.conns.stopping() || ctx.conns.backlog();
    let extra = response_headers(&req_id, status);
    let written = write_response(stream, status, content_type, &extra, &body, close);

    // The measurement covers parse → route → respond, exactly what the
    // cumulative `Hist::ServeRequest` always covered; both sinks are fed
    // from the same sample so windows and lifetime histograms agree.
    let ns = t0.elapsed().as_nanos() as u64;
    registry::record_ns(Hist::ServeRequest, ns);
    let slow = ctx
        .obs
        .slo_p99_ms
        .is_some_and(|ms| ns > ms.saturating_mul(1_000_000));
    let read_path = effective_read_path(ctx, route_label);
    window::record_request(route_label, status, read_path, ns, slow);
    if ctx.obs.access.is_some() {
        let generation = ctx.engine.generation();
        ctx.obs.access_log(
            &req_id, &method, &path, route_label, read_path, status, ns, generation,
        );
    }
    !close && written.is_ok()
}

type Reply = (u16, &'static str, Vec<u8>);

const JSON: &str = "application/json";
const TEXT: &str = "text/plain; version=0.0.4";

/// Seconds a 503'd client should back off before retrying.
const RETRY_AFTER_SECS: &str = "1";

/// The one place response headers are assembled: every reply echoes the
/// request id, and every 503 — admission shed, deadline exceeded,
/// ingestion backlog, log append failure — carries `Retry-After`, so a
/// rejected client always knows when to come back. Pinned by
/// `every_503_carries_retry_after`.
fn response_headers<'a>(req_id: &'a str, status: u16) -> Vec<(&'static str, &'a str)> {
    let mut extra: Vec<(&'static str, &'a str)> = vec![("x-lrgcn-request-id", req_id)];
    if status == 503 {
        extra.push(("retry-after", RETRY_AFTER_SECS));
    }
    extra
}

/// The read-path label for a request's window sample and access-log
/// line: the plan compute routes serve with at the current brownout level,
/// the configured plan for every other route.
fn effective_read_path(ctx: &Ctx, route: Route) -> ReadPath {
    let compute = matches!(route, Route::Recs | Route::Similar);
    let level = if compute { ctx.overload.level() } else { 0 };
    plan_for(level, &ctx.engine.state()).path()
}

fn error_response(status: u16, msg: &str) -> Reply {
    let body = Value::obj([("error", Value::str(msg))]).render();
    (status, JSON, body.into_bytes())
}

/// An admission shed: 503 + `Retry-After` (added centrally by
/// [`response_headers`]), counted in the cumulative registry and the
/// rolling windows so `/admin/obs` and `lrgcn top` see the rate.
fn shed_response(reason: &str) -> Reply {
    registry::add(Counter::ServeShed, 1);
    window::record_shed();
    error_response(503, reason)
}

/// A request dropped because its deadline passed — same 503 + `Retry-After`
/// surface as a shed (the client's remedy is identical), separate counters.
fn deadline_response(reason: &str) -> Reply {
    registry::add(Counter::ServeDeadlineExceeded, 1);
    window::record_deadline_exceeded();
    error_response(503, reason)
}

fn json_response(v: &Value) -> Reply {
    (200, JSON, v.render().into_bytes())
}

fn route(req: &Request, ctx: &Ctx, req_id: &str) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(ctx),
        ("GET", "/metrics") => {
            let mut text = render_metrics();
            text.push_str(&render_serving_metrics(&ctx.obs));
            (200, TEXT, text.into_bytes())
        }
        ("GET", "/admin/obs") => admin_obs(ctx),
        // Compute routes pass the admission gate; admin, health, metrics
        // and ingestion (which has its own backpressure) never queue —
        // an overloaded server must stay observable and drainable.
        ("POST", "/score") => match gated(req, ctx) {
            Ok(permit) => score(req, ctx, &permit),
            Err(reply) => reply,
        },
        ("POST", "/events") => events(req, ctx, req_id),
        ("POST", "/admin/reload") => reload(ctx),
        ("POST", "/admin/shutdown") => {
            ctx.conns.shutdown();
            ctx.batcher.shutdown();
            json_response(&Value::obj([("status", Value::str("shutting down"))]))
        }
        ("GET", path) if path.starts_with("/recs/") => match gated(req, ctx) {
            Ok(permit) => recs(req, ctx, &permit),
            Err(reply) => reply,
        },
        ("GET", path) if path.starts_with("/similar/") => match gated(req, ctx) {
            Ok(permit) => similar(req, ctx, &permit),
            Err(reply) => reply,
        },
        ("GET" | "POST", _) => error_response(404, &format!("no route for {}", req.path)),
        _ => error_response(405, &format!("method {} not allowed", req.method)),
    }
}

fn healthz(ctx: &Ctx) -> Reply {
    let st = ctx.engine.state();
    let delta = st.delta();
    // Freshness for load balancers: rate and error ratio over the last
    // 60s, not just liveness.
    let w60 = window::serving_window(window::now_sec(), 60);
    json_response(&Value::obj([
        ("status", Value::str("ok")),
        ("uptime_s", Value::u64(ctx.obs.started.elapsed().as_secs())),
        ("rate_60s", Value::num(w60.rps())),
        ("error_ratio_60s", Value::num(w60.error_ratio())),
        ("model", Value::str(st.model_name.clone())),
        ("tag", Value::str(st.tag.clone())),
        ("generation", Value::u64(st.generation)),
        ("n_users", Value::u64(st.n_users as u64)),
        ("n_items", Value::u64(st.n_items as u64)),
        ("live_items", Value::u64(st.live_items() as u64)),
        ("dim", Value::u64(st.dim as u64)),
        ("n_parameters", Value::u64(st.n_parameters as u64)),
        ("quant", Value::Bool(st.quant_enabled())),
        (
            "quant_recall_ppm",
            Value::u64((st.quant_recall * 1_000_000.0).round() as u64),
        ),
        ("ann", Value::Bool(st.ann_enabled())),
        (
            "ann_standby",
            Value::Bool(st.ann_available() && !st.ann_enabled()),
        ),
        ("ann_cells", Value::u64(st.ann_cells() as u64)),
        ("ann_nprobe", Value::u64(st.ann_nprobe() as u64)),
        (
            "ann_recall_ppm",
            Value::u64((st.ann_recall * 1_000_000.0).round() as u64),
        ),
        ("events_log", Value::Bool(ctx.ingest.is_some())),
        // covered + delta = acknowledged log length, without taking the
        // ingest lock on the health path.
        (
            "events_total",
            Value::u64(st.covered_events + delta.events_applied()),
        ),
        ("covered_events", Value::u64(st.covered_events)),
        ("delta_events", Value::u64(delta.events_applied())),
        (
            "brownout_level",
            Value::u64(ctx.overload.level() as u64),
        ),
    ]))
}

/// Static JSON key for one of the supported windows.
fn window_key(w: u64) -> &'static str {
    match w {
        10 => "10s",
        60 => "60s",
        300 => "300s",
        _ => "other",
    }
}

/// One window's RED summary as JSON: totals, rates, merged and per-route
/// latency quantiles (milliseconds), read-path mix.
fn window_json(s: &WindowStats) -> Value {
    let ms = |ns: u64| ns as f64 / 1e6;
    let routes = Value::Obj(
        s.routes
            .iter()
            .filter(|(_, h)| h.count > 0)
            .map(|(r, h)| {
                (
                    r.name().to_string(),
                    Value::obj([
                        ("requests", Value::u64(h.count)),
                        ("p50_ms", Value::num(ms(h.quantile_ns(0.50)))),
                        ("p95_ms", Value::num(ms(h.quantile_ns(0.95)))),
                        ("p99_ms", Value::num(ms(h.quantile_ns(0.99)))),
                    ]),
                )
            })
            .collect(),
    );
    Value::obj([
        ("window_s", Value::u64(s.window_s)),
        ("requests", Value::u64(s.requests)),
        ("errors", Value::u64(s.errors)),
        ("rps", Value::num(s.rps())),
        ("error_ratio", Value::num(s.error_ratio())),
        ("p50_ms", Value::num(ms(s.hist.quantile_ns(0.50)))),
        ("p95_ms", Value::num(ms(s.hist.quantile_ns(0.95)))),
        ("p99_ms", Value::num(ms(s.hist.quantile_ns(0.99)))),
        (
            "read_paths",
            Value::obj(
                ReadPath::ALL.map(|p| (p.name(), Value::u64(s.read_paths[p as usize]))),
            ),
        ),
        ("slo_slow", Value::u64(s.slo_slow)),
        ("sheds", Value::u64(s.sheds)),
        ("deadline_exceeded", Value::u64(s.deadline_exceeded)),
        ("routes", routes),
    ])
}

/// SLO burn rates over the short (10s) and long (60s) windows. Latency
/// burn = slow-request ratio over the 1% budget a p99 target implies;
/// error burn = error ratio over the configured ppm budget. 1.0 = burning
/// the budget exactly at the sustainable rate.
fn slo_json(obs: &ObsState, w10: &WindowStats, w60: &WindowStats) -> Value {
    let lat = |w: &WindowStats| {
        if obs.slo_p99_ms.is_some() {
            window::burn_rate(w.slo_slow, w.requests, window::LATENCY_SLO_BUDGET)
        } else {
            0.0
        }
    };
    let err = |w: &WindowStats| match obs.slo_err_ppm {
        Some(ppm) => window::burn_rate(w.errors, w.requests, ppm as f64 / 1e6),
        None => 0.0,
    };
    Value::obj([
        (
            "p99_ms",
            obs.slo_p99_ms.map_or(Value::Null, Value::u64),
        ),
        (
            "err_ppm",
            obs.slo_err_ppm.map_or(Value::Null, Value::u64),
        ),
        ("burn_latency_10s", Value::num(lat(w10))),
        ("burn_latency_60s", Value::num(lat(w60))),
        ("burn_err_10s", Value::num(err(w10))),
        ("burn_err_60s", Value::num(err(w60))),
    ])
}

/// `GET /admin/obs`: the full windowed observability snapshot — read-only,
/// no admin side effects despite the path prefix.
fn admin_obs(ctx: &Ctx) -> Reply {
    let st = ctx.engine.state();
    let now = window::now_sec();
    let stats: Vec<WindowStats> = WINDOWS_S
        .iter()
        .map(|&w| window::serving_window(now, w))
        .collect();
    let windows = Value::Obj(
        stats
            .iter()
            .map(|s| (window_key(s.window_s).to_string(), window_json(s)))
            .collect(),
    );
    let hits = registry::get(Counter::ServeCacheHits);
    let misses = registry::get(Counter::ServeCacheMisses);
    let lookups = hits + misses;
    json_response(&Value::obj([
        ("uptime_s", Value::u64(ctx.obs.started.elapsed().as_secs())),
        ("model", Value::str(st.model_name.clone())),
        ("generation", Value::u64(st.generation)),
        ("read_path", Value::str(st.plan().path().name())),
        ("reloads", Value::u64(registry::get(Counter::ServeReloads))),
        (
            "cache",
            Value::obj([
                ("hits", Value::u64(hits)),
                ("misses", Value::u64(misses)),
                (
                    "hit_ratio",
                    Value::num(if lookups == 0 {
                        0.0
                    } else {
                        hits as f64 / lookups as f64
                    }),
                ),
            ]),
        ),
        (
            "quant",
            Value::obj([
                ("scans", Value::u64(registry::get(Counter::QuantScans))),
                ("rescored", Value::u64(registry::get(Counter::QuantRescored))),
                (
                    "recall_ppm",
                    Value::u64(registry::gauge_current(Gauge::QuantRecallPpm)),
                ),
            ]),
        ),
        (
            "ann",
            Value::obj([
                (
                    "cells_probed",
                    Value::u64(registry::get(Counter::AnnCellsProbed)),
                ),
                (
                    "candidates",
                    Value::u64(registry::get(Counter::AnnCandidates)),
                ),
                (
                    "recall_ppm",
                    Value::u64(registry::gauge_current(Gauge::AnnRecallPpm)),
                ),
            ]),
        ),
        (
            "events",
            Value::obj([
                ("enabled", Value::Bool(ctx.ingest.is_some())),
                (
                    "accepted",
                    Value::u64(registry::get(Counter::ServeEventsAccepted)),
                ),
                (
                    "duplicates",
                    Value::u64(registry::get(Counter::ServeEventsDuplicates)),
                ),
                (
                    "rejected",
                    Value::u64(registry::get(Counter::ServeEventsRejected)),
                ),
                (
                    "fold_ins",
                    Value::u64(registry::get(Counter::ServeEventsFoldIns)),
                ),
                (
                    "log_lag",
                    Value::u64(registry::gauge_current(Gauge::EventsLogLag)),
                ),
                (
                    "total_events",
                    Value::u64(st.covered_events + st.delta().events_applied()),
                ),
                (
                    "covered_events",
                    Value::u64(st.covered_events),
                ),
                (
                    "last_fold_in_age_ms",
                    match ctx
                        .ingest
                        .as_ref()
                        .map(|i| i.last_fold_in_ms.load(Ordering::Relaxed))
                    {
                        Some(ms) if ms > 0 => Value::u64(unix_ms().saturating_sub(ms)),
                        _ => Value::Null,
                    },
                ),
                (
                    "fold_in_p95_ns",
                    Value::u64(registry::snapshot().hist(Hist::ServeFoldIn).quantile_ns(0.95)),
                ),
            ]),
        ),
        (
            "overload",
            Value::obj([
                ("admission", Value::Bool(ctx.overload.max_inflight > 0)),
                ("max_inflight", Value::u64(ctx.overload.max_inflight)),
                (
                    "inflight",
                    Value::u64(ctx.overload.inflight.load(Ordering::SeqCst)),
                ),
                (
                    "queued",
                    Value::u64(ctx.overload.queued.load(Ordering::SeqCst)),
                ),
                ("brownout", Value::Bool(ctx.overload.brownout)),
                ("level", Value::u64(ctx.overload.level() as u64)),
                (
                    "step_ups",
                    Value::u64(registry::get(Counter::ServeBrownoutStepUps)),
                ),
                (
                    "step_downs",
                    Value::u64(registry::get(Counter::ServeBrownoutStepDowns)),
                ),
                ("sheds", Value::u64(registry::get(Counter::ServeShed))),
                (
                    "deadline_exceeded",
                    Value::u64(registry::get(Counter::ServeDeadlineExceeded)),
                ),
                (
                    "stale_hits",
                    Value::u64(registry::get(Counter::ServeStaleHits)),
                ),
            ]),
        ),
        ("slo", slo_json(&ctx.obs, &stats[0], &stats[1])),
        ("windows", windows),
    ]))
}

fn reload(ctx: &Ctx) -> Reply {
    // With ingestion on, hold the log mutex across the swap: no event can
    // be acknowledged between the engine's full-log replay and the new
    // state going live, so the replayed state covers every acked event.
    // Requests in flight keep their (state, delta) Arc snapshot — nothing
    // is dropped while the rebuild runs off to the side.
    let _log_guard = ctx
        .ingest
        .as_ref()
        .map(|i| i.log.lock().expect("event log poisoned"));
    match ctx.engine.reload() {
        Ok(st) => {
            if let Some(log) = &_log_guard {
                registry::gauge_set(
                    Gauge::EventsLogLag,
                    log.len().saturating_sub(st.covered_events),
                );
            }
            json_response(&Value::obj([
                ("status", Value::str("reloaded")),
                ("generation", Value::u64(st.generation)),
                ("model", Value::str(st.model_name.clone())),
                ("covered_events", Value::u64(st.covered_events)),
            ]))
        }
        Err(e) => error_response(500, &e),
    }
}

/// Parses one `/events` JSON object: `{"user": u, "item": i[, "ts": t]
/// [, "client": "c", "seq": n]}`. `client`+`seq` arm idempotent retries
/// (monotone per-client sequence numbers); omitting `client` opts out.
fn parse_event(line: &str, req_id: &str) -> Result<StreamEvent, String> {
    let v = lrgcn_obs::json::parse(line).map_err(|e| format!("bad JSON event: {e}"))?;
    let uint = |key: &str, max: f64| -> Result<Option<u64>, String> {
        match v.get(key) {
            None => Ok(None),
            Some(x) => match x.as_f64() {
                Some(n) if n >= 0.0 && n.fract() == 0.0 && n <= max => Ok(Some(n as u64)),
                _ => Err(format!("{key} must be an integer in 0..={max}")),
            },
        }
    };
    let user = uint("user", u32::MAX as f64)?.ok_or("event is missing \"user\"")?;
    let item = uint("item", u32::MAX as f64)?.ok_or("event is missing \"item\"")?;
    let timestamp = match v.get("ts") {
        None => 0,
        Some(x) => match x.as_f64() {
            Some(n) if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => n as i64,
            _ => return Err("ts must be an integer timestamp".into()),
        },
    };
    let client = match v.get("client") {
        None => String::new(),
        Some(c) => match c.as_str() {
            Some(s) if s.len() <= 256 => s.to_string(),
            Some(_) => return Err("client id longer than 256 bytes".into()),
            None => return Err("client must be a string".into()),
        },
    };
    let seq = uint("seq", (1u64 << 53) as f64)?.unwrap_or(0);
    if !client.is_empty() && seq == 0 {
        return Err("seq must be >= 1 when client is set".into());
    }
    Ok(StreamEvent {
        user: user as u32,
        item: item as u32,
        timestamp,
        client,
        seq,
        request_id: req_id.to_string(),
    })
}

/// Decrements the in-flight `/events` counter on every exit path.
struct PendingGuard<'a>(&'a AtomicU64);

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// `POST /events`: the streaming ingestion path (DESIGN.md §13). Body is
/// one JSON event object or a JSONL batch. Under the log mutex the batch
/// is deduplicated, framed, written and fsync'd — only then acknowledged —
/// and the accepted suffix is folded into the live state's delta, so a 200
/// means both "durable" and "already serving".
fn events(req: &Request, ctx: &Ctx, req_id: &str) -> Reply {
    let Some(ingest) = &ctx.ingest else {
        return error_response(404, "streaming ingestion is off (start with --events-log DIR)");
    };
    let in_flight = ingest.pending.fetch_add(1, Ordering::SeqCst);
    let _guard = PendingGuard(&ingest.pending);
    if in_flight >= ingest.max_pending {
        registry::add(Counter::ServeEventsRejected, 1);
        return error_response(503, "event ingestion backlog full, retry later");
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    let mut batch = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match parse_event(line, req_id) {
            Ok(ev) => batch.push(ev),
            Err(e) => {
                registry::add(Counter::ServeEventsRejected, 1);
                return error_response(400, &e);
            }
        }
    }
    if batch.is_empty() {
        return error_response(400, "body must carry at least one event");
    }
    let mut log = ingest.log.lock().expect("event log poisoned");
    let outcome = match log.append_batch(&batch) {
        Ok(o) => o,
        Err(e) => {
            registry::add(Counter::ServeEventsRejected, batch.len() as u64);
            return error_response(503, &format!("event log append failed: {e}"));
        }
    };
    registry::add(Counter::ServeEventsAccepted, outcome.accepted.len() as u64);
    registry::add(Counter::ServeEventsDuplicates, outcome.duplicates as u64);
    // Fold in while still holding the log lock: fold-ins apply in exactly
    // the order events hit the disk, keeping memory a prefix-replay of the
    // log (and thus identical to what a restart would rebuild).
    let st = ctx.engine.state();
    let delta = if outcome.accepted.is_empty() {
        st.delta()
    } else {
        let t0 = Instant::now();
        let delta = st.apply_events(&outcome.accepted);
        registry::record_ns(Hist::ServeFoldIn, t0.elapsed().as_nanos() as u64);
        registry::add(Counter::ServeEventsFoldIns, 1);
        ingest.last_fold_in_ms.store(unix_ms(), Ordering::Relaxed);
        delta
    };
    registry::gauge_set(
        Gauge::EventsLogLag,
        log.len().saturating_sub(st.covered_events),
    );
    let total = log.len();
    drop(log);
    json_response(&Value::obj([
        ("accepted", Value::u64(outcome.accepted.len() as u64)),
        ("duplicates", Value::u64(outcome.duplicates as u64)),
        ("total_events", Value::u64(total)),
        ("covered_events", Value::u64(st.covered_events)),
        ("delta_version", Value::u64(delta.version())),
        ("delta_events", Value::u64(delta.events_applied())),
    ]))
}

/// Parses the `{id}` tail of `/recs/{id}` / `/similar/{id}`.
fn parse_id(path: &str, prefix: &str) -> Result<u32, Reply> {
    let tail = &path[prefix.len()..];
    if tail.is_empty() || tail.contains('/') {
        return Err(error_response(404, &format!("no route for {path}")));
    }
    tail.parse()
        .map_err(|_| error_response(400, &format!("{tail:?} is not a numeric id")))
}

fn parse_k(req: &Request) -> Result<usize, Reply> {
    match req.query_get("k") {
        None => Ok(10),
        Some(raw) => raw
            .parse::<usize>()
            .ok()
            .filter(|k| (1..=1000).contains(k))
            .ok_or_else(|| error_response(400, &format!("k must be 1..=1000, got {raw:?}"))),
    }
}

fn items_json(items: &[(u32, f32)]) -> Value {
    Value::Arr(
        items
            .iter()
            .map(|&(it, s)| {
                Value::obj([("item", Value::u64(it as u64)), ("score", Value::num(s))])
            })
            .collect(),
    )
}

fn recs(req: &Request, ctx: &Ctx, permit: &Permit) -> Reply {
    let user = match parse_id(&req.path, "/recs/") {
        Ok(u) => u,
        Err(r) => return r,
    };
    let k = match parse_k(req) {
        Ok(k) => permit.cap_k(k),
        Err(r) => return r,
    };
    let exclude_seen = match req.query_get("exclude_seen") {
        None => true,
        Some("true") | Some("1") => true,
        Some("false") | Some("0") => false,
        Some(other) => {
            return error_response(400, &format!("exclude_seen must be true/false, got {other:?}"))
        }
    };
    let st = ctx.engine.state();
    // Pin one delta snapshot for the whole request: the 404 check, the
    // cache key and the computation all agree on what has been folded in.
    let delta = st.delta();
    if user as usize >= st.n_users && delta.user_row(user).is_none() {
        return error_response(404, &format!("user {user} out of range (0..{})", st.n_users));
    }
    // The key carries the plan this request is served with: under brownout
    // a cheaper plan must not share entries with the configured one, or a
    // degraded ranking would keep serving after recovery.
    let key = Key {
        generation: st.generation,
        user,
        k,
        exclude_seen,
        plan: permit.plan,
        delta: delta.version(),
    };
    // Deep brownout: any cached ranking for this user and shape — prior
    // generations included — beats spending compute. Marked so clients
    // can tell.
    if permit.stale_ok() && ctx.cache_enabled {
        if let Some((generation, items)) = ctx.cache.get_stale(&key) {
            return json_response(&Value::obj([
                ("user", Value::u64(user as u64)),
                ("k", Value::u64(k as u64)),
                ("generation", Value::u64(generation)),
                ("cached", Value::Bool(true)),
                ("stale", Value::Bool(generation != st.generation)),
                ("items", items_json(&items)),
            ]));
        }
    }
    let compute = || {
        SCRATCH.with(|s| st.recs(&delta, user, k, exclude_seen, permit.plan, &mut s.borrow_mut()))
    };
    let (items, cached) = if ctx.cache_enabled {
        match ctx.cache.get(&key) {
            Some(hit) => (hit, true),
            None => {
                // Last deadline check before the scoring kernel: a doomed
                // request must not burn a full catalog scan.
                if permit.expired() {
                    return deadline_response("deadline expired before the scoring kernel");
                }
                let fresh = match compute() {
                    Ok(v) => v,
                    Err(e) => return error_response(404, &e),
                };
                ctx.cache.insert(key, fresh.clone());
                (fresh, false)
            }
        }
    } else {
        if permit.expired() {
            return deadline_response("deadline expired before the scoring kernel");
        }
        match compute() {
            Ok(v) => (v, false),
            Err(e) => return error_response(404, &e),
        }
    };
    json_response(&Value::obj([
        ("user", Value::u64(user as u64)),
        ("k", Value::u64(k as u64)),
        ("generation", Value::u64(st.generation)),
        ("cached", Value::Bool(cached)),
        ("items", items_json(&items)),
    ]))
}

fn similar(req: &Request, ctx: &Ctx, permit: &Permit) -> Reply {
    let item = match parse_id(&req.path, "/similar/") {
        Ok(i) => i,
        Err(r) => return r,
    };
    let k = match parse_k(req) {
        Ok(k) => permit.cap_k(k),
        Err(r) => return r,
    };
    let st = ctx.engine.state();
    if item as usize >= st.n_items {
        return error_response(404, &format!("item {item} out of range (0..{})", st.n_items));
    }
    if permit.expired() {
        return deadline_response("deadline expired before the scoring kernel");
    }
    match SCRATCH.with(|s| st.similar(item, k, permit.plan, &mut s.borrow_mut())) {
        Ok(items) => json_response(&Value::obj([
            ("item", Value::u64(item as u64)),
            ("k", Value::u64(k as u64)),
            ("generation", Value::u64(st.generation)),
            ("items", items_json(&items)),
        ])),
        Err(e) => error_response(404, &e),
    }
}

fn score(req: &Request, ctx: &Ctx, permit: &Permit) -> Reply {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return error_response(400, "body is not UTF-8"),
    };
    let parsed = match lrgcn_obs::json::parse(text) {
        Ok(v) => v,
        Err(e) => return error_response(400, &format!("bad JSON body: {e}")),
    };
    let Some(Value::Arr(raw_pairs)) = parsed.get("pairs") else {
        return error_response(400, "body must be {\"pairs\": [[user, item], ...]}");
    };
    let mut pairs = Vec::with_capacity(raw_pairs.len());
    for p in raw_pairs {
        let Value::Arr(uv) = p else {
            return error_response(400, "each pair must be a [user, item] array");
        };
        let ids: Option<(u32, u32)> = match uv.as_slice() {
            [u, i] => match (u.as_f64(), i.as_f64()) {
                (Some(u), Some(i))
                    if u >= 0.0 && i >= 0.0 && u.fract() == 0.0 && i.fract() == 0.0 =>
                {
                    Some((u as u32, i as u32))
                }
                _ => None,
            },
            _ => None,
        };
        match ids {
            Some(pair) => pairs.push(pair),
            None => return error_response(400, "each pair must be two non-negative integers"),
        }
    }
    if pairs.is_empty() {
        return error_response(400, "pairs must be non-empty");
    }
    if permit.expired() {
        return deadline_response("deadline expired before the scoring kernel");
    }
    let generation = ctx.engine.generation();
    match ctx.batcher.submit(pairs) {
        Ok(scores) => json_response(&Value::obj([
            ("generation", Value::u64(generation)),
            (
                "scores",
                Value::Arr(scores.into_iter().map(Value::num).collect()),
            ),
        ])),
        Err(e) => error_response(400, &e),
    }
}

/// Appends one `# HELP`/`# TYPE`-prefixed sample line.
fn push_family(out: &mut String, name: &str, help: &str, kind: &str, value: impl std::fmt::Display) {
    out.push_str(&format!(
        "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
    ));
}

/// Renders every obs counter, gauge and histogram as Prometheus text with
/// full scrape metadata: `# HELP`/`# TYPE` per family, and cumulative
/// `_bucket{le="..."}` series derived from the log2 histogram buckets
/// (bucket `b` covers `[2^b, 2^(b+1))` ns, so its inclusive `le` boundary
/// is `2^(b+1)-1`). Dotted metric names become `lrgcn_`-prefixed
/// snake_case (`serve.cache.hits` → `lrgcn_serve_cache_hits_total`).
pub fn render_metrics() -> String {
    let snap = registry::snapshot();
    let mut out = String::new();
    for c in Counter::ALL {
        let name = format!("lrgcn_{}_total", sanitize(c.name()));
        push_family(&mut out, &name, c.help(), "counter", snap.counter(c));
    }
    for g in Gauge::ALL {
        let name = format!("lrgcn_{}", sanitize(g.name()));
        push_family(&mut out, &name, g.help(), "gauge", registry::gauge_current(g));
        let peak = format!("{name}_peak");
        push_family(
            &mut out,
            &peak,
            "High-water mark of the matching gauge",
            "gauge",
            registry::gauge_peak(g),
        );
    }
    for h in Hist::ALL {
        let hs = snap.hist(h);
        let name = format!("lrgcn_{}", sanitize(h.name()));
        out.push_str(&format!(
            "# HELP {name} {}\n# TYPE {name} histogram\n",
            h.help()
        ));
        let mut cum = 0u64;
        for b in 0..HIST_BUCKETS {
            cum += hs.buckets[b];
            out.push_str(&format!(
                "{name}_bucket{{le=\"{}\"}} {cum}\n",
                bucket_upper_ns(b)
            ));
        }
        // Relaxed reads can momentarily disagree between buckets and
        // count; +Inf takes the max so the cumulative series stays
        // monotone for scrapers.
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
            cum.max(hs.count),
            hs.sum_ns,
            hs.count
        ));
        let max = format!("{name}_max");
        push_family(
            &mut out,
            &max,
            "Maximum observed sample, nanoseconds",
            "gauge",
            hs.max_ns,
        );
        let p95 = format!("{name}_p95");
        push_family(
            &mut out,
            &p95,
            "Approximate p95 from the log2 buckets, nanoseconds",
            "gauge",
            hs.quantile_ns(0.95),
        );
    }
    out
}

/// Serving-only extension of [`render_metrics`]: uptime, windowed RED
/// gauges and (when configured) SLO burn rates. Appended by the `/metrics`
/// handler — these need per-server state the registry renderer has no
/// access to.
fn render_serving_metrics(obs: &ObsState) -> String {
    let now = window::now_sec();
    let stats: Vec<WindowStats> = WINDOWS_S
        .iter()
        .map(|&w| window::serving_window(now, w))
        .collect();
    let mut out = String::new();
    push_family(
        &mut out,
        "lrgcn_serve_uptime_seconds",
        "Seconds since this server started",
        "gauge",
        obs.started.elapsed().as_secs(),
    );
    out.push_str(
        "# HELP lrgcn_serve_window_rps Windowed request rate, requests per second\n# TYPE lrgcn_serve_window_rps gauge\n",
    );
    for s in &stats {
        out.push_str(&format!(
            "lrgcn_serve_window_rps{{window=\"{}\"}} {}\n",
            window_key(s.window_s),
            s.rps()
        ));
    }
    out.push_str(
        "# HELP lrgcn_serve_window_error_ratio Windowed non-2xx response ratio\n# TYPE lrgcn_serve_window_error_ratio gauge\n",
    );
    for s in &stats {
        out.push_str(&format!(
            "lrgcn_serve_window_error_ratio{{window=\"{}\"}} {}\n",
            window_key(s.window_s),
            s.error_ratio()
        ));
    }
    out.push_str(
        "# HELP lrgcn_serve_window_p95_ns Windowed p95 request latency, nanoseconds\n# TYPE lrgcn_serve_window_p95_ns gauge\n",
    );
    for s in &stats {
        out.push_str(&format!(
            "lrgcn_serve_window_p95_ns{{window=\"{}\"}} {}\n",
            window_key(s.window_s),
            s.hist.quantile_ns(0.95)
        ));
    }
    if obs.slo_p99_ms.is_some() || obs.slo_err_ppm.is_some() {
        out.push_str(
            "# HELP lrgcn_serve_slo_burn SLO burn rate (1.0 = consuming the error budget exactly at the sustainable rate)\n# TYPE lrgcn_serve_slo_burn gauge\n",
        );
        let (w10, w60) = (&stats[0], &stats[1]);
        if obs.slo_p99_ms.is_some() {
            for w in [w10, w60] {
                out.push_str(&format!(
                    "lrgcn_serve_slo_burn{{slo=\"latency\",window=\"{}\"}} {}\n",
                    window_key(w.window_s),
                    window::burn_rate(w.slo_slow, w.requests, window::LATENCY_SLO_BUDGET)
                ));
            }
        }
        if let Some(ppm) = obs.slo_err_ppm {
            for w in [w10, w60] {
                out.push_str(&format!(
                    "lrgcn_serve_slo_burn{{slo=\"errors\",window=\"{}\"}} {}\n",
                    window_key(w.window_s),
                    window::burn_rate(w.errors, w.requests, ppm as f64 / 1e6)
                ));
            }
        }
    }
    out
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    /// Validates Prometheus text-exposition structure: every sample line
    /// belongs to a family announced by `# HELP` + `# TYPE`, names are
    /// scrape-safe, values parse, histogram `_bucket` series are
    /// cumulative-monotone with increasing `le` boundaries and a `+Inf`
    /// terminator.
    fn validate_scrape(text: &str) {
        let mut help: HashSet<String> = HashSet::new();
        let mut kinds: HashMap<String, String> = HashMap::new();
        // (family → (prev cumulative, prev le, saw +Inf))
        let mut hist_state: HashMap<String, (u64, u64, bool)> = HashMap::new();
        let name_ok = |n: &str| n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, doc) = rest.split_once(' ').expect("HELP name doc");
                assert!(name_ok(name), "unsafe family name {name:?}");
                assert!(!doc.is_empty(), "empty HELP for {name}");
                help.insert(name.to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE name kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown TYPE {kind:?}"
                );
                assert!(help.contains(name), "TYPE before HELP for {name}");
                kinds.insert(name.to_string(), kind.to_string());
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line");
            let v: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("bad value in {line:?}"));
            let (name, labels) = match series.split_once('{') {
                Some((n, l)) => (n, Some(l.strip_suffix('}').expect("closed label set"))),
                None => (series, None),
            };
            assert!(name_ok(name), "unsafe metric name {name:?}");
            // Resolve the declaring family: exact match, or a histogram
            // child (`_bucket`/`_sum`/`_count`).
            let family = if kinds.contains_key(name) {
                name.to_string()
            } else {
                let parent = name
                    .strip_suffix("_bucket")
                    .or_else(|| name.strip_suffix("_sum"))
                    .or_else(|| name.strip_suffix("_count"))
                    .unwrap_or_else(|| panic!("sample {name} has no TYPE metadata"));
                assert_eq!(
                    kinds.get(parent).map(String::as_str),
                    Some("histogram"),
                    "suffix child {name} outside a histogram family"
                );
                parent.to_string()
            };
            if name.ends_with("_bucket") {
                let cum = v as u64;
                let le = labels
                    .and_then(|l| l.strip_prefix("le=\""))
                    .and_then(|l| l.strip_suffix('"'))
                    .unwrap_or_else(|| panic!("bucket without le label in {line:?}"));
                let entry = hist_state.entry(family.clone()).or_insert((0, 0, false));
                assert!(!entry.2, "{family}: bucket after +Inf");
                assert!(
                    cum >= entry.0,
                    "{family}: non-monotone cumulative bucket at le={le}"
                );
                if le == "+Inf" {
                    entry.2 = true;
                } else {
                    let bound: u64 = le.parse().expect("numeric le");
                    assert!(bound > entry.1, "{family}: le boundaries must increase");
                    entry.1 = bound;
                }
                entry.0 = cum;
            }
        }
        for (family, (_, _, inf)) in &hist_state {
            assert!(inf, "{family}: histogram without +Inf bucket");
        }
    }

    #[test]
    fn registry_renderer_is_scrape_valid_and_keeps_stable_names() {
        let text = render_metrics();
        // Names the dashboards / verify.sh already grep for must not move.
        assert!(text.contains("lrgcn_serve_http_requests_total "));
        assert!(text.contains("lrgcn_serve_cache_hits_total "));
        assert!(text.contains("lrgcn_serve_request_ns_count "));
        assert!(text.contains("lrgcn_tensor_matrix_bytes "));
        // New bucket series from the log2 histograms.
        assert!(text.contains("lrgcn_serve_request_ns_bucket{le=\"1\"}"));
        assert!(text.contains("lrgcn_serve_request_ns_bucket{le=\"+Inf\"}"));
        assert!(text.contains("# TYPE lrgcn_serve_request_ns histogram"));
        validate_scrape(&text);
    }

    #[test]
    fn serving_renderer_is_scrape_valid_with_slo_gauges() {
        let cfg = ServerConfig {
            slo_p99_ms: Some(50),
            slo_err_ppm: Some(1000),
            ..ServerConfig::default()
        };
        let obs = ObsState::new(&cfg).unwrap();
        window::record_request(Route::Recs, 200, ReadPath::Exact, 1_000_000, false);
        window::record_request(Route::Recs, 500, ReadPath::Exact, 90_000_000, true);
        let text = render_serving_metrics(&obs);
        assert!(text.contains("lrgcn_serve_uptime_seconds "));
        assert!(text.contains("lrgcn_serve_window_rps{window=\"10s\"}"));
        assert!(text.contains("lrgcn_serve_window_error_ratio{window=\"300s\"}"));
        assert!(text.contains("lrgcn_serve_slo_burn{slo=\"latency\",window=\"10s\"}"));
        assert!(text.contains("lrgcn_serve_slo_burn{slo=\"errors\",window=\"60s\"}"));
        validate_scrape(&text);
    }

    fn fake_request(method: &str, path: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: Default::default(),
            headers: Default::default(),
            body: Vec::new(),
            keep_alive: true,
        }
    }

    #[test]
    fn route_classification_matches_dispatch() {
        let cases = [
            ("GET", "/healthz", Route::Healthz),
            ("GET", "/metrics", Route::Metrics),
            ("GET", "/admin/obs", Route::AdminObs),
            ("POST", "/score", Route::Score),
            ("POST", "/events", Route::Events),
            ("POST", "/admin/reload", Route::AdminReload),
            ("POST", "/admin/shutdown", Route::AdminShutdown),
            ("GET", "/recs/7", Route::Recs),
            ("GET", "/similar/3", Route::Similar),
            ("GET", "/nope", Route::Other),
            ("DELETE", "/recs/7", Route::Other),
        ];
        for (m, p, want) in cases {
            assert_eq!(classify_route(&fake_request(m, p)), want, "{m} {p}");
        }
    }

    #[test]
    fn event_parsing_validates_and_stamps_the_request_id() {
        let ev = parse_event(
            r#"{"user": 7, "item": 3, "ts": 1700000000, "client": "app-1", "seq": 9}"#,
            "rid-1",
        )
        .expect("parse");
        assert_eq!((ev.user, ev.item, ev.timestamp), (7, 3, 1_700_000_000));
        assert_eq!((ev.client.as_str(), ev.seq), ("app-1", 9));
        assert_eq!(ev.request_id, "rid-1");
        // Minimal form: ts/client/seq optional; no-client opts out of dedup.
        let min = parse_event(r#"{"user": 0, "item": 1}"#, "rid-2").expect("minimal");
        assert_eq!((min.timestamp, min.seq), (0, 0));
        assert!(min.client.is_empty());
        for bad in [
            r#"{"item": 1}"#,                                // user missing
            r#"{"user": -1, "item": 1}"#,                    // negative id
            r#"{"user": 0, "item": 1.5}"#,                   // non-integer
            r#"{"user": 0, "item": 1, "client": "c"}"#,      // client without seq
            r#"{"user": 0, "item": 1, "client": 3, "seq": 1}"#, // non-string client
            "not json",
        ] {
            assert!(parse_event(bad, "rid").is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn request_ids_honor_wellformed_inbound_headers_only() {
        let obs = ObsState::new(&ServerConfig::default()).unwrap();
        let mut req = fake_request("GET", "/healthz");
        req.headers
            .insert("x-lrgcn-request-id".into(), "trace-1.2:a_b".into());
        assert_eq!(obs.request_id(&req), "trace-1.2:a_b");
        // Malformed inbound ids are replaced, not echoed.
        for bad in ["", "has space", "x".repeat(65).as_str(), "new\nline"] {
            req.headers
                .insert("x-lrgcn-request-id".into(), bad.into());
            let got = obs.request_id(&req);
            assert_ne!(got, bad);
            assert!(got.contains('-'), "generated id shape: {got}");
        }
        // Generated ids are unique.
        let a = obs.fresh_id();
        let b = obs.fresh_id();
        assert_ne!(a, b);
    }

    #[test]
    fn every_503_carries_retry_after() {
        let h = response_headers("rid-9", 503);
        assert!(h.contains(&("retry-after", RETRY_AFTER_SECS)));
        assert!(h.contains(&("x-lrgcn-request-id", "rid-9")));
        for status in [200u16, 400, 404, 405, 431, 500] {
            let h = response_headers("rid-9", status);
            assert!(
                !h.iter().any(|(k, _)| *k == "retry-after"),
                "status {status} must not promise a retry"
            );
            assert!(h.contains(&("x-lrgcn-request-id", "rid-9")));
        }
        // The shed and deadline replies both ride the 503 contract.
        assert_eq!(shed_response("x").0, 503);
        assert_eq!(deadline_response("x").0, 503);
    }

    #[test]
    fn admission_gate_sheds_when_full_and_recovers() {
        let ov = Overload::new(&ServerConfig {
            max_inflight: 1,
            max_queue: 0,
            ..ServerConfig::default()
        });
        let slot = ov.admit(None).expect("first request").expect("gate armed");
        assert_eq!(ov.inflight.load(Ordering::SeqCst), 1);
        // Gate full and the queue disabled: an immediate 503 shed.
        let shed = ov.admit(None).expect_err("second request must shed");
        assert_eq!(shed.0, 503);
        drop(slot);
        assert_eq!(ov.inflight.load(Ordering::SeqCst), 0);
        assert!(ov.admit(None).expect("slot after release").is_some());
        // Gate off: no guard, never sheds.
        let off = Overload::new(&ServerConfig::default());
        assert!(off.admit(None).expect("gate off").is_none());
    }

    #[test]
    fn queued_requests_are_dropped_at_dequeue_once_the_deadline_passes() {
        let ov = Overload::new(&ServerConfig {
            max_inflight: 1,
            max_queue: 4,
            ..ServerConfig::default()
        });
        let _slot = ov.admit(None).expect("first").expect("armed");
        // Deadline already reached: the waiter must come back promptly
        // with a deadline 503, not a queue-full shed.
        let before = registry::get(Counter::ServeDeadlineExceeded);
        let reply = ov
            .admit(Some(Instant::now()))
            .expect_err("expired waiter must be dropped");
        assert_eq!(reply.0, 503);
        // `>=`: the registry is process-global and other tests also emit
        // deadline 503s.
        assert!(registry::get(Counter::ServeDeadlineExceeded) > before);
        assert_eq!(ov.queued.load(Ordering::SeqCst), 0, "queue slot returned");
    }

    #[test]
    fn deadline_header_parses_and_rejects_garbage() {
        let ov = Overload::new(&ServerConfig {
            deadline_default_ms: 250,
            ..ServerConfig::default()
        });
        let mut req = fake_request("GET", "/recs/1");
        assert!(ov.deadline_of(&req).expect("default").is_some());
        req.headers
            .insert("x-lrgcn-deadline-ms".into(), "50".into());
        assert!(ov.deadline_of(&req).expect("explicit").is_some());
        for bad in ["0", "-5", "abc", "99999999999", "1.5"] {
            req.headers
                .insert("x-lrgcn-deadline-ms".into(), bad.into());
            let reply = ov.deadline_of(&req).expect_err(bad);
            assert_eq!(reply.0, 400, "{bad}");
        }
        // No header and no default: unbounded.
        let off = Overload::new(&ServerConfig::default());
        let plain = fake_request("GET", "/recs/1");
        assert!(off.deadline_of(&plain).expect("off").is_none());
    }

    #[test]
    fn brownout_hysteresis_steps_one_level_at_a_time() {
        let mut ctl = BrownoutCtl::new(2, 3);
        let mut level = 0u8;
        level = ctl.tick(level, true);
        assert_eq!(level, 0, "one bad tick is not a trend");
        level = ctl.tick(level, true);
        assert_eq!(level, 1, "two consecutive bad ticks step down the path");
        level = ctl.tick(level, true);
        assert_eq!(level, 1, "streak resets after a transition");
        level = ctl.tick(level, true);
        assert_eq!(level, 2);
        // A single calm tick wipes the bad streak.
        level = ctl.tick(level, false);
        level = ctl.tick(level, true);
        assert_eq!(level, 2);
        level = ctl.tick(level, true);
        assert_eq!(level, 3);
        for _ in 0..4 {
            level = ctl.tick(level, true);
        }
        assert_eq!(level, BROWNOUT_MAX_LEVEL, "level saturates");
        // Recovery needs down_ticks calm ticks per level.
        for want in [3, 3, 2, 2, 2, 1, 1, 1, 0, 0, 0, 0] {
            level = ctl.tick(level, false);
            assert_eq!(level, want);
        }
    }
}
