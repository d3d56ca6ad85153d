//! Overload-control acceptance test (DESIGN.md §14).
//!
//! A small server with a deliberately tiny admission gate is driven at
//! well over saturating load. The contract under that abuse:
//!
//! * every rejected request is a prompt, complete `503` carrying
//!   `Retry-After` — never a connection reset or a hang;
//! * goodput never collapses to zero (admitted requests keep completing,
//!   and their windowed p99 stays under the configured SLO);
//! * the brownout controller steps the read path down (level ≥ 1 forces
//!   the standby ANN index) while pressure lasts, and steps back to
//!   level 0 with hysteresis once load stops;
//! * after recovery the exact read path serves byte-identical responses
//!   to pre-overload — degraded rankings must not leak forward through
//!   the cache.
//!
//! `x-lrgcn-deadline-ms` deadlines are exercised under the same gate:
//! queued requests whose budget expires are dropped at dequeue with 503.

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn_obs::json::{self, Value};
use lrgcn_serve::chaos;
use lrgcn_serve::{serve, Engine, EngineOptions, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Yelp-preset checkpoint (1411 items): big enough that an exact scan
/// with a large k does real work per request, and enough catalog for the
/// standby IVF index the brownout path steps down to.
fn fixture(name: &str) -> (Arc<Dataset>, PathBuf) {
    let log = SyntheticConfig::yelp().generate(99);
    let ds = Arc::new(Dataset::chronological_split(
        "overload",
        &log,
        SplitRatios::default(),
    ));
    let cfg = LayerGcnConfig {
        embedding_dim: 16,
        n_layers: 2,
        ..LayerGcnConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(7);
    let mut model = LayerGcn::new(&ds, cfg, &mut rng);
    model.train_epoch(&ds, 0, &mut rng);
    model.train_epoch(&ds, 1, &mut rng);
    let dir = std::env::temp_dir().join("lrgcn_serve_overload");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join(format!("{name}.ckpt"));
    model.save(&ckpt).expect("save");
    (ds, ckpt)
}

fn start(name: &str, cfg: ServerConfig) -> ServerHandle {
    let (ds, ckpt) = fixture(name);
    let engine = Arc::new(
        Engine::open(
            &ckpt,
            ds,
            EngineOptions {
                n_layers: 2,
                ann_standby: true,
                ..EngineOptions::default()
            },
        )
        .expect("engine"),
    );
    serve(engine, cfg).expect("serve")
}

fn get(addr: SocketAddr, path: &str) -> chaos::ChaosResponse {
    chaos::request(addr, "GET", path, &[], b"", Duration::from_secs(10)).expect("clean request")
}

fn get_json(addr: SocketAddr, path: &str) -> Value {
    let resp = get(addr, path);
    json::parse(&resp.body)
        .unwrap_or_else(|e| panic!("bad JSON from {path}: {e}\n{}", resp.body))
}

fn u64_at(v: &Value, keys: &[&str]) -> u64 {
    let mut cur = v;
    for k in keys {
        cur = cur
            .get(k)
            .unwrap_or_else(|| panic!("missing {k} in {cur:?}"));
    }
    cur.as_f64().unwrap_or_else(|| panic!("non-number at {keys:?}")) as u64
}

/// The headline closed-loop test: ≥2× saturating load against a gate of
/// one compute slot. Covers shedding, Retry-After, no-resets, brownout
/// step-down/step-up, and post-recovery exact-path parity.
#[test]
fn overload_sheds_browns_out_and_recovers_cleanly() {
    let handle = start(
        "acceptance",
        ServerConfig {
            workers: 8,
            // Cache off so pre/post parity compares *recomputed* exact
            // rankings (the bitwise-identity contract), not a cache line.
            cache_capacity: 0,
            max_inflight: 1,
            max_queue: 4,
            slo_p99_ms: Some(250),
            brownout: true,
            brownout_up_ticks: 2,
            brownout_down_ticks: 2,
            brownout_tick: Duration::from_millis(25),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // Pre-overload baseline on the exact path, at level 0.
    let health = get_json(addr, "/healthz");
    assert_eq!(u64_at(&health, &["brownout_level"]), 0);
    assert_eq!(health.get("ann_standby"), Some(&Value::Bool(true)));
    let baseline = get(addr, "/recs/5?k=10");
    assert_eq!(baseline.status, 200);

    // 16 closed-loop clients vs one compute slot: ≥2× saturating by
    // construction. Each worker samples distinct users with a large k so
    // admitted requests do real scoring work.
    let stop = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..16u32 {
        let stop = stop.clone();
        clients.push(std::thread::spawn(move || {
            let (mut ok, mut shed, mut i) = (0u64, 0u64, 0u32);
            while !stop.load(Ordering::SeqCst) {
                i += 1;
                let user = (t * 131 + i) % 64;
                let started = Instant::now();
                let resp = chaos::request(
                    addr,
                    "GET",
                    &format!("/recs/{user}?k=600"),
                    &[],
                    b"",
                    Duration::from_secs(10),
                )
                .expect("overloaded server must answer, not reset");
                match resp.status {
                    200 => ok += 1,
                    503 => {
                        assert!(
                            resp.header("retry-after").is_some(),
                            "503 without Retry-After"
                        );
                        // A shed must be prompt: far under the 2s
                        // queue-wait ceiling, let alone a socket timeout.
                        assert!(
                            started.elapsed() < Duration::from_secs(2),
                            "shed took {:?}",
                            started.elapsed()
                        );
                        shed += 1;
                    }
                    other => panic!("unexpected status {other}: {}", resp.body),
                }
            }
            (ok, shed)
        }));
    }

    // While the storm runs, watch the (ungated) health endpoint: the
    // controller must step off the exact path within a few ticks.
    let mut max_level = 0;
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        let h = get_json(addr, "/healthz");
        max_level = max_level.max(u64_at(&h, &["brownout_level"]));
        if max_level >= 1 && deadline - Instant::now() < Duration::from_secs(3) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    stop.store(true, Ordering::SeqCst);
    let (mut total_ok, mut total_shed) = (0, 0);
    for c in clients {
        let (ok, shed) = c.join().expect("client panicked");
        total_ok += ok;
        total_shed += shed;
    }
    assert!(total_ok > 0, "goodput collapsed to zero under overload");
    assert!(
        total_shed > 0,
        "a 1-slot gate under 16 clients must shed ({total_ok} oks)"
    );
    assert!(
        max_level >= 1,
        "brownout never left level 0 under sustained saturation"
    );

    // Recovery: with load gone the controller must walk back to level 0
    // (down_ticks=2 per level, 25ms ticks — give it seconds, not ms).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let h = get_json(addr, "/healthz");
        if u64_at(&h, &["brownout_level"]) == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "brownout never recovered to 0");
        std::thread::sleep(Duration::from_millis(25));
    }

    // Post-recovery parity: the exact path recomputes the identical
    // response — brownout left no residue in the read configuration.
    let after = get(addr, "/recs/5?k=10");
    assert_eq!(after.status, 200);
    assert_eq!(after.body, baseline.body, "exact path drifted after brownout");

    // The controller's ledger is visible: sheds and both step directions
    // were counted (registry is process-global, so only assert nonzero).
    let obs = get_json(addr, "/admin/obs");
    assert!(u64_at(&obs, &["overload", "sheds"]) >= total_shed);
    assert!(u64_at(&obs, &["overload", "step_ups"]) >= 1);
    assert!(u64_at(&obs, &["overload", "step_downs"]) >= 1);
    assert_eq!(u64_at(&obs, &["overload", "max_inflight"]), 1);
    // Admitted latency stayed within the SLO: the 300s window saw every
    // admitted request of this test; its p99 must sit under 250ms.
    let p99 = obs
        .get("windows")
        .and_then(|w| w.get("300s"))
        .and_then(|w| w.get("p99_ms"))
        .and_then(Value::as_f64)
        .expect("300s p99");
    assert!(p99 < 250.0, "admitted p99 {p99}ms breached the 250ms SLO");

    handle.shutdown();
    handle.wait();
}

/// Deadlines under queue pressure: requests that spend their entire
/// `x-lrgcn-deadline-ms` budget waiting for a slot are dropped at dequeue
/// with 503 (+ Retry-After), and malformed deadlines are rejected with
/// 400 before touching the gate.
#[test]
fn queued_deadlines_expire_as_503_not_hangs() {
    let handle = start(
        "deadlines",
        ServerConfig {
            workers: 6,
            cache_capacity: 0,
            max_inflight: 1,
            max_queue: 8,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let before = u64_at(&get_json(addr, "/admin/obs"), &["overload", "deadline_exceeded"]);
    let mut clients = Vec::new();
    for t in 0..6u32 {
        clients.push(std::thread::spawn(move || {
            let mut expired = 0u64;
            for i in 0..60u32 {
                let resp = chaos::request(
                    addr,
                    "GET",
                    &format!("/recs/{}?k=600", (t * 7 + i) % 32),
                    &[("x-lrgcn-deadline-ms", "1")],
                    b"",
                    Duration::from_secs(10),
                )
                .expect("deadline requests must be answered");
                match resp.status {
                    200 => {}
                    503 => {
                        assert!(
                            resp.header("retry-after").is_some(),
                            "deadline 503 without Retry-After"
                        );
                        expired += 1;
                    }
                    other => panic!("unexpected status {other}: {}", resp.body),
                }
            }
            expired
        }));
    }
    let expired: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(
        expired > 0,
        "1ms budgets behind a 1-slot gate must expire in the queue"
    );
    let after = u64_at(&get_json(addr, "/admin/obs"), &["overload", "deadline_exceeded"]);
    assert!(after >= before + expired);

    // Malformed deadline: rejected before admission, not silently ignored.
    let resp = chaos::request(
        addr,
        "GET",
        "/recs/1?k=5",
        &[("x-lrgcn-deadline-ms", "soon")],
        b"",
        Duration::from_secs(10),
    )
    .expect("answered");
    assert_eq!(resp.status, 400);

    handle.shutdown();
    handle.wait();
}
