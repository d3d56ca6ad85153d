//! End-to-end acceptance for the serving observability middleware.
//!
//! The headline claim: rolling windows see what cumulative histograms
//! cannot. The test drives two traffic phases through one process — a fast
//! exact-read-path phase, then (after the 10s window has drained) a slow
//! ANN phase at full nprobe and k=1000 — and asserts the `/admin/obs` 10s
//! p50/p95 move by ≥2× while the *cumulative* `/metrics` histogram, still
//! dominated by the fast phase's samples, keeps reporting a fast median.
//!
//! Around that core it also asserts: request ids round-trip client →
//! response header → access-log line; served top-K stays byte-identical to
//! the offline evaluator with every observability feature armed; windowed
//! request/error counts in `/admin/obs` match the driven traffic; healthz
//! carries uptime and 60s rate; SLO burn gauges light up when the
//! configured target is violated.
//!
//! Everything lives in ONE `#[test]` because the window rings and the
//! registry are process-global: concurrent tests in the same binary would
//! pollute each other's windows. Keep this file single-test.

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_eval::top_k_indices;
use lrgcn_models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn_obs::json::{self, Value};
use lrgcn_serve::{chaos, serve, Engine, EngineOptions, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("lrgcn_obs_window_e2e");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Small, fast fixture: the exact read path answers these in well under a
/// bucket of the slow phase's latencies.
fn fast_fixture() -> (Arc<Dataset>, LayerGcn, PathBuf) {
    let log = SyntheticConfig::games().scaled(0.05).generate(99);
    let ds = Arc::new(Dataset::chronological_split(
        "obs_fast",
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
    let ckpt = tmp_dir().join("fast.ckpt");
    model.save(&ckpt).expect("save");
    model.refresh(&ds);
    (ds, model, ckpt)
}

/// Large-catalog fixture for the slow phase: full-nprobe IVF over 1411
/// items plus a k=1000 JSON render per request.
fn slow_fixture() -> (Arc<Dataset>, PathBuf) {
    let log = SyntheticConfig::yelp().generate(99);
    let ds = Arc::new(Dataset::chronological_split(
        "obs_slow",
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
    let ckpt = tmp_dir().join("slow.ckpt");
    model.save(&ckpt).expect("save");
    (ds, ckpt)
}

/// One GET on a connection of its own; the response headers come back too
/// (this test needs to see the `x-lrgcn-request-id` echo).
fn http_full(
    addr: SocketAddr,
    path: &str,
    extra_headers: &[(&str, &str)],
) -> (u16, HashMap<String, String>, String) {
    let resp = chaos::request(
        addr,
        "GET",
        path,
        extra_headers,
        b"",
        Duration::from_secs(30),
    )
    .unwrap_or_else(|e| panic!("GET {path}: {e}"));
    (resp.status, resp.headers, resp.body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let (status, _, body) = http_full(addr, path, &[]);
    (status, body)
}

fn get_json(addr: SocketAddr, path: &str) -> Value {
    let (status, body) = get(addr, path);
    assert_eq!(status, 200, "{path} failed: {body}");
    json::parse(&body).unwrap_or_else(|e| panic!("bad JSON from {path}: {e}\n{body}"))
}

fn f(v: &Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing {key:?} in {v:?}"));
    }
    cur.as_f64().unwrap_or_else(|| panic!("{path:?} not a number"))
}

/// Median from the *cumulative* `/metrics` request histogram: the smallest
/// `le` bound whose cumulative count reaches half the total.
fn cumulative_p50_ns(metrics: &str) -> f64 {
    let mut buckets: Vec<(f64, u64)> = metrics
        .lines()
        .filter_map(|l| l.strip_prefix("lrgcn_serve_request_ns_bucket{le=\""))
        .filter_map(|rest| {
            let (le, val) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, val.trim().parse().ok()?))
        })
        .collect();
    assert!(!buckets.is_empty(), "no request_ns buckets in /metrics");
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total = buckets.last().unwrap().1;
    assert!(total > 0, "empty cumulative request histogram");
    let half = total.div_ceil(2);
    buckets
        .iter()
        .find(|&&(_, cum)| cum >= half)
        .expect("median bucket")
        .0
}

/// The offline evaluator's top-K for one user: score, mask, rank.
fn offline_top_k(model: &LayerGcn, ds: &Dataset, user: u32, k: usize) -> Vec<u32> {
    let mut scores = model.score_users(ds, &[user]);
    let row = scores.row_mut(0);
    for &it in ds.train_items(user) {
        row[it as usize] = f32::NEG_INFINITY;
    }
    top_k_indices(row, k)
}

fn served_item_ids(v: &Value) -> Vec<u32> {
    let Some(Value::Arr(items)) = v.get("items") else {
        panic!("no items array in {v:?}");
    };
    items
        .iter()
        .map(|it| it.get("item").and_then(Value::as_f64).expect("item id") as u32)
        .collect()
}

#[test]
fn rolling_windows_expose_latency_shifts_cumulative_histograms_hide() {
    // ---- Phase 1: fast exact traffic, access log + permissive SLO armed.
    let access_log = tmp_dir().join("access.jsonl");
    std::fs::remove_file(&access_log).ok();
    let (ds, model, fast_ckpt) = fast_fixture();
    let engine = Arc::new(
        Engine::open(
            &fast_ckpt,
            ds.clone(),
            EngineOptions {
                n_layers: 2,
                ..EngineOptions::default()
            },
        )
        .expect("open fast"),
    );
    let handle = serve(
        engine,
        ServerConfig {
            access_log: Some(access_log.clone()),
            access_sample: 1,
            slo_p99_ms: Some(1_000), // generous: nothing in phase 1 is slow
            slo_err_ppm: Some(500_000),
            ..ServerConfig::default()
        },
    )
    .expect("serve fast");
    let addr = handle.addr();

    // Parity stays byte-identical with every observability feature armed.
    for u in (0..ds.n_users() as u32).step_by(11).take(6) {
        let v = get_json(addr, &format!("/recs/{u}?k=20"));
        assert_eq!(
            served_item_ids(&v),
            offline_top_k(&model, &ds, u, 20),
            "observability middleware changed the served ranking for user {u}"
        );
    }

    // A request id round-trips: client header → response echo → log line.
    let my_id = "e2e-roundtrip.0042";
    let (status, headers, _) = http_full(
        addr,
        "/recs/1?k=5",
        &[("X-LRGCN-Request-Id", my_id)],
    );
    assert_eq!(status, 200);
    assert_eq!(
        headers.get("x-lrgcn-request-id").map(String::as_str),
        Some(my_id),
        "inbound request id was not echoed"
    );
    // Server-minted ids appear when the client sends none (or junk).
    let (_, headers, _) = http_full(addr, "/recs/2?k=5", &[]);
    let minted = headers.get("x-lrgcn-request-id").expect("minted id");
    assert!(minted.contains('-') && !minted.is_empty());
    let (_, headers, _) = http_full(addr, "/recs/2?k=5", &[("X-LRGCN-Request-Id", "bad id!")]);
    assert_ne!(
        headers.get("x-lrgcn-request-id").map(String::as_str),
        Some("bad id!"),
        "malformed inbound id must be replaced, not echoed"
    );

    // Fast traffic: 300 k=5 requests over a handful of users (cache hits
    // keep them honest-fast, which is the point of the phase).
    const FAST_N: usize = 300;
    for i in 0..FAST_N {
        let (status, _) = get(addr, &format!("/recs/{}?k=5", i % 20));
        assert_eq!(status, 200);
    }
    // A few deliberate 404s so the error accounting has something to count.
    const ERR_N: usize = 5;
    for _ in 0..ERR_N {
        let (status, _) = get(addr, "/recs/999999?k=5");
        assert_eq!(status, 404);
    }

    let obs = get_json(addr, "/admin/obs");
    assert_eq!(obs.get("read_path").and_then(Value::as_str), Some("exact"));
    // Driven counts are all inside the 300s window (the phase takes
    // seconds): ≥ what we sent, ≤ that plus this test's few extras.
    let w300_req = f(&obs, &["windows", "300s", "requests"]);
    assert!(
        (w300_req as usize) >= FAST_N + ERR_N,
        "300s window lost requests: {w300_req} < {}",
        FAST_N + ERR_N
    );
    assert!(
        (w300_req as usize) <= FAST_N + ERR_N + 20,
        "300s window overcounts: {w300_req}"
    );
    let w300_err = f(&obs, &["windows", "300s", "errors"]);
    assert_eq!(w300_err as usize, ERR_N, "error count mismatch");
    let fast_p50 = f(&obs, &["windows", "10s", "p50_ms"]);
    let fast_p95 = f(&obs, &["windows", "10s", "p95_ms"]);
    assert!(fast_p50 > 0.0 && fast_p95 >= fast_p50);
    // Nothing violated the 1000ms target: latency burn is zero.
    assert_eq!(f(&obs, &["slo", "burn_latency_10s"]), 0.0);
    // The per-route breakdown sees recs traffic on the exact path.
    let recs_req = f(&obs, &["windows", "300s", "routes", "recs", "requests"]);
    assert!(recs_req as usize >= FAST_N);
    let exact_reads = f(&obs, &["windows", "300s", "read_paths", "exact"]);
    assert!(exact_reads as usize >= FAST_N);

    // healthz carries uptime and the windowed 60s rate.
    let hz = get_json(addr, "/healthz");
    assert!(f(&hz, &["uptime_s"]) >= 0.0);
    assert!(f(&hz, &["rate_60s"]) > 0.0, "60s rate empty after traffic");
    assert!(f(&hz, &["error_ratio_60s"]) > 0.0, "60s errors not in healthz");

    handle.shutdown();
    handle.wait();

    // The access log holds the round-tripped id, as valid JSONL.
    let log_text = std::fs::read_to_string(&access_log).expect("access log");
    let line = log_text
        .lines()
        .find(|l| l.contains(my_id))
        .expect("round-tripped id missing from access log");
    let rec = json::parse(line).expect("access log line is JSON");
    assert_eq!(rec.get("id").and_then(Value::as_str), Some(my_id));
    assert_eq!(rec.get("route").and_then(Value::as_str), Some("recs"));
    assert_eq!(rec.get("status").and_then(Value::as_f64), Some(200.0));
    assert!(f(&rec, &["latency_ns"]) > 0.0);
    // Sampling at 1 logs everything driven above.
    assert!(log_text.lines().count() >= FAST_N + ERR_N);

    // ---- Drain: let the fast phase leave the 10s window entirely.
    std::thread::sleep(Duration::from_secs(11));

    // ---- Phase 2: slow ANN traffic — full nprobe over the 1411-item
    // catalog, k=1000 responses, no cache — with a 0ms SLO that everything
    // violates (these requests take 0.5-1 ms on a warm worker, so a 1ms
    // target is a coin toss).
    let (slow_ds, slow_ckpt) = slow_fixture();
    let engine = Arc::new(
        Engine::open(
            &slow_ckpt,
            slow_ds.clone(),
            EngineOptions {
                n_layers: 2,
                ann: true,
                ann_cells: 0, // auto ≈ 38
                nprobe: 64,   // clamped to every cell: maximum work
                ..EngineOptions::default()
            },
        )
        .expect("open slow"),
    );
    let handle = serve(
        engine,
        ServerConfig {
            cache_capacity: 0, // every request pays the full read path
            slo_p99_ms: Some(0),
            slo_err_ppm: Some(1_000),
            ..ServerConfig::default()
        },
    )
    .expect("serve slow");
    let addr = handle.addr();

    const SLOW_N: usize = 40;
    for i in 0..SLOW_N {
        let (status, body) = get(
            addr,
            &format!("/recs/{}?k=1000&exclude_seen=false", i % 25),
        );
        assert_eq!(status, 200, "{body}");
    }

    let obs = get_json(addr, "/admin/obs");
    assert_eq!(obs.get("read_path").and_then(Value::as_str), Some("ann"));
    let slow_p50 = f(&obs, &["windows", "10s", "p50_ms"]);
    let slow_p95 = f(&obs, &["windows", "10s", "p95_ms"]);

    // The windowed quantiles moved: the 10s view is all slow-phase.
    assert!(
        slow_p50 >= 2.0 * fast_p50,
        "10s p50 did not move: fast {fast_p50}ms vs slow {slow_p50}ms"
    );
    assert!(
        slow_p95 >= 2.0 * fast_p95,
        "10s p95 did not move: fast {fast_p95}ms vs slow {slow_p95}ms"
    );

    // The cumulative histogram — shared across the whole process and still
    // dominated by the 300 fast samples — cannot see the shift: its median
    // stays in the fast phase's range, under half the windowed median.
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let cum_p50_ms = cumulative_p50_ns(&metrics) / 1e6;
    assert!(
        cum_p50_ms <= slow_p50 / 2.0,
        "cumulative p50 {cum_p50_ms}ms moved with the slow phase (w10 p50 \
         {slow_p50}ms) — did the fast phase's samples disappear?"
    );

    // Everything violated the 0ms target: latency burn saturates well past
    // the burn=1 budget line in both the 10s and 60s windows.
    assert!(
        f(&obs, &["slo", "burn_latency_10s"]) > 1.0,
        "slow traffic must burn the 0ms latency SLO"
    );
    assert!(f(&obs, &["slo", "burn_latency_60s"]) > 1.0);
    let ann_reads = f(&obs, &["windows", "10s", "read_paths", "ann"]);
    assert!(ann_reads as usize >= SLOW_N);

    handle.shutdown();
    handle.wait();
    std::fs::remove_file(fast_ckpt).ok();
    std::fs::remove_file(slow_ckpt).ok();
    std::fs::remove_file(access_log).ok();
}
