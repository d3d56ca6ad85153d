//! End-to-end serving test: train → checkpoint → HTTP server → parity.
//!
//! The headline assertion is **serving parity**: `GET /recs/{u}` must
//! return exactly the item ids the offline evaluator would rank top-K for
//! that user — byte-identical scores, same masking, same tie-break — and
//! must keep doing so when `LRGCN_THREADS` changes (the parallel layer's
//! bitwise-identity contract). The rest of the suite covers the health,
//! metrics, error, micro-batch and hot-reload surfaces over a real socket.

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_eval::top_k_indices;
use lrgcn_models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn_obs::json::{self, Value};
use lrgcn_serve::{chaos, serve, Engine, EngineOptions, ServerConfig};
use lrgcn_tensor::par;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Trains a small LayerGCN for 2 epochs and checkpoints it.
fn fixture(name: &str) -> (Arc<Dataset>, LayerGcn, PathBuf) {
    let log = SyntheticConfig::games().scaled(0.05).generate(99);
    let ds = Arc::new(Dataset::chronological_split(
        "e2e",
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
    let dir = std::env::temp_dir().join("lrgcn_serve_e2e");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join(format!("{name}.ckpt"));
    model.save(&ckpt).expect("save");
    model.refresh(&ds);
    (ds, model, ckpt)
}

/// A larger catalog for the ANN tests: recall@20 on the default fixture's
/// ~33 items would be trivially saturated (top-20 is most of the catalog),
/// so the IVF tests train on the yelp preset (1411 items) where sub-linear
/// probing actually discards most of the catalog per query. `epochs`
/// matters for recall: early in training the embeddings are near-random
/// and their inner-product neighborhoods have little cluster structure for
/// the coarse quantizer to exploit (after 4 epochs, nprobe=12 of the 38
/// auto cells measures ~0.98 recall@20; 1-epoch embeddings need most of
/// the cells for the same recall).
fn ann_fixture(name: &str, epochs: usize) -> (Arc<Dataset>, PathBuf) {
    let log = SyntheticConfig::yelp().generate(99);
    let ds = Arc::new(Dataset::chronological_split(
        "e2e_ann",
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
    for epoch in 0..epochs {
        model.train_epoch(&ds, epoch, &mut rng);
    }
    let dir = std::env::temp_dir().join("lrgcn_serve_e2e");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join(format!("{name}.ckpt"));
    model.save(&ckpt).expect("save");
    (ds, ckpt)
}

fn engine_opts() -> EngineOptions {
    EngineOptions {
        n_layers: 2,
        ..EngineOptions::default()
    }
}

/// One request on a connection of its own, returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let body = body.unwrap_or("").as_bytes();
    let resp = chaos::request(addr, method, path, &[], body, Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    (resp.status, resp.body)
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Value) {
    let (status, body) = http(addr, "GET", path, None);
    let v = json::parse(&body).unwrap_or_else(|e| panic!("bad JSON from {path}: {e}\n{body}"));
    (status, v)
}

/// Item ids from a /recs or /similar response body.
fn item_ids(v: &Value) -> Vec<u32> {
    let Some(Value::Arr(items)) = v.get("items") else {
        panic!("no items array in {v:?}");
    };
    items
        .iter()
        .map(|it| it.get("item").and_then(Value::as_f64).expect("item id") as u32)
        .collect()
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

#[test]
fn served_recs_match_offline_evaluator_across_thread_counts() {
    let (ds, model, ckpt) = fixture("parity");
    let engine = Arc::new(Engine::open(&ckpt, ds.clone(), engine_opts()).expect("open"));
    let handle = serve(engine, ServerConfig::default()).expect("serve");
    let addr = handle.addr();

    let users: Vec<u32> = (0..ds.n_users() as u32).step_by(7).take(8).collect();
    for threads in [1usize, 4] {
        par::set_threads(threads);
        for &u in &users {
            let expect = offline_top_k(&model, &ds, u, 20);
            let (status, v) = get_json(addr, &format!("/recs/{u}?k=20"));
            assert_eq!(status, 200, "user {u} at {threads} threads");
            assert_eq!(
                item_ids(&v),
                expect,
                "served top-20 diverged from the offline evaluator for user {u} at {threads} threads"
            );
        }
    }

    // The masked items really are the user's training items.
    let u = users[0];
    let (_, v) = get_json(addr, &format!("/recs/{u}?k={}", ds.n_items()));
    for it in item_ids(&v) {
        assert!(
            !ds.train_items(u).contains(&it),
            "seen item {it} leaked into /recs"
        );
    }
    // exclude_seen=false ranks the full catalogue.
    let (_, v) = get_json(addr, &format!("/recs/{u}?k={}&exclude_seen=false", ds.n_items()));
    assert_eq!(item_ids(&v).len(), ds.n_items());

    handle.shutdown();
    handle.wait();
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn health_metrics_cache_errors_and_scoring() {
    let (ds, model, ckpt) = fixture("surface");
    let engine = Arc::new(Engine::open(&ckpt, ds.clone(), engine_opts()).expect("open"));
    let st = engine.state();
    let handle = serve(engine, ServerConfig::default()).expect("serve");
    let addr = handle.addr();

    // /healthz
    let (status, v) = get_json(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(v.get("tag").and_then(Value::as_str), Some("layergcn"));
    assert_eq!(v.get("generation").and_then(Value::as_f64), Some(0.0));
    assert_eq!(
        v.get("n_users").and_then(Value::as_f64),
        Some(ds.n_users() as f64)
    );
    // LayerGCN's readout drops the ego layer: exactly the items with a
    // training edge have a live (not all-zero) row.
    let with_edges = (0..ds.n_items() as u32)
        .filter(|&i| (0..ds.n_users() as u32).any(|u| ds.is_train_interaction(u, i)))
        .count();
    assert!(
        with_edges < ds.n_items(),
        "the fixture should have cold items"
    );
    assert_eq!(
        v.get("live_items").and_then(Value::as_f64),
        Some(with_edges as f64)
    );

    // Cache: second identical request is a hit.
    let (_, first) = get_json(addr, "/recs/3?k=5");
    assert_eq!(first.get("cached"), Some(&Value::Bool(false)));
    let (_, second) = get_json(addr, "/recs/3?k=5");
    assert_eq!(second.get("cached"), Some(&Value::Bool(true)));
    assert_eq!(item_ids(&first), item_ids(&second));

    // /similar
    let (status, v) = get_json(addr, "/similar/2?k=5");
    assert_eq!(status, 200);
    assert_eq!(item_ids(&v).len(), 5);
    assert!(!item_ids(&v).contains(&2), "query item in its own neighbours");

    // /score equals direct dot products from the model's final embeddings.
    let (status, body) = {
        let (s, b) = http(addr, "POST", "/score", Some("{\"pairs\": [[0, 1], [2, 3]]}"));
        (s, json::parse(&b).expect("score JSON"))
    };
    assert_eq!(status, 200);
    let Some(Value::Arr(scores)) = body.get("scores") else {
        panic!("no scores in {body:?}");
    };
    let all = model.score_users(&ds, &[0, 2]);
    let got: Vec<f32> = scores.iter().map(|s| s.as_f64().unwrap() as f32).collect();
    assert_eq!(got, vec![all[(0, 1)], all[(1, 3)]]);

    // Error surfaces: 400 on malformed input, 404 on unknown things.
    assert_eq!(http(addr, "GET", "/recs/notanumber", None).0, 400);
    assert_eq!(http(addr, "GET", "/recs/0?k=0", None).0, 400);
    assert_eq!(http(addr, "GET", "/recs/0?k=5&exclude_seen=maybe", None).0, 400);
    assert_eq!(http(addr, "POST", "/score", Some("not json")).0, 400);
    assert_eq!(http(addr, "POST", "/score", Some("{\"pairs\": []}")).0, 400);
    assert_eq!(
        http(addr, "POST", "/score", Some("{\"pairs\": [[0, 999999]]}")).0,
        400
    );
    assert_eq!(http(addr, "GET", "/nope", None).0, 404);
    assert_eq!(http(addr, "GET", "/recs/999999?k=5", None).0, 404);
    assert_eq!(http(addr, "GET", &format!("/similar/{}", ds.n_items()), None).0, 404);
    assert_eq!(http(addr, "PUT", "/recs/0", None).0, 405);

    // /metrics is Prometheus text exposing the serve instrumentation.
    let (status, text) = http(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    for metric in [
        "lrgcn_serve_http_requests_total",
        "lrgcn_serve_http_errors_total",
        "lrgcn_serve_cache_hits_total",
        "lrgcn_serve_score_batches_total",
        "lrgcn_serve_request_ns_count",
        "lrgcn_serve_score_batch_ns_sum",
    ] {
        assert!(text.contains(metric), "missing {metric} in /metrics");
    }
    let hits: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("lrgcn_serve_cache_hits_total "))
        .expect("cache hits line")
        .parse()
        .expect("numeric");
    assert!(hits >= 1, "cache hit above was not counted");

    // st (an old snapshot) is still usable after all of the above.
    assert_eq!(st.generation, 0);
    handle.shutdown();
    handle.wait();
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn quant_read_path_keeps_recall_and_reports_health() {
    let (ds, _model, ckpt) = fixture("quant");
    let exact = Engine::open(&ckpt, ds.clone(), engine_opts()).expect("open exact");
    let quant = Engine::open(
        &ckpt,
        ds.clone(),
        EngineOptions {
            quant: true,
            ..engine_opts()
        },
    )
    .expect("open quant");
    let est = exact.state();
    let qst = quant.state();

    // The build-time guardrail itself must clear the acceptance bar.
    assert!(
        qst.quant_recall >= 0.99,
        "build-time quant recall {} < 0.99",
        qst.quant_recall
    );

    // And so must a direct measurement over a fresh user sample: the
    // two-stage quantized top-20 vs the exact f32 top-20.
    let users: Vec<u32> = (0..ds.n_users() as u32).step_by(50).take(40).collect();
    let mut total = 0.0;
    for &u in &users {
        let e: Vec<u32> = est
            .top_k(&ds, u, 20, true)
            .expect("exact top_k")
            .iter()
            .map(|&(i, _)| i)
            .collect();
        let q: Vec<u32> = qst
            .top_k(&ds, u, 20, true)
            .expect("quant top_k")
            .iter()
            .map(|&(i, _)| i)
            .collect();
        total += lrgcn_eval::overlap_fraction(&q, &e);
    }
    let recall = total / users.len() as f64;
    assert!(recall >= 0.99, "measured quant recall@20 {recall} < 0.99");

    // The quant engine over HTTP: health reports the mode and the gauge,
    // requests succeed, and the quant counters tick.
    let handle = serve(Arc::new(quant), ServerConfig::default()).expect("serve");
    let addr = handle.addr();
    let (status, v) = get_json(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(v.get("quant"), Some(&Value::Bool(true)));
    let ppm = v.get("quant_recall_ppm").and_then(Value::as_f64).expect("ppm");
    assert!(ppm >= 990_000.0, "healthz recall {ppm} ppm < 990000");
    let (status, v) = get_json(addr, "/recs/0?k=20");
    assert_eq!(status, 200);
    assert!(!item_ids(&v).is_empty());
    let (status, v) = get_json(addr, "/similar/1?k=10");
    assert_eq!(status, 200);
    assert!(!item_ids(&v).contains(&1));
    let (_, text) = http(addr, "GET", "/metrics", None);
    let scans: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("lrgcn_serve_quant_scans_total "))
        .expect("quant scans line")
        .parse()
        .expect("numeric");
    assert!(scans >= 2, "quant scans not counted: {scans}");
    assert!(
        text.contains("lrgcn_serve_quant_recall_ppm "),
        "recall gauge missing from /metrics"
    );
    handle.shutdown();
    handle.wait();
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn ann_read_path_recall_determinism_and_health() {
    let (ds, ckpt) = ann_fixture("ann", 4);
    let exact = Engine::open(&ckpt, ds.clone(), engine_opts()).expect("open exact");
    let ann_opts = EngineOptions {
        ann: true,
        ann_cells: 0, // auto: √1411 ≈ 38
        nprobe: 12,
        ..engine_opts()
    };
    let ann = Engine::open(&ckpt, ds.clone(), ann_opts.clone()).expect("open ann");
    let est = exact.state();
    let ast = ann.state();
    assert!(ast.ann_enabled());
    assert_eq!(ast.ann_cells(), 38);
    assert_eq!(ast.ann_nprobe(), 12);

    // Build-time guardrail and a direct measurement over a fresh user
    // sample must both clear the acceptance floor.
    assert!(
        ast.ann_recall >= 0.95,
        "build-time ann recall {} < 0.95",
        ast.ann_recall
    );
    let users: Vec<u32> = (0..ds.n_users() as u32).step_by(50).take(40).collect();
    let mut total = 0.0;
    for &u in &users {
        let e: Vec<u32> = est
            .top_k(&ds, u, 20, true)
            .expect("exact top_k")
            .iter()
            .map(|&(i, _)| i)
            .collect();
        let a: Vec<u32> = ast
            .top_k(&ds, u, 20, true)
            .expect("ann top_k")
            .iter()
            .map(|&(i, _)| i)
            .collect();
        total += lrgcn_eval::overlap_fraction(&a, &e);
    }
    let recall = total / users.len() as f64;
    assert!(recall >= 0.95, "measured ann recall@20 {recall} < 0.95");

    // Determinism: engines built at LRGCN_THREADS=1 and 4 must serve
    // identical results — same items, bitwise-equal scores.
    par::set_threads(1);
    let eng1 = Engine::open(&ckpt, ds.clone(), ann_opts.clone()).expect("open t1");
    par::set_threads(4);
    let eng4 = Engine::open(&ckpt, ds.clone(), ann_opts.clone()).expect("open t4");
    let (st1, st4) = (eng1.state(), eng4.state());
    for &u in &users {
        let a = st1.top_k(&ds, u, 20, true).expect("t1");
        let b = st4.top_k(&ds, u, 20, true).expect("t4");
        assert_eq!(a.len(), b.len(), "user {u}: lengths diverged across threads");
        for ((ia, sa), (ib, sb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib, "user {u}: items diverged across thread counts");
            assert_eq!(
                sa.to_bits(),
                sb.to_bits(),
                "user {u}: scores not bitwise equal across thread counts"
            );
        }
    }

    // ANN composed with quant, over HTTP: health reports both modes, the
    // gauge and counters tick, and the read paths answer.
    let both = Engine::open(
        &ckpt,
        ds.clone(),
        EngineOptions {
            quant: true,
            ..ann_opts
        },
    )
    .expect("open ann+quant");
    let handle = serve(Arc::new(both), ServerConfig::default()).expect("serve");
    let addr = handle.addr();
    let (status, v) = get_json(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(v.get("ann"), Some(&Value::Bool(true)));
    assert_eq!(v.get("quant"), Some(&Value::Bool(true)));
    assert_eq!(v.get("ann_cells").and_then(Value::as_f64), Some(38.0));
    assert_eq!(v.get("ann_nprobe").and_then(Value::as_f64), Some(12.0));
    let ppm = v.get("ann_recall_ppm").and_then(Value::as_f64).expect("ppm");
    assert!(ppm >= 950_000.0, "healthz ann recall {ppm} ppm < 950000");
    let (status, v) = get_json(addr, "/recs/0?k=20");
    assert_eq!(status, 200);
    assert!(!item_ids(&v).is_empty());
    let (status, v) = get_json(addr, "/similar/1?k=10");
    assert_eq!(status, 200);
    assert!(!item_ids(&v).contains(&1));
    let (_, text) = http(addr, "GET", "/metrics", None);
    let probed: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("lrgcn_serve_ann_cells_probed_total "))
        .expect("cells probed line")
        .parse()
        .expect("numeric");
    assert!(probed >= 12, "ann cells probed not counted: {probed}");
    let cands: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("lrgcn_serve_ann_candidates_total "))
        .expect("candidates line")
        .parse()
        .expect("numeric");
    assert!(cands > 0, "ann candidates not counted");
    assert!(
        text.contains("lrgcn_serve_ann_recall_ppm "),
        "ann recall gauge missing from /metrics"
    );
    handle.shutdown();
    handle.wait();
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn ann_quant_hot_reload_under_concurrent_load_fails_nothing() {
    let (ds, ckpt) = ann_fixture("ann_reload", 1);
    let engine = Arc::new(
        Engine::open(
            &ckpt,
            ds.clone(),
            EngineOptions {
                ann: true,
                quant: true,
                ann_cells: 16,
                nprobe: 8,
                ..engine_opts()
            },
        )
        .expect("open"),
    );
    let handle = serve(
        engine,
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();

    // 4 hammer threads × 30 requests against the ANN read paths while the
    // main thread rebuilds the index 3 times via /admin/reload.
    let clients: Vec<_> = (0..4u32)
        .map(|c| {
            std::thread::spawn(move || {
                let mut statuses = Vec::new();
                for i in 0..30u32 {
                    let (status, _) = if i % 3 == 0 {
                        http(addr, "GET", &format!("/similar/{}?k=10", (c + i) % 10), None)
                    } else {
                        http(addr, "GET", &format!("/recs/{}?k=10", (c * 5 + i) % 20), None)
                    };
                    statuses.push(status);
                }
                statuses
            })
        })
        .collect();

    let mut generation = 0;
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(10));
        let (status, v) = {
            let (s, b) = http(addr, "POST", "/admin/reload", None);
            (s, json::parse(&b).expect("reload JSON"))
        };
        assert_eq!(status, 200, "reload failed: {v:?}");
        generation = v.get("generation").and_then(Value::as_f64).expect("gen") as u64;
    }
    assert_eq!(generation, 3);

    for c in clients {
        let statuses = c.join().expect("client join");
        assert!(
            statuses.iter().all(|&s| s == 200),
            "requests failed during ANN hot reload: {statuses:?}"
        );
    }

    // The rebuilt index answers exactly like a fresh engine on the same
    // checkpoint — the deterministic build makes reloads idempotent.
    let (_, v) = get_json(addr, "/recs/1?k=10");
    assert_eq!(v.get("generation").and_then(Value::as_f64), Some(3.0));
    let engine2 = Engine::open(
        &ckpt,
        ds,
        EngineOptions {
            ann: true,
            quant: true,
            ann_cells: 16,
            nprobe: 8,
            ..engine_opts()
        },
    )
    .expect("reopen");
    let fresh = engine2
        .state()
        .top_k(engine2.dataset(), 1, 10, true)
        .expect("top_k");
    assert_eq!(
        item_ids(&v),
        fresh.iter().map(|&(it, _)| it).collect::<Vec<_>>(),
        "reload changed ANN answers although the checkpoint did not change"
    );

    let (status, _) = http(addr, "POST", "/admin/shutdown", None);
    assert_eq!(status, 200);
    handle.wait();
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn hot_reload_under_concurrent_load_fails_nothing() {
    let (ds, _model, ckpt) = fixture("reload");
    let engine = Arc::new(Engine::open(&ckpt, ds.clone(), engine_opts()).expect("open"));
    let handle = serve(
        engine,
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();

    // 4 hammer threads × 30 requests, mixing cached recs and batched
    // scoring, while the main thread swaps the checkpoint 3 times.
    let clients: Vec<_> = (0..4u32)
        .map(|c| {
            std::thread::spawn(move || {
                let mut statuses = Vec::new();
                for i in 0..30u32 {
                    let (status, _) = if i % 3 == 0 {
                        http(addr, "POST", "/score", Some("{\"pairs\": [[1, 1], [2, 2]]}"))
                    } else {
                        http(addr, "GET", &format!("/recs/{}?k=10", (c * 5 + i) % 20), None)
                    };
                    statuses.push(status);
                }
                statuses
            })
        })
        .collect();

    let mut generation = 0;
    for _ in 0..3 {
        std::thread::sleep(Duration::from_millis(10));
        let (status, v) = {
            let (s, b) = http(addr, "POST", "/admin/reload", None);
            (s, json::parse(&b).expect("reload JSON"))
        };
        assert_eq!(status, 200, "reload failed: {v:?}");
        generation = v.get("generation").and_then(Value::as_f64).expect("gen") as u64;
    }
    assert_eq!(generation, 3);

    for c in clients {
        let statuses = c.join().expect("client join");
        assert!(
            statuses.iter().all(|&s| s == 200),
            "requests failed during hot reload: {statuses:?}"
        );
    }

    // Post-reload answers match pre-reload answers (same file on disk).
    let (_, v) = get_json(addr, "/recs/1?k=10");
    assert_eq!(v.get("generation").and_then(Value::as_f64), Some(3.0));
    let engine2 = Engine::open(&ckpt, ds, engine_opts()).expect("reopen");
    let fresh = engine2
        .state()
        .top_k(engine2.dataset(), 1, 10, true)
        .expect("top_k");
    assert_eq!(
        item_ids(&v),
        fresh.iter().map(|&(it, _)| it).collect::<Vec<_>>(),
        "reload changed answers although the checkpoint did not change"
    );

    // Graceful shutdown over HTTP: drain, then workers exit.
    let (status, _) = http(addr, "POST", "/admin/shutdown", None);
    assert_eq!(status, 200);
    assert!(handle.is_shutting_down());
    handle.wait();
    std::fs::remove_file(ckpt).ok();
}
