//! Tier-1 guard for the streaming ingestion loop (DESIGN.md §13): events
//! POSTed to a serving engine must (1) become immediately servable fold-in
//! recommendations that are bitwise identical at any thread count, (2)
//! survive a torn log tail — no acknowledged event is ever lost, and (3)
//! close the loop: a warm-start retrain emits a covered generation that
//! hot-reloads under concurrent load with zero non-200 responses.

use lrgcn::models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn::prelude::*;
use lrgcn_serve::{chaos, serve, Engine, EngineOptions, Scratch, ServerConfig};
use lrgcn_stream::{pack_covered, EventLog, StreamEvent, COVERED_ENTRY};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One request on a connection of its own: (status, echoed request id, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let resp = chaos::request(
        addr,
        method,
        path,
        &[("x-lrgcn-request-id", "loop-test-1")],
        body.as_bytes(),
        Duration::from_secs(10),
    )
    .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    let id = resp.header("x-lrgcn-request-id").unwrap_or("").to_string();
    (resp.status, id, resp.body)
}

/// Fixture: a trained LayerGCN checkpoint over the games-like preset.
fn fixture(tag: &str, epochs: usize) -> (Arc<Dataset>, LayerGcn, std::path::PathBuf) {
    let log = SyntheticConfig::games().scaled(0.15).generate(41);
    let ds = Arc::new(Dataset::chronological_split(
        tag,
        &log,
        SplitRatios::default(),
    ));
    let cfg = LayerGcnConfig {
        embedding_dim: 16,
        n_layers: 2,
        ..LayerGcnConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(17);
    let mut model = LayerGcn::new(&ds, cfg, &mut rng);
    for e in 0..epochs {
        model.train_epoch(&ds, e, &mut rng);
    }
    let dir = std::env::temp_dir().join(format!("lrgcn_root_stream_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("model.ckpt");
    model.save(&ckpt).expect("save");
    (ds, model, ckpt)
}

fn ev(user: u32, item: u32, seq: u64) -> StreamEvent {
    StreamEvent {
        user,
        item,
        timestamp: 1_700_000_000 + seq as i64,
        client: "loop".into(),
        seq,
        request_id: String::new(),
    }
}

fn opts(events_dir: &Path) -> EngineOptions {
    EngineOptions {
        n_layers: 2,
        events_dir: Some(events_dir.to_path_buf()),
        ..EngineOptions::default()
    }
}

/// Acceptance: fold-in serves unseen users a sane top-K, bitwise identical
/// across LRGCN_THREADS 1 and 4.
#[test]
fn fold_in_top_k_is_bitwise_thread_invariant() {
    let (ds, _, ckpt) = fixture("threads", 2);
    let events_dir = ckpt.parent().unwrap().join("events");
    let new_user = ds.n_users() as u32;
    let new_item = ds.n_items() as u32;
    let events: Vec<StreamEvent> = vec![
        ev(new_user, 3, 1),
        ev(new_user, 9, 2),
        ev(new_user + 1, new_item, 3),
        ev(new_user + 1, 5, 4),
        ev(0, new_item, 5),
    ];
    EventLog::open(&events_dir)
        .expect("open log")
        .append_batch(&events)
        .expect("append");

    let users = [new_user, new_user + 1, 0, 7];
    let answers: Vec<Vec<Vec<(u32, u32)>>> = [1usize, 4]
        .iter()
        .map(|&threads| {
            lrgcn::tensor::par::set_threads(threads);
            let eng = Engine::open(&ckpt, ds.clone(), opts(&events_dir)).expect("open");
            let st = eng.state();
            let delta = st.delta();
            assert_eq!(delta.events_applied(), events.len() as u64);
            let mut scratch = Scratch::default();
            users
                .iter()
                .map(|&u| {
                    let top = st
                        .top_k_stream(&delta, u, 10, true, &mut scratch)
                        .expect("top_k_stream");
                    assert!(!top.is_empty(), "user {u} got an empty top-K");
                    assert!(top.iter().all(|(_, s)| s.is_finite()));
                    assert!(
                        top.windows(2).all(|w| w[0].1 >= w[1].1),
                        "user {u}: scores not sorted"
                    );
                    // Bit-exact comparison: scores as raw u32 bits.
                    top.iter().map(|&(i, s)| (i, s.to_bits())).collect()
                })
                .collect()
        })
        .collect();
    lrgcn::tensor::par::set_threads(1);
    assert_eq!(
        answers[0], answers[1],
        "fold-in top-K diverged between 1 and 4 threads"
    );
    // The streamed user's own events are masked out with exclude_seen.
    let first: &Vec<(u32, u32)> = &answers[0][0];
    assert!(first.iter().all(|&(i, _)| i != 3 && i != 9));
}

/// Acceptance: a torn tail (crash mid-frame past the acked records) is
/// truncated on recovery and the replayed fold-in state is bitwise the
/// pre-crash state — no acknowledged event is ever lost.
#[test]
fn torn_log_tail_recovers_to_the_acked_fold_in_state() {
    let (ds, _, ckpt) = fixture("torn", 2);
    let events_dir = ckpt.parent().unwrap().join("events");
    let new_user = ds.n_users() as u32;
    let events: Vec<StreamEvent> = (0..20)
        .map(|i| ev(new_user + (i % 3), (i * 7) % ds.n_items() as u32, i as u64 + 1))
        .collect();
    EventLog::open(&events_dir)
        .expect("open log")
        .append_batch(&events)
        .expect("append");

    let reference: Vec<Vec<(u32, u32)>> = {
        let eng = Engine::open(&ckpt, ds.clone(), opts(&events_dir)).expect("open");
        let st = eng.state();
        let delta = st.delta();
        let mut scratch = Scratch::default();
        (0..3)
            .map(|o| {
                st.top_k_stream(&delta, new_user + o, 10, true, &mut scratch)
                    .expect("top_k")
                    .iter()
                    .map(|&(i, s)| (i, s.to_bits()))
                    .collect()
            })
            .collect()
    };

    // Crash mid-write: a torn half-frame lands after the acked records.
    let seg = std::fs::read_dir(&events_dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .max()
        .expect("a segment exists");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&seg)
        .expect("open segment");
    f.write_all(&[0x2a, 0x00, 0x00, 0x00, 0xde, 0xad]).expect("tear");
    drop(f);

    // Recovery: replay sees exactly the acked events, and the rebuilt
    // fold-in state matches the pre-crash rankings bit for bit.
    let replayed = EventLog::replay(&events_dir).expect("replay after tear");
    assert_eq!(replayed, events, "acked events lost or reordered");
    let eng = Engine::open(&ckpt, ds.clone(), opts(&events_dir)).expect("reopen");
    let st = eng.state();
    let delta = st.delta();
    assert_eq!(delta.events_applied(), events.len() as u64);
    let mut scratch = Scratch::default();
    for (o, want) in reference.iter().enumerate() {
        let got: Vec<(u32, u32)> = st
            .top_k_stream(&delta, new_user + o as u32, 10, true, &mut scratch)
            .expect("top_k")
            .iter()
            .map(|&(i, s)| (i, s.to_bits()))
            .collect();
        assert_eq!(&got, want, "user offset {o} diverged after recovery");
    }
    // And the log is writable again: the next append is acknowledged.
    EventLog::open(&events_dir)
        .expect("reopen log")
        .append_batch(&[ev(new_user, 1, 21)])
        .expect("post-recovery append");
}

/// Acceptance: the closed loop over HTTP — POST /events (idempotent, with
/// request-id propagation into the durable records), immediate fold-in
/// /recs, then a warm-start retrain published + hot-reloaded under
/// concurrent load with zero non-200 responses and zero dropped events.
#[test]
fn closed_loop_ingest_retrain_reload_drops_nothing() {
    let (ds, model, ckpt) = fixture("loop", 2);
    let dir = ckpt.parent().unwrap().to_path_buf();
    let events_dir = dir.join("events");
    let engine = Arc::new(Engine::open(&ckpt, ds.clone(), opts(&events_dir)).expect("open"));
    let handle = serve(
        engine,
        ServerConfig {
            events_log: Some(events_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();
    let new_user = ds.n_users() as u32;

    // Ingest a JSONL batch for a brand-new user.
    let batch: String = (0..4)
        .map(|i| {
            format!(
                "{{\"user\": {new_user}, \"item\": {}, \"ts\": {}, \"client\": \"c1\", \"seq\": {}}}\n",
                i * 2 + 1,
                1_700_000_000 + i,
                i + 1
            )
        })
        .collect();
    let (status, echoed_id, body) = http(addr, "POST", "/events", &batch);
    assert_eq!(status, 200, "{body}");
    assert_eq!(echoed_id, "loop-test-1");
    assert!(body.contains("\"accepted\":4"), "{body}");
    // Replaying the same client/seq batch is a no-op: acked exactly once.
    let (status2, _, body2) = http(addr, "POST", "/events", &batch);
    assert_eq!(status2, 200);
    assert!(body2.contains("\"accepted\":0"), "{body2}");
    assert!(body2.contains("\"duplicates\":4"), "{body2}");
    // Request-id propagated into the durable records (satellite: the log
    // carries provenance, not just the access log).
    let recorded = EventLog::replay(&events_dir).expect("replay");
    assert_eq!(recorded.len(), 4);
    assert!(recorded.iter().all(|e| e.request_id == "loop-test-1"));

    // The new user is immediately servable through the fold-in path.
    let (status, _, body) = http(addr, "GET", &format!("/recs/{new_user}?k=5"), "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"items\":[{"), "fold-in top-K empty: {body}");

    // Warm-start retrain on base + log (what `lrgcn retrain` does), stamped
    // with the covered marker and atomically published over the live path.
    let pairs: Vec<(u32, u32)> = recorded.iter().map(|e| (e.user, e.item)).collect();
    let extended = Arc::new(ds.extend_with_events(&pairs));
    let base_ego = model
        .checkpoint_entries()
        .expect("entries")
        .into_iter()
        .find(|(n, _)| n == "ego")
        .expect("ego")
        .1;
    let cfg = LayerGcnConfig {
        embedding_dim: 16,
        n_layers: 2,
        ..LayerGcnConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(99);
    let mut model2 = LayerGcn::new(&extended, cfg, &mut rng);
    model2.warm_start_from(&base_ego, ds.n_users(), extended.n_users());
    model2.train_epoch(&extended, 0, &mut rng);
    let staged = dir.join("staged.ckpt");
    lrgcn::models::checkpoint::save_model(&staged, "layergcn", &model2).expect("save retrained");
    let mut entries = lrgcn::tensor::io::load_checkpoint(&staged).expect("reload");
    entries.push((COVERED_ENTRY.to_string(), pack_covered(recorded.len() as u64)));
    let refs: Vec<(&str, &lrgcn::tensor::Matrix)> =
        entries.iter().map(|(n, m)| (n.as_str(), m)).collect();
    lrgcn::tensor::io::save_checkpoint(&staged, &refs).expect("stamp covered");
    std::fs::rename(&staged, &ckpt).expect("atomic publish");

    // Hammer /recs from two clients while the reload swaps generations;
    // every single response must be 200.
    let stop = Arc::new(AtomicBool::new(false));
    let non_200 = Arc::new(AtomicUsize::new(0));
    let total = Arc::new(AtomicUsize::new(0));
    let hammers: Vec<_> = (0..2)
        .map(|h| {
            let (stop, non_200, total) = (stop.clone(), non_200.clone(), total.clone());
            std::thread::spawn(move || {
                let mut u = h as u32;
                while !stop.load(Ordering::Relaxed) {
                    let (status, _, _) =
                        http(addr, "GET", &format!("/recs/{}?k=5", u % (new_user + 1)), "");
                    if status != 200 {
                        non_200.fetch_add(1, Ordering::Relaxed);
                    }
                    total.fetch_add(1, Ordering::Relaxed);
                    u += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));
    let (status, _, body) = http(addr, "POST", "/admin/reload", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"covered_events\":4"), "{body}");
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);
    for h in hammers {
        h.join().expect("hammer");
    }
    assert_eq!(
        non_200.load(Ordering::Relaxed),
        0,
        "non-200s during hot reload ({} requests total)",
        total.load(Ordering::Relaxed)
    );
    assert!(total.load(Ordering::Relaxed) > 0);

    // Post-reload: the retrained generation serves the streamed user from
    // its training matrices (covered), not the delta.
    let (status, _, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"covered_events\":4"), "{body}");
    let (status, _, body) = http(addr, "GET", &format!("/recs/{new_user}?k=5"), "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"items\":[{"), "{body}");

    // Ingestion stays live across the reload: the log and dedup state are
    // continuous (client c1 is still at seq 4).
    let (status, _, body) = http(
        addr,
        "POST",
        "/events",
        &format!("{{\"user\": {new_user}, \"item\": 12, \"client\": \"c1\", \"seq\": 5}}\n"),
    );
    assert_eq!(status, 200);
    assert!(body.contains("\"accepted\":1"), "{body}");
    assert!(body.contains("\"covered_events\":4"), "{body}");

    handle.shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}
