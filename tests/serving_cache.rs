//! Tier-1 guard: the serving response cache must never hand out stale
//! top-K lists.
//!
//! Two staleness vectors are pinned here. First, a hot `/admin/reload`
//! that swaps in *changed embeddings* must invalidate every cached
//! response — the served top-K after reload has to match a fresh engine
//! opened on the new checkpoint, never the pre-reload answer. Second, the
//! cache key must incorporate the read-path configuration (quantized scan
//! on/off, IVF probe width), not just the checkpoint generation: two
//! engines at the same generation but different read paths produce
//! legitimately different rankings, and a generation-only key would let
//! one serve the other's entries.

use lrgcn::models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn::prelude::*;
use lrgcn_serve::cache::Key;
use lrgcn_serve::{chaos, serve, Engine, EngineOptions, ReadPlan, ServerConfig, TopKCache};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn http(addr: SocketAddr, method: &str, path: &str) -> (u16, String) {
    let resp = chaos::request(addr, method, path, &[], b"", Duration::from_secs(10))
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    (resp.status, resp.body)
}

/// Item ids in ranked order from a `/recs` response body.
fn ids(body: &str) -> Vec<u32> {
    let v = lrgcn::obs::json::parse(body).expect("JSON body");
    let Some(lrgcn::obs::json::Value::Arr(items)) = v.get("items") else {
        panic!("no items array in {body}");
    };
    items
        .iter()
        .map(|it| {
            it.get("item")
                .and_then(lrgcn::obs::json::Value::as_f64)
                .expect("item id") as u32
        })
        .collect()
}

#[test]
fn hot_reload_with_changed_embeddings_never_serves_stale_top_k() {
    let log = SyntheticConfig::games().scaled(0.15).generate(41);
    let ds = Arc::new(Dataset::chronological_split(
        "cache-staleness",
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
    model.train_epoch(&ds, 0, &mut rng);
    let dir = std::env::temp_dir().join("lrgcn_root_cache_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("staleness.ckpt");
    model.save(&ckpt).expect("save v1");

    let opts = EngineOptions {
        n_layers: 2,
        ..EngineOptions::default()
    };
    let engine = Arc::new(Engine::open(&ckpt, ds.clone(), opts.clone()).expect("open"));
    let handle = serve(engine, ServerConfig::default()).expect("serve");
    let addr = handle.addr();

    // Prime the cache for a spread of users and verify the entries are
    // live (identical repeat responses).
    let users: Vec<u32> = (0..ds.n_users() as u32).step_by(11).take(8).collect();
    let mut before = Vec::new();
    for &u in &users {
        let (status, body) = http(addr, "GET", &format!("/recs/{u}?k=10"));
        assert_eq!(status, 200);
        let (_, again) = http(addr, "GET", &format!("/recs/{u}?k=10"));
        assert_eq!(
            ids(&body),
            ids(&again),
            "user {u}: cache not stable before reload"
        );
        before.push(ids(&body));
    }

    // Swap in genuinely different embeddings (three more training epochs)
    // under the same path, then hot-reload.
    for epoch in 1..4 {
        model.train_epoch(&ds, epoch, &mut rng);
    }
    model.save(&ckpt).expect("save v2");
    let (status, _) = http(addr, "POST", "/admin/reload");
    assert_eq!(status, 200);

    // Every post-reload response must match a fresh engine on the new
    // checkpoint — a stale cache hit would reproduce the old ranking.
    let fresh = Engine::open(&ckpt, ds.clone(), opts).expect("reopen");
    let fresh_st = fresh.state();
    let mut any_changed = false;
    for (i, &u) in users.iter().enumerate() {
        let (status, body) = http(addr, "GET", &format!("/recs/{u}?k=10"));
        assert_eq!(status, 200);
        let got = ids(&body);
        let want: Vec<u32> = fresh_st
            .top_k(&ds, u, 10, true)
            .expect("fresh top_k")
            .iter()
            .map(|&(it, _)| it)
            .collect();
        assert_eq!(
            got, want,
            "user {u}: served top-K diverged from the reloaded checkpoint"
        );
        any_changed |= got != before[i];
    }
    // The fixture must actually change rankings, or the assertions above
    // prove nothing about staleness.
    assert!(
        any_changed,
        "three training epochs changed no ranking — fixture too weak to detect staleness"
    );

    handle.shutdown();
    handle.wait();
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn cache_key_separates_read_path_configurations() {
    let cache = TopKCache::new(64, 4);
    let base = Key {
        generation: 1,
        user: 7,
        k: 20,
        exclude_seen: true,
        plan: ReadPlan { nprobe: 0, int8: false },
        delta: 0,
    };
    cache.insert(base, vec![(1, 0.5), (2, 0.25)]);
    assert!(cache.get(&base).is_some(), "exact self-lookup must hit");

    // Same generation and user, different read path: the quantized scan
    // and every distinct IVF probe width rank through different arithmetic,
    // so each must be its own cache universe.
    let quant = Key {
        plan: ReadPlan { nprobe: 0, int8: true },
        ..base
    };
    assert!(cache.get(&quant).is_none(), "quant flag not in the key");
    for nprobe in [1usize, 8, 38] {
        let ann = Key {
            plan: ReadPlan { nprobe, int8: false },
            ..base
        };
        assert!(
            cache.get(&ann).is_none(),
            "nprobe={nprobe} shares a cache entry with the exact scan"
        );
    }

    // Generation still invalidates as before.
    let next_gen = Key {
        generation: 2,
        ..base
    };
    assert!(cache.get(&next_gen).is_none(), "generation not in the key");

    // And each streaming fold-in bumps the delta version the same way.
    let folded = Key { delta: 1, ..base };
    assert!(cache.get(&folded).is_none(), "delta version not in the key");
}
