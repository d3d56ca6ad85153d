//! PR 4 benchmark: online serving throughput, single worker vs a pooled
//! configuration, over a real loopback socket.
//!
//! Starts the full server twice — `workers = 1` with one sequential client,
//! then `workers = cpus` with several concurrent clients — and drives an
//! identical request mix (3× `GET /recs`, 1× `POST /score`) against each.
//! Emits `BENCH_PR4.json` (override with `--out PATH`). Throughput numbers
//! are bounded by `cpus_available`; on a single-CPU host the pooled
//! configuration cannot beat one worker and the report says so.
//!
//! ```text
//! cargo run -p lrgcn-serve --release --bin bench_pr4 -- \
//!     [--scale F] [--requests N] [--clients C] [--out PATH]
//! ```

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_models::LayerGcn;
use lrgcn_models::LayerGcnConfig;
use lrgcn_obs::json::Value;
use lrgcn_serve::{serve, Engine, EngineOptions, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `--key value` flags; everything is optional.
fn arg(key: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == &format!("--{key}"))
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_parsed<T: std::str::FromStr>(key: &str, default: T) -> T {
    arg(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> u16 {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).expect("send");
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("response");
    resp.split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status line")
}

/// The shared request mix: every 4th request is a batched `/score`, the
/// rest are `/recs` cycling over users (so cache behaviour is identical
/// across configurations).
fn fire(addr: SocketAddr, n_users: usize, start: usize, count: usize) {
    for i in start..start + count {
        let status = if i % 4 == 3 {
            let u = i % n_users;
            let body = format!("{{\"pairs\": [[{u}, 0], [{u}, 1]]}}");
            request(addr, "POST", "/score", &body)
        } else {
            request(addr, "GET", &format!("/recs/{}?k=20", i % n_users), "")
        };
        assert_eq!(status, 200, "request {i} failed");
    }
}

struct Throughput {
    workers: usize,
    clients: usize,
    elapsed_s: f64,
    rps: f64,
}

fn measure(engine: &Arc<Engine>, workers: usize, clients: usize, requests: usize) -> Throughput {
    let handle = serve(
        engine.clone(),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    let addr = handle.addr();
    let n_users = engine.dataset().n_users();
    // One warm-up pass so TCP and cache state don't skew the first config.
    fire(addr, n_users, 0, 32.min(requests));

    let per_client = requests / clients;
    let t0 = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || fire(addr, n_users, c * per_client, per_client))
        })
        .collect();
    for t in threads {
        t.join().expect("client");
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    handle.shutdown();
    handle.wait();
    let total = (per_client * clients) as f64;
    Throughput {
        workers,
        clients,
        elapsed_s,
        rps: total / elapsed_s,
    }
}

fn main() {
    let scale: f64 = arg_parsed("scale", 0.05f64);
    let requests: usize = arg_parsed("requests", 400usize);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients: usize = arg_parsed("clients", 4usize);
    let out_path = arg("out").unwrap_or_else(|| "BENCH_PR4.json".into());

    let log = SyntheticConfig::games().scaled(scale).generate(2023);
    let ds = Arc::new(Dataset::chronological_split(
        "games-like",
        &log,
        SplitRatios::default(),
    ));
    let cfg = LayerGcnConfig {
        embedding_dim: 32,
        n_layers: 2,
        ..LayerGcnConfig::default()
    };
    // Serving throughput does not depend on model quality: a random-init
    // checkpoint scores through exactly the same kernels.
    let mut rng = StdRng::seed_from_u64(2023);
    let model = LayerGcn::new(&ds, cfg, &mut rng);
    let dir = std::env::temp_dir().join("lrgcn_bench_pr4");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join("bench.ckpt");
    model.save(&ckpt).expect("save checkpoint");
    let opts = EngineOptions {
        n_layers: 2,
        ..EngineOptions::default()
    };
    let engine = Arc::new(Engine::open(&ckpt, ds.clone(), opts).expect("open engine"));

    eprintln!(
        "bench_pr4: {} users / {} items, dim 32, cpus={cpus}, {requests} requests, 1 worker vs {cpus} workers x {clients} clients",
        ds.n_users(),
        ds.n_items()
    );
    let single = measure(&engine, 1, 1, requests);
    let pooled = measure(&engine, cpus, clients, requests);
    std::fs::remove_file(&ckpt).ok();

    let report = Value::obj([
        ("bench", Value::str("pr4_serving_throughput")),
        (
            "dataset",
            Value::str(format!("games-like (synthetic, scale {scale})")),
        ),
        ("n_users", Value::u64(ds.n_users() as u64)),
        ("n_items", Value::u64(ds.n_items() as u64)),
        ("embedding_dim", Value::u64(32)),
        ("cpus_available", Value::u64(cpus as u64)),
        ("requests", Value::u64(requests as u64)),
        (
            "request_mix",
            Value::str("3x GET /recs (cached top-20) : 1x POST /score (micro-batched)"),
        ),
        (
            "single",
            Value::obj([
                ("workers", Value::u64(single.workers as u64)),
                ("clients", Value::u64(single.clients as u64)),
                ("elapsed_seconds", Value::num(single.elapsed_s)),
                ("requests_per_second", Value::num(single.rps)),
            ]),
        ),
        (
            "pooled",
            Value::obj([
                ("workers", Value::u64(pooled.workers as u64)),
                ("clients", Value::u64(pooled.clients as u64)),
                ("elapsed_seconds", Value::num(pooled.elapsed_s)),
                ("requests_per_second", Value::num(pooled.rps)),
            ]),
        ),
        ("throughput_speedup", Value::num(pooled.rps / single.rps)),
        (
            "note",
            Value::str(
                "speedup is bounded by cpus_available; on a single-CPU host the pooled configuration cannot beat one worker",
            ),
        ),
    ]);
    let json = report.render();
    std::fs::write(&out_path, &json).expect("writing benchmark report");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
