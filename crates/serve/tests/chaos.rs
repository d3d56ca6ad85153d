//! Adversarial HTTP framing soak against a live server.
//!
//! The server's contract under hostile sockets (DESIGN.md §14): no worker
//! ever panics or wedges, every malformed connection is answered (or
//! dropped) with a clean parse error — 400, or 431 for oversized headers
//! — and valid requests interleaved with the abuse keep answering 200
//! with byte-identical rankings. The fault vocabulary comes from
//! `lrgcn_serve::chaos`, whose seeded plans drive this soak.

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn_serve::chaos::{self, ChaosClient, ConnFault, FaultPlan, Outcome};
use lrgcn_serve::{serve, Engine, EngineOptions, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn fixture(name: &str) -> (Arc<Dataset>, PathBuf) {
    let log = SyntheticConfig::games().scaled(0.05).generate(99);
    let ds = Arc::new(Dataset::chronological_split(
        "chaos",
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
    let dir = std::env::temp_dir().join("lrgcn_serve_chaos");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let ckpt = dir.join(format!("{name}.ckpt"));
    model.save(&ckpt).expect("save");
    (ds, ckpt)
}

fn start_server(name: &str) -> (Arc<Dataset>, lrgcn_serve::ServerHandle) {
    let (ds, ckpt) = fixture(name);
    let engine = Arc::new(
        Engine::open(
            &ckpt,
            ds.clone(),
            EngineOptions {
                n_layers: 2,
                ..EngineOptions::default()
            },
        )
        .expect("engine"),
    );
    let handle = serve(
        engine,
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("serve");
    (ds, handle)
}

fn clean_get(addr: SocketAddr, path: &str) -> chaos::ChaosResponse {
    chaos::request(addr, "GET", path, &[], b"", Duration::from_secs(10)).expect("clean request")
}

/// The headline soak: four clients interleave planned connection faults
/// with valid requests for ~100 connections each — faults that replace
/// the request (aborts, slow-loris stalls, torn frames, garbage) and
/// faults that follow a valid one on a kept-alive connection (sitting
/// idle, half-closing, pipelining garbage). Every clean request, and the
/// valid request inside every fault of the second kind, must be answered
/// 200; none may die at the transport layer; and the server must come out
/// of the soak serving the same bytes it served before it.
#[test]
fn hostile_sockets_never_take_down_valid_traffic() {
    let (_ds, handle) = start_server("soak");
    let addr = handle.addr();
    let before = clean_get(addr, "/recs/0?k=10");
    assert_eq!(before.status, 200);

    let mut threads = Vec::new();
    for t in 0..4u64 {
        let plan = FaultPlan::parse(
            "abort:0.15,slowloris:0.1,torn:0.15,garbage:0.15,idle:0.1,halfclose:0.1,pipegarbage:0.1",
            100 + t,
        )
        .expect("plan");
        threads.push(std::thread::spawn(move || {
            let mut client = ChaosClient::new(addr, plan);
            client.slow_hold = Duration::from_millis(20);
            let (mut ok, mut faulted) = (0u64, Vec::new());
            for i in 0..100u32 {
                match client.get(&format!("/recs/{}?k=5", i % 8)) {
                    Outcome::Answered(resp) => {
                        assert_eq!(resp.status, 200, "clean request failed: {}", resp.body);
                        assert!(resp.body.contains("\"items\""), "bad body {}", resp.body);
                        ok += 1;
                    }
                    Outcome::Faulted(fault) => faulted.push(fault),
                    Outcome::TransportError(e) => {
                        panic!("clean request hit a transport error: {e}")
                    }
                }
            }
            (ok, faulted)
        }));
    }
    let (mut total_ok, mut all_faults) = (0, Vec::new());
    for t in threads {
        let (ok, faulted) = t.join().expect("no soak thread may panic");
        total_ok += ok;
        all_faults.extend(faulted);
    }
    assert!(total_ok >= 100, "goodput collapsed: {total_ok} clean 200s");
    assert!(
        all_faults.len() >= 100,
        "soak was vacuous: only {} faults fired",
        all_faults.len()
    );
    for between_requests in [
        ConnFault::IdleHold,
        ConnFault::HalfClose,
        ConnFault::PipelinedGarbage,
    ] {
        let fired = all_faults.iter().filter(|f| **f == between_requests).count();
        assert!(fired >= 10, "{between_requests:?} fired only {fired} times");
    }

    // The server is intact: health answers, metrics scrape, and the
    // pre-soak ranking is reproduced byte for byte (both responses are
    // cache hits at the same generation, so full-body equality is exact).
    assert_eq!(clean_get(addr, "/healthz").status, 200);
    assert_eq!(clean_get(addr, "/metrics").status, 200);
    let baseline = clean_get(addr, "/recs/0?k=10");
    let after = clean_get(addr, "/recs/0?k=10");
    assert_eq!(after.body, baseline.body, "post-soak ranking drifted");

    let (status, _) = raw(
        addr,
        b"POST /admin/shutdown HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    handle.wait();
}

/// Writes raw bytes, reads to end of stream, returns (status, full response
/// text): `bytes` must be a request that makes the server close (an error,
/// or `Connection: close`). Tolerates the server hanging up mid-write (it
/// may reject before we finish sending).
fn raw(addr: SocketAddr, bytes: &[u8]) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = s.write_all(bytes);
    let mut resp = String::new();
    let _ = s.read_to_string(&mut resp);
    let status = resp
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {resp:?}"));
    (status, resp)
}

/// Framing edge cases one by one, each against the live server, with a
/// valid request after every abuse proving the worker pool survived.
#[test]
fn framing_abuse_gets_clean_errors_not_resets() {
    let (_ds, handle) = start_server("framing");
    let addr = handle.addr();

    // Oversized headers: 431, not 400, not a reset.
    let mut big = b"GET /healthz HTTP/1.1\r\n".to_vec();
    let pad = format!("X-Pad: {}\r\n", "a".repeat(1000));
    for _ in 0..20 {
        big.extend_from_slice(pad.as_bytes());
    }
    // No terminating blank line: the cap must trip first.
    let (status, resp) = raw(addr, &big);
    assert_eq!(status, 431, "oversized headers: {resp}");
    assert_eq!(clean_get(addr, "/healthz").status, 200);

    // Unparsable Content-Length.
    let (status, _) = raw(
        addr,
        b"POST /score HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    );
    assert_eq!(status, 400);

    // Garbage that never was HTTP.
    let (status, _) = raw(addr, &[0xFF; 64]);
    assert_eq!(status, 400);

    // A request split into single-byte writes must still parse: framing
    // cannot assume whole-head reads.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for b in b"GET /recs/1?k=3 HTTP/1.1\r\nHost: drip\r\nConnection: close\r\n\r\n" {
            s.write_all(&[*b]).expect("drip write");
            std::thread::sleep(Duration::from_micros(200));
        }
        let mut resp = String::new();
        s.read_to_string(&mut resp).expect("drip response");
        assert!(resp.starts_with("HTTP/1.1 200"), "split writes: {resp}");
    }

    // Abrupt close mid-request: the worker must shrug and serve the next
    // connection.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"GET /recs/1 HTT").expect("partial write");
        drop(s);
    }
    assert_eq!(clean_get(addr, "/recs/1?k=3").status, 200);

    handle.shutdown();
    handle.wait();
}
