//! The connection layer's contract, over real sockets: HTTP/1.1 keep-alive
//! framing, per-request (not per-connection) accounting, and the two
//! properties the blocking acceptor bought — no poll interval under every
//! request, and idle connections that never make a new one wait.
//!
//! Every test holds [`serial`]: several assert on wall-clock latency or on
//! deltas of the process-wide obs registry, and neither survives a
//! neighbour test loading the box or serving requests of its own.

use lrgcn_data::{Dataset, SplitRatios, SyntheticConfig};
use lrgcn_models::{LayerGcn, LayerGcnConfig, Recommender};
use lrgcn_obs::{registry, Counter, Hist};
use lrgcn_serve::chaos::{self, Conn};
use lrgcn_serve::{serve, Engine, EngineOptions, ServerConfig, ServerHandle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(10);

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Trained once per test binary; every server opens its own engine on it.
fn fixture() -> &'static (Arc<Dataset>, PathBuf) {
    static FIXTURE: OnceLock<(Arc<Dataset>, PathBuf)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let log = SyntheticConfig::games().scaled(0.05).generate(99);
        let ds = Arc::new(Dataset::chronological_split(
            "keepalive",
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
        let dir = std::env::temp_dir().join("lrgcn_serve_keepalive");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let ckpt = dir.join("model.ckpt");
        model.save(&ckpt).expect("save");
        (ds, ckpt)
    })
}

fn start_with_workers(workers: usize) -> ServerHandle {
    let (ds, ckpt) = fixture();
    let opts = EngineOptions {
        n_layers: 2,
        ..EngineOptions::default()
    };
    let engine = Arc::new(Engine::open(ckpt, ds.clone(), opts).expect("engine"));
    let cfg = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    serve(engine, cfg).expect("serve")
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.wait();
}

fn one_shot(addr: SocketAddr, path: &str) -> chaos::ChaosResponse {
    chaos::request(addr, "GET", path, &[], b"", TIMEOUT).expect("one-shot request")
}

/// Two requests leaving the client in one `write_all` are two requests:
/// the bytes of the second, read along with the first, are not thrown away.
#[test]
fn pipelined_pair_is_answered_in_order() {
    let _serial = serial();
    let handle = start_with_workers(2);
    let mut conn = Conn::open(handle.addr(), TIMEOUT).expect("connect");
    conn.send(
        b"GET /recs/1?k=3 HTTP/1.1\r\nHost: t\r\n\r\n\
          POST /score HTTP/1.1\r\nHost: t\r\nContent-Length: 19\r\n\r\n{\"pairs\": [[0, 1]]}\
          GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
    )
    .expect("send");
    let recs = conn.recv().expect("first answer");
    assert_eq!(recs.status, 200);
    assert!(recs.body.contains("\"items\""), "{}", recs.body);
    let score = conn.recv().expect("second answer");
    assert_eq!(score.status, 200, "{}", score.body);
    assert!(score.body.contains("\"scores\""), "{}", score.body);
    let health = conn.recv().expect("third answer");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
    assert_eq!(conn.connects(), 1);
    stop(handle);
}

/// Head and body in separate writes on a socket without `TCP_NODELAY` meet
/// the client's delayed ACK: every second exchange on a connection then
/// takes ~40 ms.
#[test]
fn fifty_requests_on_one_connection_never_stall() {
    let _serial = serial();
    let handle = start_with_workers(2);
    let mut conn = Conn::open(handle.addr(), TIMEOUT).expect("connect");
    let mut slowest = Duration::ZERO;
    for i in 0..50 {
        let t0 = Instant::now();
        let resp = conn.get(&format!("/recs/{}?k=5", i % 8)).expect("request");
        slowest = slowest.max(t0.elapsed());
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.header("connection"),
            None,
            "request {i} was told to close"
        );
    }
    assert_eq!(conn.connects(), 1, "all fifty on the socket opened first");
    assert!(
        slowest < Duration::from_millis(20),
        "slowest of 50: {slowest:?}"
    );
    stop(handle);
}

/// The clock and the counters start at a request's first byte. Time spent
/// connected and silent is not latency (it would otherwise trip the SLO
/// and the brownout controller), and a connection that never sends a byte
/// is not a request, let alone a failed one.
#[test]
fn idle_time_is_not_latency_and_silent_connections_are_not_requests() {
    let _serial = serial();
    // One worker: connections are served strictly in arrival order.
    let handle = start_with_workers(1);
    let addr = handle.addr();
    let idle = Duration::from_millis(300);

    let before = registry::snapshot();
    let mut conn = Conn::open(addr, TIMEOUT).expect("connect");
    std::thread::sleep(idle);
    assert_eq!(
        conn.get("/healthz").expect("after connect idle").status,
        200
    );
    std::thread::sleep(idle);
    assert_eq!(
        conn.get("/healthz").expect("after keep-alive idle").status,
        200
    );
    assert_eq!(conn.connects(), 1);
    // The sample is recorded after the response is written, so the second
    // one may trail the answer by a moment.
    let recorded = || {
        registry::snapshot()
            .hist(Hist::ServeRequest)
            .delta_since(before.hist(Hist::ServeRequest))
    };
    let deadline = Instant::now() + TIMEOUT;
    while recorded().count < 2 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let after = registry::snapshot();
    let hist = recorded();
    assert_eq!(hist.count, 2);
    assert!(
        Duration::from_nanos(hist.sum_ns) < idle,
        "two samples sum to {} ns: idle time was measured",
        hist.sum_ns
    );
    assert_eq!(
        after.counter(Counter::ServeRequests) - before.counter(Counter::ServeRequests),
        2
    );
    drop(conn);

    let before = registry::snapshot();
    drop(TcpStream::connect(addr).expect("connect and say nothing"));
    // Answered after the silent connection has been seen off.
    assert_eq!(one_shot(addr, "/healthz").status, 200);
    let after = registry::snapshot();
    assert_eq!(
        after.counter(Counter::ServeRequests) - before.counter(Counter::ServeRequests),
        1,
        "only the follow-up is a request"
    );
    assert_eq!(
        after.counter(Counter::ServeErrors),
        before.counter(Counter::ServeErrors)
    );
    stop(handle);
}

/// A request on a fresh connection waits for nothing but the work: with a
/// sleep-polled listener the median sat at half the poll interval.
#[test]
fn fresh_connections_are_answered_without_a_poll_interval() {
    let _serial = serial();
    let handle = start_with_workers(2);
    let addr = handle.addr();
    let mut took: Vec<Duration> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            assert_eq!(one_shot(addr, "/healthz").status, 200);
            t0.elapsed()
        })
        .collect();
    took.sort();
    let median = took[took.len() / 2];
    assert!(
        median < Duration::from_millis(3),
        "median of 200: {median:?}"
    );
    stop(handle);
}

/// Every worker parked on an idle keep-alive connection, and a new client
/// arrives: it is served at once, at the price of the longest-idle
/// connection, whose client reconnects without noticing.
#[test]
fn idle_connections_never_starve_a_new_one() {
    let _serial = serial();
    let handle = start_with_workers(2);
    let addr = handle.addr();
    let mut a = Conn::open(addr, TIMEOUT).expect("connect a");
    let mut b = Conn::open(addr, TIMEOUT).expect("connect b");
    assert_eq!(a.get("/healthz").expect("a").status, 200);
    assert_eq!(b.get("/healthz").expect("b").status, 200);

    let t0 = Instant::now();
    assert_eq!(one_shot(addr, "/recs/0?k=5").status, 200);
    let waited = t0.elapsed();
    assert!(
        waited < Duration::from_millis(100),
        "third client waited {waited:?}"
    );

    assert_eq!(a.get("/recs/1?k=5").expect("a again").status, 200);
    assert_eq!(b.get("/recs/2?k=5").expect("b again").status, 200);
    // `b` may have been reclaimed too, for `a`'s reconnect: the worker that
    // served the third client need not be back in the pool by then.
    assert_eq!(a.connects(), 2, "the longest-idle connection was reclaimed");
    stop(handle);
}

#[test]
fn shutdown_does_not_wait_for_idle_connections() {
    let _serial = serial();
    let handle = start_with_workers(2);
    let addr = handle.addr();
    let mut a = Conn::open(addr, TIMEOUT).expect("connect a");
    let mut b = Conn::open(addr, TIMEOUT).expect("connect b");
    assert_eq!(a.get("/healthz").expect("a").status, 200);
    assert_eq!(b.get("/healthz").expect("b").status, 200);

    let t0 = Instant::now();
    handle.shutdown();
    handle.wait();
    let took = t0.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "shutdown + wait took {took:?}"
    );
    assert!(TcpStream::connect(addr).is_err(), "the listener is closed");
}

/// Shutdown cuts idle connections only. A request the server has started
/// reading (counted at its first byte) is in flight, and is read to its
/// end, routed and answered.
#[test]
fn a_request_in_flight_at_shutdown_is_answered_in_full() {
    let _serial = serial();
    let handle = start_with_workers(2);
    let counted = registry::get(Counter::ServeRequests);
    let mut conn = Conn::open(handle.addr(), TIMEOUT).expect("connect");
    conn.send(b"GET /recs/1?k=3 HTTP/1.1\r\nHost: t\r\n")
        .expect("all but the blank line");
    while registry::get(Counter::ServeRequests) == counted {
        std::thread::yield_now();
    }
    handle.shutdown();
    conn.send(b"\r\n").expect("the blank line");
    let resp = conn.recv().expect("answer");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"items\""), "{}", resp.body);
    assert_eq!(resp.header("connection"), Some("close"));
    handle.wait();
}
