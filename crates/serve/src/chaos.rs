//! Deterministic socket-level chaos for the serving front-end.
//!
//! Extends the `LRGCN_FAULT` vocabulary (see `lrgcn_tensor::faultfs` for
//! the IO half) to *connection* faults, injected from the client side of a
//! live server socket:
//!
//! ```text
//! abort:<p>      write half the request bytes, then close the connection
//! slowloris:<p>  trickle a request prefix, stall, then hang up
//! torn:<p>       valid head + Content-Length, but a truncated body
//! garbage:<p>    seeded random bytes instead of HTTP
//! idle:<p>       valid request, read the answer, then sit on the connection
//! halfclose:<p>  valid request, `shutdown(Write)`, then read the answer
//! pipegarbage:<p> valid request with garbage pipelined in the same write
//! ```
//!
//! The last three are the states keep-alive adds: the connection outlives
//! a valid answer. Their valid request is owed a real response, and the
//! client reports it like a clean request's if it is anything but 200.
//!
//! Clauses are checked in spec order; the first that fires wins, drawing
//! from the same splitmix64 `(seed, clause, op)` scheme as the IO plans,
//! so a given spec + seed injects the same faults on the same connections
//! every run — a chaos soak that fails is replayable byte for byte.
//!
//! [`ChaosClient`] drives one connection per call against a real server:
//! either a clean request (status + headers parsed back) or the planned
//! fault. See DESIGN.md §14.
//!
//! [`Conn`] and [`request`] are the tree's one well-behaved HTTP client:
//! responses are framed by `Content-Length`, never by end of stream, so
//! they work against a keep-alive server. Every serving test uses them.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// One kind of injected connection fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnFault {
    /// Close after writing only half of an otherwise valid request.
    AbortMidWrite,
    /// Trickle a few header bytes, stall past any reasonable pace, close.
    SlowLoris,
    /// Send a complete head advertising a body, then only part of the body.
    TornFrame,
    /// Send bytes that were never HTTP.
    Garbage,
    /// Valid request, read the answer, then hold the connection idle.
    IdleHold,
    /// Valid request, then close the write half before reading the answer.
    HalfClose,
    /// Valid request and garbage in one write: 200, then 400 and a close.
    PipelinedGarbage,
}

impl ConnFault {
    fn parse(kind: &str) -> Option<ConnFault> {
        Some(match kind {
            "abort" => ConnFault::AbortMidWrite,
            "slowloris" => ConnFault::SlowLoris,
            "torn" => ConnFault::TornFrame,
            "garbage" => ConnFault::Garbage,
            "idle" => ConnFault::IdleHold,
            "halfclose" => ConnFault::HalfClose,
            "pipegarbage" => ConnFault::PipelinedGarbage,
            _ => return None,
        })
    }

    /// The fault starts with a valid request the server must answer.
    fn follows_valid_request(self) -> bool {
        matches!(
            self,
            ConnFault::IdleHold | ConnFault::HalfClose | ConnFault::PipelinedGarbage
        )
    }
}

/// A parsed connection-fault spec plus its draw seed.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    clauses: Vec<(ConnFault, f64)>,
    seed: u64,
}

/// splitmix64-finalized uniform draw in `[0,1)` — identical scheme to
/// `lrgcn_tensor::faultfs` so the two fault families compose predictably.
fn unit(seed: u64, stream: u64, op: u64) -> f64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ op.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// Parses a spec like `abort:0.1,garbage:0.05`. Unknown clauses and
    /// out-of-range probabilities are errors — a chaos plan that silently
    /// does nothing would make the soak vacuous.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut clauses = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let (kind, arg) = raw
                .split_once(':')
                .ok_or_else(|| format!("clause {raw:?} missing ':<p>'"))?;
            let fault = ConnFault::parse(kind)
                .ok_or_else(|| format!("unknown connection fault {raw:?}"))?;
            let p: f64 = arg
                .parse()
                .map_err(|_| format!("clause {raw:?}: bad probability {arg:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("clause {raw:?}: probability {p} out of [0,1]"));
            }
            clauses.push((fault, p));
        }
        Ok(FaultPlan { clauses, seed })
    }

    /// The fault (if any) planned for the `op`-th connection (1-based).
    /// First clause whose draw fires wins, matching the IO fault planner.
    pub fn decide(&self, op: u64) -> Option<ConnFault> {
        self.clauses
            .iter()
            .enumerate()
            .find(|(i, (_, p))| unit(self.seed, *i as u64, op) < *p)
            .map(|(_, (f, _))| *f)
    }
}

/// A parsed response: status line, headers, body.
#[derive(Clone, Debug)]
pub struct ChaosResponse {
    pub status: u16,
    /// Names lowercased, values trimmed; later duplicates win.
    pub headers: HashMap<String, String>,
    pub body: String,
}

impl ChaosResponse {
    /// Header lookup (`name` must be lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }
}

/// What one [`ChaosClient`] connection did.
#[derive(Debug)]
pub enum Outcome {
    /// Clean request, complete response parsed back.
    Answered(ChaosResponse),
    /// The planned fault was injected; beyond a 200 to any valid request
    /// it carried, the server owes us nothing.
    Faulted(ConnFault),
    /// A *clean* request failed at the transport layer — under an
    /// overload-control contract this is the outcome that must not
    /// happen: rejects are 503s, never resets.
    TransportError(String),
}

/// One client connection carrying any number of requests, each response
/// framed by its `Content-Length`.
pub struct Conn {
    addr: SocketAddr,
    timeout: Duration,
    stream: TcpStream,
    /// Response bytes read past the last response returned.
    unread: Vec<u8>,
    /// Responses read on the current socket.
    answered: u64,
    /// Sockets opened so far, the first included.
    connects: u64,
}

fn connect(addr: SocketAddr, timeout: Duration) -> Result<TcpStream, String> {
    let stream = TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|_| stream.set_write_timeout(Some(timeout)))
        .and_then(|_| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    Ok(stream)
}

fn render(method: &str, path: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: chaos\r\n");
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

impl Conn {
    /// Connects; `timeout` bounds the connect and every later read and write.
    pub fn open(addr: SocketAddr, timeout: Duration) -> Result<Conn, String> {
        Ok(Conn {
            addr,
            timeout,
            stream: connect(addr, timeout)?,
            unread: Vec::new(),
            answered: 0,
            connects: 1,
        })
    }

    /// How many sockets this client has opened: 1 until a reconnect.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// One request, one response. A server may close an idle keep-alive
    /// connection at any moment, so a socket that has answered before and
    /// dies without a byte of this answer is reopened and the request sent
    /// once more.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<ChaosResponse, String> {
        let bytes = render(method, path, headers, body);
        let first = self.send(&bytes).and_then(|_| self.recv());
        if first.is_ok() || self.answered == 0 || !self.unread.is_empty() {
            return first;
        }
        self.stream = connect(self.addr, self.timeout)?;
        self.answered = 0;
        self.connects += 1;
        self.send(&bytes)?;
        self.recv()
    }

    /// `GET path` with no extra headers.
    pub fn get(&mut self, path: &str) -> Result<ChaosResponse, String> {
        self.request("GET", path, &[], b"")
    }

    /// Writes raw bytes: pipelined requests, partial requests, garbage.
    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// Closes the write half; responses can still be read.
    pub fn finish_writing(&mut self) -> Result<(), String> {
        self.stream
            .shutdown(Shutdown::Write)
            .map_err(|e| format!("shutdown: {e}"))
    }

    /// Reads the next response.
    pub fn recv(&mut self) -> Result<ChaosResponse, String> {
        let mut chunk = [0u8; 4096];
        let (head_end, length) = loop {
            if let Some(at) = crate::http::find_header_end(&self.unread) {
                let head = String::from_utf8_lossy(&self.unread[..at]);
                let length = head
                    .lines()
                    .filter_map(|l| l.split_once(':'))
                    .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
                    .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                    .ok_or_else(|| format!("response without Content-Length: {head:?}"))?;
                if self.unread.len() >= at + 4 + length {
                    break (at, length);
                }
            }
            let n = self
                .stream
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err(format!(
                    "connection closed after {} response bytes",
                    self.unread.len()
                ));
            }
            self.unread.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.unread[..head_end]).into_owned();
        let body =
            String::from_utf8_lossy(&self.unread[head_end + 4..head_end + 4 + length]).into_owned();
        self.unread.drain(..head_end + 4 + length);
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("unparsable response {:?}", &head[..head.len().min(80)]))?;
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        self.answered += 1;
        Ok(ChaosResponse {
            status,
            headers,
            body,
        })
    }
}

/// Issues one complete request on a connection of its own
/// (`Connection: close`) and parses the response. Standalone so tests and
/// the bench share one definition of "a well-behaved client".
///
/// Returns once the server has closed its side, which it does only after
/// the request's accounting: a caller may read the server's counters and
/// windows straight away and find this request in them. (On a kept-alive
/// [`Conn`] the last sample can trail the answer by a moment.)
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout: Duration,
) -> Result<ChaosResponse, String> {
    let mut headers = headers.to_vec();
    headers.push(("Connection", "close"));
    let mut conn = Conn::open(addr, timeout)?;
    let resp = conn.request(method, path, &headers, body)?;
    let mut rest = [0u8; 64];
    while matches!(conn.stream.read(&mut rest), Ok(n) if n > 0) {}
    Ok(resp)
}

/// A client that interleaves clean requests with planned connection
/// faults, one connection per call, deterministic under (plan, seed).
pub struct ChaosClient {
    addr: SocketAddr,
    plan: FaultPlan,
    /// Connections attempted so far (the fault-plan op counter).
    ops: u64,
    /// How long a slow-loris connection stalls before hanging up. Short
    /// in tests; the server's own socket timeout is what's under test,
    /// not ours.
    pub slow_hold: Duration,
    /// Clean-request timeout.
    pub timeout: Duration,
}

impl ChaosClient {
    pub fn new(addr: SocketAddr, plan: FaultPlan) -> Self {
        Self {
            addr,
            plan,
            ops: 0,
            slow_hold: Duration::from_millis(50),
            timeout: Duration::from_secs(10),
        }
    }

    /// Runs the next planned connection as a GET of `path`: either the
    /// clean request or the fault the plan scheduled for this op.
    pub fn get(&mut self, path: &str) -> Outcome {
        self.ops += 1;
        let Some(fault) = self.plan.decide(self.ops) else {
            return match request(self.addr, "GET", path, &[], b"", self.timeout) {
                Ok(resp) => Outcome::Answered(resp),
                Err(e) => Outcome::TransportError(e),
            };
        };
        match self.inject(fault, path) {
            Ok(Some(resp)) if resp.status != 200 => Outcome::Answered(resp),
            Ok(_) => Outcome::Faulted(fault),
            Err(e) => Outcome::TransportError(format!("{fault:?}: {e}")),
        }
    }

    /// Opens one connection and misbehaves per `fault`. A fault that
    /// replaces the request swallows its own errors (a hostile client that
    /// hits a reset has still delivered its hostility) and returns
    /// `Ok(None)`; a fault that follows a valid request returns that
    /// request's answer, or the transport error that ate it.
    fn inject(&self, fault: ConnFault, path: &str) -> Result<Option<ChaosResponse>, String> {
        let mut conn = match Conn::open(self.addr, self.timeout) {
            Ok(conn) => conn,
            Err(_) if !fault.follows_valid_request() => return Ok(None),
            Err(e) => return Err(e),
        };
        let valid = render("GET", path, &[], b"");
        match fault {
            ConnFault::AbortMidWrite => {
                // Dropped without the terminating CRLFCRLF: the server
                // sees EOF mid-head.
                let _ = conn.send(&valid[..valid.len() / 2]);
            }
            ConnFault::SlowLoris => {
                for byte in format!("GET {path} HT").bytes() {
                    if conn.send(&[byte]).is_err() {
                        return Ok(None);
                    }
                    std::thread::sleep(self.slow_hold / 12);
                }
                std::thread::sleep(self.slow_hold);
            }
            ConnFault::TornFrame => {
                let _ =
                    conn.send(b"POST /score HTTP/1.1\r\nHost: chaos\r\nContent-Length: 64\r\n\r\n");
                let _ = conn.send(b"{\"pairs\": [[1,");
                // EOF with 50 advertised bytes missing.
            }
            ConnFault::Garbage => {
                let _ = conn.send(&self.garbage::<256>());
                // Stay connected a moment so the hang-up isn't racing the
                // server's read of the bytes.
                std::thread::sleep(self.slow_hold);
            }
            ConnFault::IdleHold => {
                conn.send(&valid)?;
                let resp = conn.recv()?;
                std::thread::sleep(self.slow_hold);
                return Ok(Some(resp));
            }
            ConnFault::HalfClose => {
                conn.send(&valid)?;
                conn.finish_writing()?;
                return conn.recv().map(Some);
            }
            ConnFault::PipelinedGarbage => {
                // Terminated like a request head, so the server can judge
                // it at once instead of waiting for more.
                let mut bytes = valid;
                bytes.extend_from_slice(&self.garbage::<64>());
                bytes.extend_from_slice(b"\r\n\r\n");
                conn.send(&bytes)?;
                let resp = conn.recv()?;
                if resp.header("connection") == Some("close") {
                    return Ok(Some(resp));
                }
                // Otherwise the garbage is owed a 400 and a close.
                return match conn.recv() {
                    Ok(reject) if reject.status == 400 => Ok(Some(resp)),
                    other => Err(format!("garbage after a valid request got {other:?}")),
                };
            }
        }
        Ok(None)
    }

    /// Seeded bytes that never were HTTP; deterministic per op.
    fn garbage<const N: usize>(&self) -> [u8; N] {
        let mut bytes = [0u8; N];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (unit(self.plan.seed, 0xBAD, self.ops * 256 + i as u64) * 256.0) as u8;
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_request;
    use std::net::TcpListener;

    #[test]
    fn parses_and_rejects_specs() {
        let plan = FaultPlan::parse(
            "abort:0.25, slowloris:0.1,torn:0.5,garbage:1.0,idle:0.1,halfclose:0.1,pipegarbage:0.1",
            7,
        )
        .expect("valid spec");
        assert_eq!(plan.clauses.len(), 7);
        assert!(FaultPlan::parse("", 0).expect("empty ok").clauses.is_empty());
        for bad in ["abort", "abort:2.0", "abort:x", "ddos:0.1"] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_respect_probability() {
        let plan = FaultPlan::parse("garbage:0.3", 42).unwrap();
        let hits: Vec<Option<ConnFault>> = (1..=10_000).map(|op| plan.decide(op)).collect();
        let again: Vec<Option<ConnFault>> = (1..=10_000).map(|op| plan.decide(op)).collect();
        assert_eq!(hits, again, "same plan + op must decide identically");
        let frac = hits.iter().filter(|h| h.is_some()).count() as f64 / hits.len() as f64;
        assert!((frac - 0.3).abs() < 0.02, "hit fraction {frac}");
        // All-on plans fire every op; all-off plans never do.
        let always = FaultPlan::parse("abort:1.0", 1).unwrap();
        let never = FaultPlan::parse("abort:0.0", 1).unwrap();
        for op in 1..=50 {
            assert_eq!(always.decide(op), Some(ConnFault::AbortMidWrite));
            assert_eq!(never.decide(op), None);
        }
    }

    /// Every fault lands on the real parser as a clean `HttpError`, never
    /// a panic — the unit-level half of the adversarial framing contract
    /// (the live-server half is `tests/chaos.rs`).
    #[test]
    fn every_fault_is_a_clean_parse_error_on_the_server_side() {
        for (spec, fault) in [
            ("abort:1.0", ConnFault::AbortMidWrite),
            ("slowloris:1.0", ConnFault::SlowLoris),
            ("torn:1.0", ConnFault::TornFrame),
            ("garbage:1.0", ConnFault::Garbage),
        ] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let plan = FaultPlan::parse(spec, 9).unwrap();
            let client = std::thread::spawn(move || {
                let mut c = ChaosClient::new(addr, plan);
                c.slow_hold = Duration::from_millis(10);
                match c.get("/healthz") {
                    Outcome::Faulted(f) => f,
                    other => panic!("expected a fault, got {other:?}"),
                }
            });
            let (mut stream, _) = listener.accept().unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .unwrap();
            let err = read_request(&mut stream, &mut Vec::new())
                .expect_err(&format!("{fault:?} must not parse as a request"));
            assert!(
                err.status == 400 || err.status == 431,
                "{fault:?} mapped to {}",
                err.status
            );
            assert_eq!(client.join().unwrap(), fault);
        }
    }

    #[test]
    fn clean_requests_round_trip_through_the_helper() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream, &mut Vec::new()).expect("clean request parses");
            crate::http::write_response(
                &mut stream,
                503,
                "application/json",
                &[("retry-after", "1")],
                b"{}",
                true,
            )
            .unwrap();
            req
        });
        let resp = request(
            addr,
            "GET",
            "/recs/1",
            &[("x-lrgcn-deadline-ms", "250")],
            b"",
            Duration::from_secs(5),
        )
        .expect("round trip");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.body, "{}");
        let req = server.join().unwrap();
        assert_eq!(req.header("x-lrgcn-deadline-ms"), Some("250"));
        assert!(
            !req.keep_alive,
            "the one-shot helper must say Connection: close"
        );
    }
}
