//! A plain HTTP/1.1 client for the load generator.
//!
//! Responses are framed by `Content-Length`, never by end of stream, so
//! the connection is reused whenever the response does not say
//! `Connection: close` (at the seed commit the server always says it) and
//! reopened otherwise. One `Client` is one connection; each generator
//! thread owns one.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A peer that stays silent this long has failed the request.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// No answer of this server comes near this; a larger claim is a bug.
const MAX_BODY_BYTES: usize = 16 << 20;

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server asked for the connection to be closed.
    pub close: bool,
    /// Head and body bytes together.
    pub wire_bytes: usize,
}

/// Incremental response parser: push what `read` returned, then ask
/// whether a whole response has arrived.
#[derive(Default)]
pub struct Framer {
    buf: Vec<u8>,
}

impl Framer {
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// `Ok(None)` until the head and `Content-Length` body bytes are in;
    /// then the response, leaving any later bytes buffered.
    pub fn take(&mut self) -> Result<Option<Response>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| "non-UTF8 head")?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .strip_prefix("HTTP/1.")
            .and_then(|rest| rest.split(' ').nth(1))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line {status_line:?}"))?;
        let (mut length, mut close) = (None, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or("response without a valid Content-Length")?;
        if length > MAX_BODY_BYTES {
            return Err(format!("Content-Length {length} exceeds {MAX_BODY_BYTES}"));
        }
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response {
            status,
            body,
            close,
            wire_bytes: total,
        }))
    }

    /// What end of stream means with `take` still at `None`.
    pub fn eof_error(&self) -> String {
        if self.buf.is_empty() {
            "connection closed before any response byte".into()
        } else {
            format!(
                "connection closed mid-response after {} bytes (short body)",
                self.buf.len()
            )
        }
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Where one exchange's time went, as the client saw it.
#[derive(Clone, Copy, Default)]
pub struct Timing {
    /// Opening the connection; 0 when an open one was reused.
    pub connect_ns: u64,
    /// Request written to first response byte.
    pub ttfb_ns: u64,
    /// First response byte to last body byte.
    pub body_read_ns: u64,
}

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    framer: Framer,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            framer: Framer::default(),
        }
    }

    /// One request, one framed response. A reused connection that turns
    /// out to be dead before answering anything is reopened once: the
    /// server may drop an idle connection at any time.
    ///
    /// `split` asks for the [`Timing`] breakdown; without it the clock is
    /// not read during the exchange at all (tracing off).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        split: bool,
    ) -> Result<(Response, Timing), String> {
        let reused = self.stream.is_some();
        let result = self.exchange(method, path, body, split);
        let unanswered = self.framer.is_empty();
        if !matches!(&result, Ok((resp, _)) if !resp.close) {
            self.stream = None;
            self.framer = Framer::default();
        }
        if result.is_err() && reused && unanswered {
            return self.request(method, path, body, split);
        }
        result
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        split: bool,
    ) -> Result<(Response, Timing), String> {
        let mut timing = Timing::default();
        let stream = match &mut self.stream {
            Some(s) => s,
            slot => {
                let t0 = split.then(Instant::now);
                let s = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)
                    .map_err(|e| format!("connect: {e}"))?;
                s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
                s.set_read_timeout(Some(IO_TIMEOUT))
                    .map_err(|e| e.to_string())?;
                s.set_write_timeout(Some(IO_TIMEOUT))
                    .map_err(|e| e.to_string())?;
                timing.connect_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                slot.insert(s)
            }
        };
        let mut request = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
        if !body.is_empty() || method == "POST" {
            request.push_str(&format!("Content-Length: {}\r\n", body.len()));
        }
        request.push_str("\r\n");
        let mut bytes = request.into_bytes();
        bytes.extend_from_slice(body);
        stream
            .write_all(&bytes)
            .map_err(|e| format!("write: {e}"))?;

        let sent = split.then(Instant::now);
        let mut first_byte: Option<Instant> = None;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(resp) = self.framer.take()? {
                if let (Some(sent), Some(first)) = (sent, first_byte) {
                    timing.ttfb_ns = first.duration_since(sent).as_nanos() as u64;
                    timing.body_read_ns = first.elapsed().as_nanos() as u64;
                }
                return Ok((resp, timing));
            }
            let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err(self.framer.eof_error());
            }
            if split && first_byte.is_none() {
                first_byte = Some(Instant::now());
            }
            self.framer.push(&chunk[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const WIRE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 11\r\n\r\n{\"ok\":true}";

    #[test]
    fn framer_survives_any_split_of_the_reads() {
        for cut in 1..WIRE.len() {
            let mut f = Framer::default();
            f.push(&WIRE[..cut]);
            assert!(
                f.take().expect("prefix parses").is_none(),
                "cut {cut} is not complete"
            );
            f.push(&WIRE[cut..]);
            let resp = f.take().expect("parses").expect("complete");
            assert_eq!(
                (resp.status, resp.body.as_slice()),
                (200, &b"{\"ok\":true}"[..])
            );
            assert_eq!(resp.wire_bytes, WIRE.len());
            assert!(
                !resp.close,
                "no Connection header means keep-alive in HTTP/1.1"
            );
            assert!(f.take().expect("empty").is_none());
        }
    }

    #[test]
    fn framer_keeps_pipelined_bytes_and_reads_connection_close() {
        let mut f = Framer::default();
        f.push(WIRE);
        f.push(
            b"HTTP/1.1 503 Service Unavailable\r\nconnection: Close\r\ncontent-length: 0\r\n\r\n",
        );
        assert_eq!(f.take().unwrap().unwrap().status, 200);
        let second = f.take().unwrap().unwrap();
        assert_eq!(
            (second.status, second.close, second.body.len()),
            (503, true, 0)
        );
    }

    #[test]
    fn framer_rejects_short_bodies_and_unframed_responses() {
        let mut f = Framer::default();
        f.push(&WIRE[..WIRE.len() - 3]);
        assert!(f.take().unwrap().is_none());
        assert!(f.eof_error().contains("short body"), "{}", f.eof_error());
        let mut f = Framer::default();
        f.push(b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\r\nuntil eof");
        assert!(f.take().is_err(), "no Content-Length cannot be framed");
        let mut f = Framer::default();
        f.push(b"SMTP ready\r\n\r\n");
        assert!(f.take().is_err());
    }

    /// A server that answers `n` requests per connection, then closes
    /// with or without saying so.
    fn serve_n(listener: TcpListener, per_conn: usize, conns: usize, announce: bool) {
        for _ in 0..conns {
            let (mut s, _) = listener.accept().unwrap();
            for i in 0..per_conn {
                let mut buf = [0u8; 1024];
                let mut got = Vec::new();
                while !got.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = s.read(&mut buf).unwrap();
                    assert!(n > 0, "client hung up mid-request");
                    got.extend_from_slice(&buf[..n]);
                }
                let last = i + 1 == per_conn;
                let conn = if last && announce {
                    "Connection: close\r\n"
                } else {
                    ""
                };
                // Two writes, so the client sees a split response.
                s.write_all(
                    format!("HTTP/1.1 200 OK\r\n{conn}Content-Length: 2\r\n\r\n").as_bytes(),
                )
                .unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(5));
                s.write_all(b"ok").unwrap();
            }
        }
    }

    #[test]
    fn client_reuses_until_told_to_close_and_reopens_dead_connections() {
        for announce in [true, false] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let server = std::thread::spawn(move || serve_n(listener, 2, 2, announce));
            let mut client = Client::new(addr);
            let mut connects = 0;
            for _ in 0..4 {
                let (resp, timing) = client.request("GET", "/x", b"", true).expect("request");
                assert_eq!(resp.body, b"ok");
                connects += usize::from(timing.connect_ns > 0);
            }
            assert_eq!(
                connects, 2,
                "two requests per connection (announce={announce})"
            );
            server.join().unwrap();
        }
    }
}
