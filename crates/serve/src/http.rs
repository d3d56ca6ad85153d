//! A deliberately small HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! Connections are persistent (HTTP/1.1 keep-alive): [`read_request`]
//! frames one request by `Content-Length` and leaves every byte past it in
//! the caller's per-connection carry buffer, so pipelined requests are
//! answered in order; [`write_response`] sends head and body in one write
//! and says `Connection: close` only when the caller is about to close.
//! [`Request::keep_alive`] is the client's half of that decision
//! (`Connection: close` or HTTP/1.0 end the connection); any parse or
//! framing error ends it too, because the byte position of the next
//! request is then unknown. Headers are capped at 16 KiB and bodies at
//! 1 MiB, so a hostile peer cannot make a worker allocate unboundedly;
//! reads carry a socket timeout installed by the caller.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;

/// Maximum bytes of request line + headers.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum bytes of request body (`POST /score` batches).
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, decoded path, query map, headers and raw body.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// Percent-decoded `key=value` pairs; later duplicates win.
    pub query: HashMap<String, String>,
    /// Header fields, names lowercased, values trimmed; later duplicates
    /// win. Bounded by the 16 KiB header cap.
    pub headers: HashMap<String, String>,
    pub body: Vec<u8>,
    /// The client allows another request on this connection: HTTP/1.1
    /// without `Connection: close`.
    pub keep_alive: bool,
}

impl Request {
    pub fn query_get(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// Case-insensitive header lookup (`name` must be lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }
}

/// A request-parse failure carrying the HTTP status the server should
/// answer with: `431` when the header section blew its byte cap, `400`
/// for everything else. Keeping the status here (rather than string
/// matching in the server) pins the mapping at the point the defect is
/// detected.
#[derive(Debug)]
pub struct HttpError {
    pub status: u16,
    pub msg: String,
}

impl HttpError {
    fn bad(msg: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            msg: msg.into(),
        }
    }
}

/// Reads and parses one request. `carry` is the connection's unread bytes:
/// it is consumed first, topped up from `stream` as needed, and on success
/// left holding whatever followed this request (the start of the next
/// one, when the client pipelines). The caller maps the error to its
/// carried status (400 or 431) and closes the connection.
pub fn read_request(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Result<Request, HttpError> {
    let header_end = loop {
        if let Some(pos) = find_header_end(carry) {
            break pos;
        }
        if carry.len() > MAX_HEADER_BYTES {
            return Err(HttpError {
                status: 431,
                msg: "request headers exceed 16KiB".into(),
            });
        }
        let n = read_more(stream, carry).map_err(|e| HttpError::bad(format!("read: {e}")))?;
        if n == 0 {
            return Err(HttpError::bad("connection closed mid-request"));
        }
    };
    let (mut req, content_length) = parse_head(&carry[..header_end])?;
    let body_start = header_end + 4;
    let request_end = body_start + content_length;
    while carry.len() < request_end {
        let n = read_more(stream, carry).map_err(|e| HttpError::bad(format!("read body: {e}")))?;
        if n == 0 {
            return Err(HttpError::bad("connection closed mid-body"));
        }
    }
    req.body = carry[body_start..request_end].to_vec();
    carry.drain(..request_end);
    Ok(req)
}

/// Appends what one `read` returns to `carry`; `Ok(0)` is end of stream.
pub fn read_more(stream: &mut TcpStream, carry: &mut Vec<u8>) -> std::io::Result<usize> {
    let mut chunk = [0u8; 1024];
    let n = stream.read(&mut chunk)?;
    carry.extend_from_slice(&chunk[..n]);
    Ok(n)
}

/// Parses request line and headers (everything before the blank line) into
/// a body-less [`Request`] plus the advertised `Content-Length`.
fn parse_head(head: &[u8]) -> Result<(Request, usize), HttpError> {
    let head = std::str::from_utf8(head).map_err(|_| HttpError::bad("non-UTF8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| HttpError::bad("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::bad("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::bad(format!("unsupported version {version:?}")));
    }
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            let key = k.trim().to_ascii_lowercase();
            let value = v.trim();
            if key == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| HttpError::bad(format!("bad Content-Length {v:?}")))?;
            } else if key == "connection" {
                keep_alive &= !value
                    .split(',')
                    .any(|t| t.trim().eq_ignore_ascii_case("close"));
            } else if key == "transfer-encoding" {
                // Bodies are framed by Content-Length alone; a chunked body
                // would be read as the next request.
                return Err(HttpError::bad("Transfer-Encoding is not supported"));
            }
            headers.insert(key, value.to_string());
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::bad("request body exceeds 1MiB"));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut query = HashMap::new();
    for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        query.insert(percent_decode(k), percent_decode(v));
    }
    Ok((
        Request {
            method,
            path: percent_decode(raw_path),
            query,
            headers,
            body: Vec::new(),
            keep_alive,
        },
        content_length,
    ))
}

pub(crate) fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// `%XX` and `+` decoding; malformed escapes pass through literally.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Writes a complete response in one `write_all`: head and body leave in
/// one segment, so Nagle and the peer's delayed ACK never hold the body
/// back. `close` announces `Connection: close`; without it the connection
/// stays open (the HTTP/1.1 default, so no header is spent on it).
/// `extra` headers (e.g. `x-lrgcn-request-id`) are emitted verbatim after
/// the fixed ones; callers must pass sanitized values (no CR/LF).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        status_reason(status),
        body.len()
    );
    if close {
        out.push_str("Connection: close\r\n");
    }
    for (k, v) in extra {
        out.push_str(k);
        out.push_str(": ");
        out.push_str(v);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    let mut out = out.into_bytes();
    out.extend_from_slice(body);
    stream.write_all(&out)
}

pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding_covers_escapes_plus_and_garbage() {
        assert_eq!(percent_decode("/recs/42"), "/recs/42");
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
    }

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn status_reasons_are_stable() {
        assert_eq!(status_reason(200), "OK");
        assert_eq!(status_reason(404), "Not Found");
        assert_eq!(status_reason(431), "Request Header Fields Too Large");
        assert_eq!(status_reason(599), "Unknown");
    }

    #[test]
    fn oversized_headers_are_rejected_with_431() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\n").unwrap();
            // Trickle headers past the 16 KiB cap without ever sending the
            // terminating blank line.
            let line = format!("X-Pad: {}\r\n", "a".repeat(1000));
            for _ in 0..20 {
                if s.write_all(line.as_bytes()).is_err() {
                    break; // server already hung up after rejecting
                }
            }
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        let err = read_request(&mut stream, &mut Vec::new()).unwrap_err();
        assert_eq!(err.status, 431, "oversized headers must map to 431: {err:?}");
        assert!(err.msg.contains("16KiB"), "unexpected message {:?}", err.msg);
        drop(client.join().unwrap());
    }

    #[test]
    fn malformed_requests_are_400_not_431() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET / SMTP/9\r\n\r\n").unwrap();
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        let err = read_request(&mut stream, &mut Vec::new()).unwrap_err();
        assert_eq!(err.status, 400);
        drop(client.join().unwrap());
    }

    #[test]
    fn headers_are_captured_lowercased_and_trimmed() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(
                b"POST /score HTTP/1.1\r\nHost: x\r\nX-LRGCN-Request-Id:  abc-123 \r\nContent-Length: 2\r\n\r\nhi",
            )
            .unwrap();
            s.flush().unwrap();
            // Keep the stream open until the server side has parsed.
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream, &mut Vec::new()).unwrap();
        drop(client.join().unwrap());
        assert!(req.keep_alive, "HTTP/1.1 without Connection: close");
        assert_eq!(req.method, "POST");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("x-lrgcn-request-id"), Some("abc-123"));
        assert_eq!(req.header("content-length"), Some("2"));
        assert_eq!(req.header("missing"), None);
        assert_eq!(req.body, b"hi");
    }

    /// What the client sent in one write is three requests to the parser:
    /// the carry buffer hands each its own bytes and keeps the rest, and
    /// each says whether the client wants the connection kept.
    #[test]
    fn pipelined_requests_come_out_of_the_carry_buffer_in_order() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(
                b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
                  GET /b HTTP/1.0\r\n\r\n\
                  GET /c HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n",
            )
            .unwrap();
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        let mut carry = Vec::new();
        let a = read_request(&mut stream, &mut carry).unwrap();
        assert_eq!(
            (a.path.as_str(), a.body.as_slice(), a.keep_alive),
            ("/a", &b"abc"[..], true)
        );
        let b = read_request(&mut stream, &mut carry).unwrap();
        assert_eq!(
            (b.path.as_str(), b.keep_alive),
            ("/b", false),
            "HTTP/1.0 closes"
        );
        let c = read_request(&mut stream, &mut carry).unwrap();
        assert_eq!(
            (c.path.as_str(), c.keep_alive),
            ("/c", false),
            "Connection: close"
        );
        assert!(carry.is_empty(), "nothing left over: {carry:?}");
        drop(client.join().unwrap());
    }

    #[test]
    fn chunked_bodies_are_rejected_not_misframed() {
        let (req, _) = parse_head(b"GET / HTTP/1.1\r\nHost: x").unwrap();
        assert!(req.keep_alive);
        let err = parse_head(b"POST /score HTTP/1.1\r\nTransfer-Encoding: chunked").unwrap_err();
        assert_eq!(err.status, 400);
    }
}
