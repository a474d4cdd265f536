//! A minimal, correct-enough HTTP/1.1 implementation over blocking I/O.
//!
//! The paper's implementation (§6) is a Dash.js player POSTing throughput
//! measurements to a Node.js prediction server. We reproduce that loop
//! over real sockets with a deliberately small HTTP subset: one request or
//! response per call, `Content-Length`-framed bodies, no chunked encoding,
//! no pipelining (keep-alive *is* supported — the player reuses its
//! connection every 6 seconds).
//!
//! Hard limits guard against malformed peers: header block ≤ 16 KiB,
//! body ≤ 4 MiB, ≤ 64 headers.

use bytes::Bytes;
use std::io::{self, BufRead, Write};

/// Maximum accepted header-block size in bytes.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum accepted body size in bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Maximum number of headers.
const MAX_HEADERS: usize = 64;
/// `Retry-After` value on every 503, whichever path sheds the request.
const RETRY_AFTER_SECONDS: u64 = 1;

/// An HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Method, uppercase (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query).
    pub path: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Bytes,
}

impl Request {
    /// Builds a request with a body and `Content-Length`.
    pub fn new(method: &str, path: &str, body: impl Into<Bytes>) -> Self {
        Request {
            method: method.to_ascii_uppercase(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Bytes,
}

impl Response {
    /// A response with the canonical reason phrase for common codes.
    pub fn new(status: u16, body: impl Into<Bytes>) -> Self {
        Response {
            status,
            reason: reason_phrase(status).to_string(),
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// 200 with a JSON body.
    pub fn json(body: impl Into<Bytes>) -> Self {
        let mut r = Response::new(200, body);
        r.headers
            .push(("content-type".into(), "application/json".into()));
        r
    }

    /// An error response with a plain-text body.
    pub fn error(status: u16, message: &str) -> Self {
        Response::new(status, Bytes::copy_from_slice(message.as_bytes()))
    }

    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header_lookup(&self.headers, name)
    }

    /// A 503 backpressure response: `Retry-After` tells the peer when to
    /// come back, `Connection: close` tells it this connection is done
    /// (the server writes this *without* reading the request, so the
    /// connection cannot be safely reused).
    pub fn service_unavailable() -> Self {
        let mut r = Response::error(503, "server overloaded, retry later");
        r.headers
            .push(("retry-after".into(), RETRY_AFTER_SECONDS.to_string()));
        r.headers.push(("connection".into(), "close".into()));
        r
    }
}

fn header_lookup<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reusable per-worker I/O buffers for the serving hot path: a
/// header-line accumulator shared by every line read on a worker, and a
/// whole-response serialization buffer so each response leaves in a
/// single `write_all`. Both keep their high-water capacity across
/// requests, so a worker's steady-state turn does no framing allocation
/// (`perf/`'s `http.read_request_ns` / `http.write_response_ns` rows time
/// both paths).
#[derive(Debug, Default)]
pub struct IoScratch {
    line: Vec<u8>,
    response: Vec<u8>,
}

impl IoScratch {
    /// Scratch with buffers preallocated for typical frame sizes.
    pub fn new() -> Self {
        IoScratch {
            line: Vec::with_capacity(256),
            response: Vec::with_capacity(4096),
        }
    }
}

/// Reads one request. Returns `Ok(None)` on a clean EOF before any byte
/// (peer closed a keep-alive connection).
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    read_request_buffered(reader, &mut IoScratch::default())
}

/// [`read_request`] with a caller-owned line buffer (see [`IoScratch`]) —
/// the server workers' variant.
pub fn read_request_buffered<R: BufRead>(
    reader: &mut R,
    scratch: &mut IoScratch,
) -> io::Result<Option<Request>> {
    let (method, path) = {
        let Some(start) = read_line_limited(reader, true, &mut scratch.line)? else {
            return Ok(None);
        };
        let mut parts = start.split_whitespace();
        let method = parts.next().ok_or_else(|| bad("missing method"))?;
        let path = parts.next().ok_or_else(|| bad("missing path"))?;
        let version = parts.next().ok_or_else(|| bad("missing version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(bad("unsupported HTTP version"));
        }
        (method.to_ascii_uppercase(), path.to_string())
    };
    let headers = read_headers(reader, &mut scratch.line)?;
    let body = read_body(reader, &headers)?;
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Reads one response.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let mut line = Vec::new();
    let (status, reason) = {
        let start =
            read_line_limited(reader, false, &mut line)?.ok_or_else(|| bad("eof before status"))?;
        let mut parts = start.splitn(3, ' ');
        let version = parts.next().ok_or_else(|| bad("missing version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(bad("unsupported HTTP version"));
        }
        let status: u16 = parts
            .next()
            .ok_or_else(|| bad("missing status"))?
            .parse()
            .map_err(|_| bad("bad status code"))?;
        (status, parts.next().unwrap_or("").to_string())
    };
    let headers = read_headers(reader, &mut line)?;
    let body = read_body(reader, &headers)?;
    Ok(Response {
        status,
        reason,
        headers,
        body,
    })
}

/// Writes a request with `Content-Length` and keep-alive.
pub fn write_request<W: Write>(writer: &mut W, req: &Request) -> io::Result<()> {
    write!(writer, "{} {} HTTP/1.1\r\n", req.method, req.path)?;
    for (name, value) in &req.headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    write!(writer, "content-length: {}\r\n\r\n", req.body.len())?;
    writer.write_all(&req.body)?;
    writer.flush()
}

/// Writes a response with `Content-Length`.
pub fn write_response<W: Write>(writer: &mut W, resp: &Response) -> io::Result<()> {
    write_response_buffered(writer, resp, &mut IoScratch::default())
}

/// [`write_response`] through a reusable serialization buffer: the whole
/// response (status line, headers, body) is assembled in
/// an [`IoScratch`] buffer and leaves in a single `write_all`. The
/// server workers' variant — fewer writes, no per-response allocation.
pub fn write_response_buffered<W: Write>(
    writer: &mut W,
    resp: &Response,
    scratch: &mut IoScratch,
) -> io::Result<()> {
    let buf = &mut scratch.response;
    buf.clear();
    write!(buf, "HTTP/1.1 {} {}\r\n", resp.status, resp.reason)?;
    for (name, value) in &resp.headers {
        write!(buf, "{name}: {value}\r\n")?;
    }
    write!(buf, "content-length: {}\r\n\r\n", resp.body.len())?;
    buf.extend_from_slice(&resp.body);
    writer.write_all(buf)?;
    writer.flush()
}

/// Reads a CRLF-terminated line with a size cap into `line` (cleared
/// first), borrowing the result from it. `allow_eof` permits a clean EOF
/// before any byte (returns `None`).
fn read_line_limited<'a, R: BufRead>(
    reader: &mut R,
    allow_eof: bool,
    line: &'a mut Vec<u8>,
) -> io::Result<Option<&'a str>> {
    line.clear();
    loop {
        let mut byte = [0u8; 1];
        if reader.read(&mut byte)? == 0 {
            if line.is_empty() && allow_eof {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof mid-line"));
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            break;
        }
        line.push(byte[0]);
        if line.len() > MAX_HEADER_BYTES {
            return Err(bad("header line too long"));
        }
    }
    let s = std::str::from_utf8(line).map_err(|_| bad("non-UTF8 header line"))?;
    Ok(Some(s))
}

fn read_headers<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let text = read_line_limited(reader, false, line)?.ok_or_else(|| bad("eof in headers"))?;
        if text.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let (name, value) = text
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn read_body<R: BufRead>(reader: &mut R, headers: &[(String, String)]) -> io::Result<Bytes> {
    let len = match header_lookup(headers, "content-length") {
        Some(v) => v.parse::<usize>().map_err(|_| bad("bad content-length"))?,
        None => 0,
    };
    if len > MAX_BODY_BYTES {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Bytes::from(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip_request(req: &Request) -> Request {
        let mut wire = Vec::new();
        write_request(&mut wire, req).unwrap();
        read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap()
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut wire = Vec::new();
        write_response(&mut wire, resp).unwrap();
        read_response(&mut BufReader::new(&wire[..])).unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let mut req = Request::new("post", "/predict", &b"{\"x\":1}"[..]);
        req.headers
            .push(("content-type".into(), "application/json".into()));
        let back = roundtrip_request(&req);
        assert_eq!(back.method, "POST");
        assert_eq!(back.path, "/predict");
        assert_eq!(back.header("Content-Type"), Some("application/json"));
        assert_eq!(&back.body[..], b"{\"x\":1}");
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::json(&b"[1,2,3]"[..]);
        let back = roundtrip_response(&resp);
        assert_eq!(back.status, 200);
        assert_eq!(back.reason, "OK");
        assert_eq!(&back.body[..], b"[1,2,3]");
        assert_eq!(back.header("content-type"), Some("application/json"));
    }

    #[test]
    fn empty_body_roundtrip() {
        let req = Request::new("GET", "/healthz", Bytes::new());
        let back = roundtrip_request(&req);
        assert!(back.body.is_empty());
    }

    #[test]
    fn buffered_paths_match_the_plain_ones() {
        let mut scratch = IoScratch::new();
        // Same scratch across several differently-sized frames: reuse
        // must never leak one frame's bytes into the next.
        for body in [&b"{\"x\":1}"[..], b"", b"a longer body than before"] {
            let mut req = Request::new("POST", "/predict_batch", body);
            req.headers.push(("x-trace-id".into(), "7".into()));
            let mut wire = Vec::new();
            write_request(&mut wire, &req).unwrap();
            let plain = read_request(&mut BufReader::new(&wire[..]))
                .unwrap()
                .unwrap();
            let buffered = read_request_buffered(&mut BufReader::new(&wire[..]), &mut scratch)
                .unwrap()
                .unwrap();
            assert_eq!(plain, buffered);

            let resp = Response::json(body);
            let mut plain_wire = Vec::new();
            write_response(&mut plain_wire, &resp).unwrap();
            let mut buffered_wire = Vec::new();
            write_response_buffered(&mut buffered_wire, &resp, &mut scratch).unwrap();
            assert_eq!(plain_wire, buffered_wire);
        }
    }

    #[test]
    fn keep_alive_two_requests_on_one_stream() {
        let mut wire = Vec::new();
        write_request(&mut wire, &Request::new("GET", "/a", Bytes::new())).unwrap();
        write_request(&mut wire, &Request::new("GET", "/b", Bytes::new())).unwrap();
        let mut reader = BufReader::new(&wire[..]);
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/a");
        assert_eq!(read_request(&mut reader).unwrap().unwrap().path, "/b");
        assert!(read_request(&mut reader).unwrap().is_none()); // clean EOF
    }

    #[test]
    fn eof_mid_request_is_error() {
        let wire = b"POST /x HTTP/1.1\r\ncontent-le";
        let err = read_request(&mut BufReader::new(&wire[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn missing_body_bytes_is_error() {
        let wire = b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc";
        assert!(read_request(&mut BufReader::new(&wire[..])).is_err());
    }

    #[test]
    fn rejects_bad_version() {
        let wire = b"GET /x HTTP/2\r\n\r\n";
        assert!(read_request(&mut BufReader::new(&wire[..])).is_err());
    }

    #[test]
    fn rejects_oversized_content_length() {
        let wire = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(read_request(&mut BufReader::new(wire.as_bytes())).is_err());
    }

    #[test]
    fn rejects_too_many_headers() {
        let mut wire = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..(MAX_HEADERS + 1) {
            wire.push_str(&format!("h{i}: v\r\n"));
        }
        wire.push_str("\r\n");
        assert!(read_request(&mut BufReader::new(wire.as_bytes())).is_err());
    }

    #[test]
    fn rejects_malformed_header() {
        let wire = b"GET /x HTTP/1.1\r\nnocolonhere\r\n\r\n";
        assert!(read_request(&mut BufReader::new(&wire[..])).is_err());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let wire = b"GET /x HTTP/1.1\r\nX-Thing: 42\r\n\r\n";
        let req = read_request(&mut BufReader::new(&wire[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.header("x-thing"), Some("42"));
        assert_eq!(req.header("X-THING"), Some("42"));
    }

    #[test]
    fn status_reason_phrases() {
        assert_eq!(Response::new(404, Bytes::new()).reason, "Not Found");
        assert_eq!(
            Response::new(503, Bytes::new()).reason,
            "Service Unavailable"
        );
        assert_eq!(Response::new(599, Bytes::new()).reason, "Unknown");
    }

    #[test]
    fn service_unavailable_carries_backpressure_headers() {
        let resp = Response::service_unavailable();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.header("connection"), Some("close"));
        let back = roundtrip_response(&resp);
        assert_eq!(back.header("retry-after"), Some("1"));
    }
}
