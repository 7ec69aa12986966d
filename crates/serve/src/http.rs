//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! The service speaks just enough of the protocol for `curl`, browsers
//! and Prometheus scrapers: `GET` requests with persistent (keep-alive)
//! connections, request heads capped at 16 KiB, paths and query strings
//! percent-decoded under their respective rules, `ETag`/`If-None-Match`
//! revalidation. Parsing is incremental — [`RecvBuf`] accumulates bytes
//! as the event loop reads them and scans only the tail overlap for the
//! head terminator, so a 16 KiB head costs one pass, not O(n²)
//! rescans. Anything fancier (chunked bodies, TLS) is out of scope for
//! an std-only sidecar service.

use std::sync::Arc;

/// Maximum accepted request-head size; larger heads get a 400. The cap
/// is enforced *before* reading past it, so a hostile peer cannot make
/// the server buffer more than one chunk beyond the limit.
pub const MAX_HEAD: usize = 16 * 1024;

/// A parsed request line plus headers (body ignored — GET only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// Decoded path, without the query string.
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Raw headers in order of appearance (names as sent).
    pub headers: Vec<(String, String)>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default unless `Connection: close`; HTTP/1.0 only with
    /// an explicit `Connection: keep-alive`).
    pub keep_alive: bool,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// True when `If-None-Match` lists `etag` (or `*`) — the request is
    /// a revalidation that can be answered with 304.
    pub fn if_none_match(&self, etag: &str) -> bool {
        match self.header("If-None-Match") {
            None => false,
            Some(v) => v
                .split(',')
                .map(|t| t.trim().trim_start_matches("W/"))
                .any(|t| t == etag || t == "*"),
        }
    }
}

/// An incremental head accumulator: the event loop feeds it whatever
/// the socket yields and asks for complete heads. The terminator scan
/// resumes where the previous one stopped (minus the 3-byte overlap a
/// `\r\n\r\n` split across reads can need), so total scan work is
/// linear in the head size regardless of how many reads delivered it.
#[derive(Debug, Default)]
pub struct RecvBuf {
    buf: Vec<u8>,
    /// Bytes known to contain no head terminator *ending* at or before
    /// this offset.
    scanned: usize,
}

impl RecvBuf {
    pub fn new() -> RecvBuf {
        RecvBuf::default()
    }

    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// True once the buffer holds a full head cap with no terminator —
    /// the request is oversized and must be rejected without reading
    /// further.
    pub fn over_cap(&mut self) -> bool {
        self.take_head_end().is_none() && self.buf.len() >= MAX_HEAD
    }

    /// Index one past the head terminator, if a complete head is
    /// buffered. Only scans bytes not covered by previous calls.
    fn take_head_end(&mut self) -> Option<usize> {
        let start = self.scanned.saturating_sub(3);
        for i in start..self.buf.len() {
            if self.buf[i] == b'\n' {
                if i >= 3 && &self.buf[i - 3..=i] == b"\r\n\r\n" {
                    return Some(i + 1);
                }
                if i >= 1 && self.buf[i - 1] == b'\n' {
                    return Some(i + 1);
                }
            }
        }
        self.scanned = self.buf.len();
        None
    }

    /// Removes and returns one complete head (including its
    /// terminator); pipelined bytes after it stay buffered for the next
    /// request.
    pub fn take_head(&mut self) -> Option<Vec<u8>> {
        let end = self.take_head_end()?;
        let rest = self.buf.split_off(end);
        let head = std::mem::replace(&mut self.buf, rest);
        self.scanned = 0;
        Some(head)
    }
}

/// Parses one complete request head (as returned by
/// [`RecvBuf::take_head`]).
pub fn parse_head(head: &[u8]) -> Result<Request, String> {
    let head = String::from_utf8_lossy(head);
    let mut lines = head.lines();
    let line = lines.next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line missing target")?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol {version:?}"));
    }
    let headers: Vec<(String, String)> = lines
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let connection = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("Connection"))
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some(v) if v.contains("close") => false,
        Some(v) if v.contains("keep-alive") => true,
        _ => version != "HTTP/1.0", // 1.1+ default persistent
    };
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method,
        path: decode_path(raw_path),
        query: parse_query(raw_query),
        headers,
        keep_alive,
    })
}

/// Parses a raw query string (`a=1&b=x%20y&flag`) into decoded
/// key/value pairs in order of appearance.
///
/// This is the ONLY query parser in the service — every endpoint
/// (`/render`, `/explore`, `/meta`, …) sees parameters through
/// [`Request::param`] on this output, so the query-vs-path decoding
/// split (`+`→space applies to queries only) is decided exactly once
/// and a new endpoint cannot re-introduce the old path-decoding bug.
pub fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (decode_query(k), decode_query(v)),
            None => (decode_query(kv), String::new()),
        })
        .collect()
}

fn decode(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(h), Some(l)) => {
                        out.push((h * 16 + l) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_as_space => {
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

/// Decodes `%XX` escapes under *path* rules: `+` is a literal plus.
/// (The `+`→space convention is a query-string-only artifact of form
/// encoding; applying it to paths would 404 any file named `a+b.jed`.)
pub fn decode_path(s: &str) -> String {
    decode(s, false)
}

/// Decodes `%XX` escapes and `+`-as-space under query-string rules.
pub fn decode_query(s: &str) -> String {
    decode(s, true)
}

/// A response ready to serialize. Bodies are shared (`Arc`) so cached
/// bytes are never copied per request — the writer streams straight
/// from the cache entry.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Arc<Vec<u8>>,
    /// Emitted as an `ETag` header when present; 304 responses carry it
    /// with an empty body.
    pub etag: Option<String>,
}

impl Response {
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Arc::new(body.into().into_bytes()),
            etag: None,
        }
    }

    pub fn bytes(status: u16, content_type: &'static str, body: Vec<u8>) -> Response {
        Response::shared(status, content_type, Arc::new(body))
    }

    /// A response over an already-shared (cached) body.
    pub fn shared(status: u16, content_type: &'static str, body: Arc<Vec<u8>>) -> Response {
        Response {
            status,
            content_type,
            body,
            etag: None,
        }
    }

    /// An empty-bodied `304 Not Modified` revalidation answer.
    pub fn not_modified(content_type: &'static str, etag: String) -> Response {
        Response {
            status: 304,
            content_type,
            body: Arc::new(Vec::new()),
            etag: Some(etag),
        }
    }

    pub fn with_etag(mut self, etag: String) -> Response {
        self.etag = Some(etag);
        self
    }

    /// Serializes the response head with the standard service headers,
    /// including the per-request id echo and the keep-alive decision.
    pub fn encode_head(&self, request_id: u64, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nX-Jedule-Request-Id: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            request_id
        );
        if let Some(etag) = &self.etag {
            head.push_str("ETag: ");
            head.push_str(etag);
            head.push_str("\r\n");
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        head.into_bytes()
    }

    /// Head plus body as one buffer (the idle sweep's best-effort 408).
    pub fn encode(&self, request_id: u64, keep_alive: bool) -> Vec<u8> {
        let mut out = self.encode_head(request_id, keep_alive);
        out.extend_from_slice(&self.body);
        out
    }
}

pub(crate) fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        416 => "Range Not Satisfiable",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_decoding_keeps_literal_plus() {
        // The regression the `+`→space split exists for: a file named
        // `a+b.jed` must survive path decoding.
        assert_eq!(decode_path("/render/a+b.jed"), "/render/a+b.jed");
        assert_eq!(decode_path("a%20b+c"), "a b+c");
        assert_eq!(decode_path("%2e%2E/x"), "../x");
    }

    #[test]
    fn query_decoding_translates_plus() {
        assert_eq!(decode_query("a%20b+c"), "a b c");
        assert_eq!(decode_query("100%"), "100%");
        assert_eq!(decode_query("%zz"), "%zz");
        assert_eq!(decode_query("plain"), "plain");
    }

    #[test]
    fn malformed_escapes_pass_through() {
        assert_eq!(decode_path("%"), "%");
        assert_eq!(decode_path("%2"), "%2");
        assert_eq!(decode_path("%g1x"), "%g1x");
        // A stray % followed by a valid escape: the stray passes
        // through literally, the escape still decodes.
        assert_eq!(decode_query("%%41"), "%A");
        // Truncated escape at end-of-string is literal even with one
        // hex digit following.
        assert_eq!(decode_query("ok%4"), "ok%4");
    }

    #[test]
    fn parse_query_edge_cases_centrally() {
        // The one shared parser every endpoint goes through: `+` is a
        // space in values AND keys, %-escapes decode, malformed escapes
        // pass through, valueless and empty segments behave.
        assert_eq!(
            parse_query("file=a+b.jed&fmt=svg"),
            vec![
                ("file".into(), "a b.jed".into()),
                ("fmt".into(), "svg".into())
            ]
        );
        assert_eq!(
            parse_query("a+key=v%20w"),
            vec![("a key".into(), "v w".into())]
        );
        assert_eq!(
            parse_query("window=0%3A5"),
            vec![("window".into(), "0:5".into())]
        );
        assert_eq!(parse_query("pct=100%"), vec![("pct".into(), "100%".into())]);
        assert_eq!(parse_query("bad=%zz"), vec![("bad".into(), "%zz".into())]);
        assert_eq!(parse_query("flag"), vec![("flag".into(), String::new())]);
        assert_eq!(parse_query(""), Vec::<(String, String)>::new());
        assert_eq!(parse_query("&&a=1&"), vec![("a".into(), "1".into())]);
        // Duplicate keys are preserved in order (param() takes the first).
        assert_eq!(
            parse_query("x=1&x=2"),
            vec![("x".into(), "1".into()), ("x".into(), "2".into())]
        );
    }

    #[test]
    fn request_param_and_header_lookup() {
        let req = parse_head(
            b"GET /render?file=a+b.jed&fmt=png&file=second HTTP/1.1\r\n\
              Host: t\r\nIf-None-Match: \"abc\"\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.path, "/render");
        // Query values do translate + (form convention)…
        assert_eq!(req.param("file"), Some("a b.jed"));
        // …and duplicate params resolve to the first occurrence.
        assert_eq!(req.param("fmt"), Some("png"));
        assert_eq!(req.header("if-none-match"), Some("\"abc\""));
        assert!(req.if_none_match("\"abc\""));
        assert!(req.if_none_match("*") || req.if_none_match("\"abc\""));
        assert!(!req.if_none_match("\"other\""));
        assert_eq!(req.param("absent"), None);
    }

    #[test]
    fn path_plus_survives_request_parsing() {
        let req = parse_head(b"GET /files/a+b.jed HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/files/a+b.jed");
    }

    #[test]
    fn keep_alive_defaults_by_version() {
        let r11 = parse_head(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(r11.keep_alive);
        let r11c = parse_head(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r11c.keep_alive);
        let r10 = parse_head(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!r10.keep_alive);
        let r10k = parse_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r10k.keep_alive);
    }

    #[test]
    fn recv_buf_finds_heads_across_chunk_boundaries() {
        // Split the terminator at every possible boundary.
        let msg = b"GET /x HTTP/1.1\r\nHost: t\r\n\r\nGET /pipelined".to_vec();
        for split in 1..msg.len() {
            let mut rb = RecvBuf::new();
            rb.extend(&msg[..split]);
            let early = rb.take_head();
            rb.extend(&msg[split..]);
            let head = match early {
                Some(h) => h,
                None => rb.take_head().expect("head completes after 2nd chunk"),
            };
            assert!(head.ends_with(b"\r\n\r\n"), "split at {split}");
            assert_eq!(parse_head(&head).unwrap().path, "/x");
        }
    }

    #[test]
    fn recv_buf_keeps_pipelined_bytes() {
        let mut rb = RecvBuf::new();
        rb.extend(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let a = rb.take_head().unwrap();
        assert_eq!(parse_head(&a).unwrap().path, "/a");
        let b = rb.take_head().unwrap();
        assert_eq!(parse_head(&b).unwrap().path, "/b");
        assert!(rb.take_head().is_none());
        assert!(rb.is_empty());
    }

    #[test]
    fn recv_buf_accepts_bare_lf_terminators() {
        let mut rb = RecvBuf::new();
        rb.extend(b"GET /lf HTTP/1.1\n\n");
        let head = rb.take_head().unwrap();
        assert_eq!(parse_head(&head).unwrap().path, "/lf");
    }

    #[test]
    fn recv_buf_scan_is_incremental_not_quadratic() {
        // 15 KiB of header bytes fed 1 KiB at a time: the tail-overlap
        // scan touches each byte a bounded number of times. (The old
        // windows(4).any rescan was O(n²); this is a behavioral proxy —
        // over_cap must trip exactly at the cap, never after it.)
        let mut rb = RecvBuf::new();
        rb.extend(b"GET / HTTP/1.1\r\n");
        let filler = vec![b'a'; 1024];
        while rb.len() + filler.len() <= MAX_HEAD {
            rb.extend(&filler);
            assert!(rb.take_head().is_none());
        }
        assert!(!rb.over_cap());
        rb.extend(&filler[..MAX_HEAD - rb.len()]);
        assert!(rb.over_cap());
    }

    #[test]
    fn reason_phrases_cover_the_revalidation_path() {
        assert_eq!(reason(304), "Not Modified");
        assert_eq!(reason(416), "Range Not Satisfiable");
        assert_eq!(reason(200), "OK");
        assert_eq!(reason(599), "Unknown");
    }

    #[test]
    fn response_encoding_carries_etag_and_connection() {
        let resp = Response::text(200, "hi").with_etag("\"t1\"".to_string());
        let head = String::from_utf8(resp.encode_head(7, true)).unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("ETag: \"t1\"\r\n"));
        assert!(head.contains("Connection: keep-alive\r\n"));
        assert!(head.contains("X-Jedule-Request-Id: 7\r\n"));
        let closed = String::from_utf8(resp.encode(7, false)).unwrap();
        assert!(closed.contains("Connection: close\r\n"));
        assert!(closed.ends_with("hi"));
        let nm = Response::not_modified("image/svg+xml", "\"t1\"".into());
        let head = String::from_utf8(nm.encode(9, true)).unwrap();
        assert!(head.starts_with("HTTP/1.1 304 Not Modified\r\n"));
        assert!(head.contains("Content-Length: 0\r\n"));
    }
}
