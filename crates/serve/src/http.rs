//! A hand-rolled, incremental HTTP/1.1 request parser and response
//! encoder — zero dependencies, in the style of `crates/lint`'s lexer.
//!
//! The parser is **incremental**: the connection loop appends whatever
//! bytes the socket yields (one at a time under `ShortRead` fault
//! injection) and re-offers the buffer; [`parse_request`] answers
//! [`ParseStatus::Partial`] until a complete head and body are present.
//! Every size is budgeted up front by [`Limits`] — an attacker streaming
//! an endless header line is cut off at `max_head_bytes` with `431`, a
//! huge `Content-Length` is refused at `413` before any buffering.
//!
//! The fuzz suite (`tests/http_parser.rs`) drives this module with
//! arbitrary bytes and asserts it never panics, and that every valid
//! request it encodes round-trips through the parser.

use std::fmt;

/// Byte and count budgets for a single request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum bytes in the request line + headers (terminator included).
    pub max_head_bytes: usize,
    /// Maximum declared `Content-Length`.
    pub max_body_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self { max_head_bytes: 8 * 1024, max_body_bytes: 4 << 20, max_headers: 64 }
    }
}

/// A parsed request. Header names are lowercased at parse time so
/// lookups are case-insensitive without allocating per query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the target, up to `?`.
    pub path: String,
    /// Query component (after `?`), empty when absent.
    pub query: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Header fields in arrival order: (lowercased name, trimmed value).
    pub headers: Vec<(String, String)>,
    /// Request body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter (`?name=value&...`); percent
    /// escapes are not decoded (the protocol here never needs them).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }

    /// `true` when the peer asked to close the connection after this
    /// exchange (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => true,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => false,
            _ => !self.http11,
        }
    }
}

/// Outcome of offering a byte buffer to [`parse_request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseStatus {
    /// A full request was parsed from the first `consumed` bytes; the
    /// remainder (if any) belongs to the next pipelined request.
    Complete {
        /// The parsed request.
        request: Box<Request>,
        /// Bytes of the buffer this request occupied.
        consumed: usize,
    },
    /// More bytes are needed; re-offer the buffer once it grows.
    Partial,
}

/// A malformed or over-budget request, with its HTTP answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically invalid request (`400`).
    Bad(&'static str),
    /// Head exceeded [`Limits::max_head_bytes`] (`431`).
    HeadTooLarge,
    /// Declared body exceeds [`Limits::max_body_bytes`] (`413`).
    BodyTooLarge,
    /// More than [`Limits::max_headers`] fields (`431`).
    TooManyHeaders,
    /// `Transfer-Encoding` is not implemented (`501`).
    TransferEncoding,
    /// Protocol version other than HTTP/1.0 or 1.1 (`505`).
    Version,
}

impl HttpError {
    /// The status code this error answers with.
    pub fn status(self) -> u16 {
        match self {
            Self::Bad(_) => 400,
            Self::HeadTooLarge | Self::TooManyHeaders => 431,
            Self::BodyTooLarge => 413,
            Self::TransferEncoding => 501,
            Self::Version => 505,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bad(why) => write!(f, "bad request: {why}"),
            Self::HeadTooLarge => f.write_str("request head too large"),
            Self::BodyTooLarge => f.write_str("request body too large"),
            Self::TooManyHeaders => f.write_str("too many header fields"),
            Self::TransferEncoding => f.write_str("transfer-encoding not implemented"),
            Self::Version => f.write_str("http version not supported"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Locates the end of the request head: the index one past the blank
/// line. Accepts `\r\n\r\n` and the lenient bare `\n\n`.
fn head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// Incrementally parses one request from the front of `buf`.
///
/// Returns [`ParseStatus::Partial`] while bytes are missing, an
/// [`HttpError`] the moment the prefix is provably invalid or over
/// budget, and [`ParseStatus::Complete`] with the consumed length once
/// head and body are fully present.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<ParseStatus, HttpError> {
    let Some(head_len) = head_end(buf) else {
        if buf.len() > limits.max_head_bytes {
            return Err(HttpError::HeadTooLarge);
        }
        return Ok(ParseStatus::Partial);
    };
    if head_len > limits.max_head_bytes {
        return Err(HttpError::HeadTooLarge);
    }
    let head =
        std::str::from_utf8(&buf[..head_len]).map_err(|_| HttpError::Bad("head is not utf-8"))?;

    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or(HttpError::Bad("empty request line"))?;
    let target = parts.next().ok_or(HttpError::Bad("missing request target"))?;
    let version = parts.next().ok_or(HttpError::Bad("missing http version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Bad("extra tokens in request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Bad("method must be uppercase ascii"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::Version),
    };
    if !target.starts_with('/') {
        return Err(HttpError::Bad("target must be origin-form"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(HttpError::TooManyHeaders);
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::Bad("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Bad("invalid header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
    }

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::TransferEncoding);
    }
    let body_len = content_length(&headers)?;
    if body_len > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    let total = head_len + body_len;
    if buf.len() < total {
        return Ok(ParseStatus::Partial);
    }

    Ok(ParseStatus::Complete {
        request: Box::new(Request {
            method: method.to_owned(),
            path: path.to_owned(),
            query: query.to_owned(),
            http11,
            headers,
            body: buf[head_len..total].to_vec(),
        }),
        consumed: total,
    })
}

/// The body length the `content-length` fields declare, 0 without one.
/// Each value must be ASCII digits (no sign, which Rust's integer parser
/// would take), and repeated fields must agree: framing by the first of two
/// different lengths would read the rest of the body as the next request.
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut len = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = v.parse::<usize>().ok().filter(|_| v.bytes().all(|b| b.is_ascii_digit()));
        match (n, len) {
            (Some(n), None) => len = Some(n),
            (Some(n), Some(first)) if n == first => {}
            _ => return Err(HttpError::Bad("bad content-length")),
        }
    }
    Ok(len.unwrap_or(0))
}

/// The reason phrase for the status codes this daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// An HTTP response under construction.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Content-Type`/`Connection`.
    pub headers: Vec<(&'static str, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    content_type: &'static str,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// An `application/json` response (body must already be JSON).
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "application/json",
        }
    }

    /// Adds a header field.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Serializes the response. `keep_alive: false` adds
    /// `Connection: close` so well-behaved peers stop reusing the socket.
    pub fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = String::with_capacity(128);
        head.push_str("HTTP/1.1 ");
        head.push_str(&self.status.to_string());
        head.push(' ');
        head.push_str(reason(self.status));
        head.push_str("\r\nContent-Type: ");
        head.push_str(self.content_type);
        head.push_str("\r\nContent-Length: ");
        head.push_str(&self.body.len().to_string());
        head.push_str("\r\n");
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        if !keep_alive {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(buf: &[u8]) -> (Request, usize) {
        match parse_request(buf, &Limits::default()).expect("parse") {
            ParseStatus::Complete { request, consumed } => (*request, consumed),
            ParseStatus::Partial => panic!("unexpected partial"),
        }
    }

    #[test]
    fn parses_a_minimal_get() {
        let (req, consumed) = complete(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.query, "");
        assert!(req.http11);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"), "lookup is case-insensitive");
        assert!(!req.wants_close());
        assert_eq!(consumed, 34);
    }

    #[test]
    fn parses_body_and_query_and_pipelining() {
        let raw = b"POST /predict?design=a&k=v HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /next";
        let (req, consumed) = complete(raw);
        assert_eq!(req.body, b"body");
        assert_eq!(req.query_param("design"), Some("a"));
        assert_eq!(req.query_param("k"), Some("v"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(&raw[consumed..], b"GET /next", "pipelined remainder untouched");
    }

    #[test]
    fn incremental_offers_stay_partial_until_whole() {
        let raw: &[u8] = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        for cut in 0..raw.len() {
            let status = parse_request(&raw[..cut], &Limits::default()).expect("valid prefix");
            assert_eq!(status, ParseStatus::Partial, "cut at {cut}");
        }
        let (req, _) = complete(raw);
        assert_eq!(req.body, b"abc");
    }

    #[test]
    fn budgets_are_enforced() {
        let limits = Limits { max_head_bytes: 64, max_body_bytes: 16, max_headers: 2 };
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100));
        assert_eq!(parse_request(long_head.as_bytes(), &limits), Err(HttpError::HeadTooLarge));
        // Over-budget heads are rejected even before the terminator shows up.
        let endless = vec![b'a'; 100];
        assert_eq!(parse_request(&endless, &limits), Err(HttpError::HeadTooLarge));
        let big_body = b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        assert_eq!(parse_request(big_body, &limits), Err(HttpError::BodyTooLarge));
        let many = b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
        assert_eq!(parse_request(many, &limits), Err(HttpError::TooManyHeaders));
    }

    #[test]
    fn rejects_malformed_requests_with_typed_errors() {
        let l = Limits::default();
        assert_eq!(parse_request(b"GET / HTTP/2.0\r\n\r\n", &l), Err(HttpError::Version));
        assert_eq!(
            parse_request(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", &l),
            Err(HttpError::TransferEncoding)
        );
        for bad in [
            &b"get / HTTP/1.1\r\n\r\n"[..],
            b"GET http://x/ HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: two\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let got = parse_request(bad, &l);
            assert!(matches!(got, Err(HttpError::Bad(_))), "{:?} -> {:?}", bad, got);
        }
    }

    #[test]
    fn connection_semantics() {
        let (req, _) = complete(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(req.wants_close());
        let (req, _) = complete(b"GET / HTTP/1.0\r\n\r\n");
        assert!(req.wants_close(), "1.0 defaults to close");
        let (req, _) = complete(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!req.wants_close());
    }

    #[test]
    fn response_encodes_with_length_and_close() {
        let resp = Response::text(503, "busy").with_header("Retry-After", "1");
        let bytes = resp.encode(false);
        let text = String::from_utf8(bytes).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{text}");
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nbusy"));
    }
}
