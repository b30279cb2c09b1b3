//! Incremental HTTP/1.1 request parsing over a byte buffer.
//!
//! [`parse_request`] consumes from the front of a connection buffer: it
//! returns `Ok(None)` while the request is still incomplete, and
//! `Ok(Some((request, consumed)))` once a full head + body is available —
//! so a pipelined connection simply drains `consumed` bytes and parses
//! again. Every malformed input maps to a [`ParseError`] carrying the 4xx
//! (or 501/505) status the connection should answer with; the parser
//! itself never panics on any byte sequence (the property suite in
//! `tests/` feeds it arbitrary bytes), so there is no `catch_unwind`
//! anywhere in the request path.
//!
//! Deliberately strict where request smuggling lives (RFC 9112 §11.2):
//!
//! * `Content-Length` together with `Transfer-Encoding` is rejected.
//! * Repeated or list-valued `Content-Length` headers are rejected, as are
//!   non-digit lengths (`+5`, `0x5`, `5,5`).
//! * `Transfer-Encoding` values other than exactly `chunked` are refused
//!   with 501 rather than falling back to "read until close".
//! * Obsolete header line folding is rejected rather than unfolded.

/// Hard limits applied while parsing; all byte counts are per request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Longest accepted request line (method + target + version).
    pub max_start_line: usize,
    /// Cap on the whole head (request line + headers + blank line).
    pub max_head_bytes: usize,
    /// Maximum number of header fields.
    pub max_headers: usize,
    /// Maximum accepted body size (fixed-length or de-chunked).
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_start_line: 8 * 1024,
            max_head_bytes: 32 * 1024,
            max_headers: 128,
            max_body: 8 * 1024 * 1024,
        }
    }
}

/// Why a request failed to parse; maps onto the response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed syntax, smuggling-shaped framing, folded headers… → 400.
    BadRequest(&'static str),
    /// Request line exceeds [`Limits::max_start_line`] → 414.
    UriTooLong,
    /// Head exceeds [`Limits::max_head_bytes`] or [`Limits::max_headers`] → 431.
    HeadersTooLarge,
    /// Declared or de-chunked body exceeds [`Limits::max_body`] → 413.
    PayloadTooLarge,
    /// A `Transfer-Encoding` this server does not implement → 501.
    NotImplemented(&'static str),
    /// An HTTP version other than 1.0/1.1 → 505.
    VersionNotSupported,
}

impl ParseError {
    /// The response status code this error answers with.
    pub fn status(&self) -> u16 {
        match self {
            ParseError::BadRequest(_) => 400,
            ParseError::UriTooLong => 414,
            ParseError::HeadersTooLarge => 431,
            ParseError::PayloadTooLarge => 413,
            ParseError::NotImplemented(_) => 501,
            ParseError::VersionNotSupported => 505,
        }
    }

    /// Short human-readable reason for the error body.
    pub fn reason(&self) -> &'static str {
        match self {
            ParseError::BadRequest(r) => r,
            ParseError::UriTooLong => "request line too long",
            ParseError::HeadersTooLarge => "headers too large",
            ParseError::PayloadTooLarge => "body too large",
            ParseError::NotImplemented(r) => r,
            ParseError::VersionNotSupported => "http version not supported",
        }
    }
}

/// One parsed request. Header names are lowercased; values have
/// surrounding whitespace trimmed.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The method token, as sent (`GET`, `POST`, …).
    pub method: String,
    /// The origin-form request target (`/path?query`).
    pub target: String,
    /// HTTP minor version: 0 for 1.0, 1 for 1.1.
    pub minor_version: u8,
    /// Header fields in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The (de-chunked) body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target's path, without the query string.
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// The target's query string, if any (without the `?`).
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// One `key=value` pair from the query string.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query()?
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive unless `Connection: close`;
    /// HTTP/1.0 requires an explicit `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        let conn = self.header("connection").unwrap_or("").to_ascii_lowercase();
        if self.minor_version >= 1 {
            !conn.split(',').any(|t| t.trim() == "close")
        } else {
            conn.split(',').any(|t| t.trim() == "keep-alive")
        }
    }
}

/// Whether `b` is an RFC 9110 `tchar` (legal in method and header names).
fn is_token_byte(b: u8) -> bool {
    matches!(b,
        b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9'
        | b'!' | b'#' | b'$' | b'%' | b'&' | b'\'' | b'*' | b'+' | b'-' | b'.'
        | b'^' | b'_' | b'`' | b'|' | b'~')
}

/// Find the end of the line starting at `from`: returns
/// `(line_without_terminator, next_offset)` or `None` if no `\n` yet.
/// Accepts both CRLF and bare-LF terminators (robustness; RFC 9112 §2.2).
fn take_line(buf: &[u8], from: usize) -> Option<(&[u8], usize)> {
    let rest = buf.get(from..)?;
    let nl = rest.iter().position(|&b| b == b'\n')?;
    let mut line = &rest[..nl];
    if let [head @ .., b'\r'] = line {
        line = head;
    }
    Some((line, from + nl + 1))
}

/// Split and validate the request line.
fn parse_request_line(line: &[u8], limits: &Limits) -> Result<(String, String, u8), ParseError> {
    if line.len() > limits.max_start_line {
        return Err(ParseError::UriTooLong);
    }
    let text = std::str::from_utf8(line)
        .map_err(|_| ParseError::BadRequest("request line is not utf-8"))?;
    let mut parts = text.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(ParseError::BadRequest("malformed request line")),
    };
    if method.is_empty() || !method.bytes().all(is_token_byte) {
        return Err(ParseError::BadRequest("malformed method"));
    }
    if !(target.starts_with('/') || target == "*") {
        return Err(ParseError::BadRequest("request target must be origin-form"));
    }
    let minor = match version {
        "HTTP/1.1" => 1,
        "HTTP/1.0" => 0,
        v if v.starts_with("HTTP/") => return Err(ParseError::VersionNotSupported),
        _ => return Err(ParseError::BadRequest("malformed http version")),
    };
    Ok((method.to_string(), target.to_string(), minor))
}

/// Parse one header line into `(lowercased name, trimmed value)`.
fn parse_header_line(line: &[u8]) -> Result<(String, String), ParseError> {
    let text =
        std::str::from_utf8(line).map_err(|_| ParseError::BadRequest("header is not utf-8"))?;
    let (name, value) = text
        .split_once(':')
        .ok_or(ParseError::BadRequest("header without a colon"))?;
    // RFC 9112 §5.1: no whitespace between the field name and the colon
    // (a classic smuggling vector across disagreeing parsers).
    if name.is_empty() || !name.bytes().all(is_token_byte) {
        return Err(ParseError::BadRequest("malformed header name"));
    }
    Ok((
        name.to_ascii_lowercase(),
        value.trim_matches([' ', '\t']).to_string(),
    ))
}

/// How the body is framed, decided from the parsed headers.
enum BodyFraming {
    None,
    Fixed(usize),
    Chunked,
}

/// Apply RFC 9112 §6 message-body rules, strictly.
fn body_framing(headers: &[(String, String)], limits: &Limits) -> Result<BodyFraming, ParseError> {
    let lengths: Vec<&str> = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str())
        .collect();
    let encodings: Vec<&str> = headers
        .iter()
        .filter(|(k, _)| k == "transfer-encoding")
        .map(|(_, v)| v.as_str())
        .collect();

    if !encodings.is_empty() {
        if !lengths.is_empty() {
            // The smuggling-shaped conflict: reject, never reconcile.
            return Err(ParseError::BadRequest(
                "content-length with transfer-encoding",
            ));
        }
        if encodings.len() > 1 || !encodings[0].trim().eq_ignore_ascii_case("chunked") {
            return Err(ParseError::NotImplemented("unsupported transfer-encoding"));
        }
        return Ok(BodyFraming::Chunked);
    }
    match lengths.as_slice() {
        [] => Ok(BodyFraming::None),
        [one] => {
            if one.is_empty() || !one.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ParseError::BadRequest("malformed content-length"));
            }
            let n: usize = one
                .parse()
                .map_err(|_| ParseError::BadRequest("content-length out of range"))?;
            if n > limits.max_body {
                return Err(ParseError::PayloadTooLarge);
            }
            Ok(BodyFraming::Fixed(n))
        }
        // Repeated Content-Length headers: reject even when they agree.
        _ => Err(ParseError::BadRequest("repeated content-length")),
    }
}

/// Decode a chunked body starting at `from`. Returns `Ok(None)` while
/// incomplete, otherwise the body and the offset just past the final CRLF.
fn decode_chunked(
    buf: &[u8],
    from: usize,
    limits: &Limits,
) -> Result<Option<(Vec<u8>, usize)>, ParseError> {
    let mut body = Vec::new();
    let mut at = from;
    loop {
        let Some((size_line, after_size)) = take_line(buf, at) else {
            return Ok(None);
        };
        // Chunk extensions (";ext=val") are tolerated and ignored.
        let size_text = size_line.split(|&b| b == b';').next().unwrap_or(b"");
        let size_text = std::str::from_utf8(size_text)
            .map_err(|_| ParseError::BadRequest("malformed chunk size"))?
            .trim();
        if size_text.is_empty() || size_text.len() > 8 {
            return Err(ParseError::BadRequest("malformed chunk size"));
        }
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| ParseError::BadRequest("malformed chunk size"))?;
        if body.len().saturating_add(size) > limits.max_body {
            return Err(ParseError::PayloadTooLarge);
        }
        if size == 0 {
            // Trailer section: skip header-shaped lines up to the blank.
            let mut t = after_size;
            loop {
                let Some((line, next)) = take_line(buf, t) else {
                    return Ok(None);
                };
                if line.is_empty() {
                    return Ok(Some((body, next)));
                }
                parse_header_line(line)?;
                if next - from > limits.max_head_bytes {
                    return Err(ParseError::HeadersTooLarge);
                }
                t = next;
            }
        }
        let data_end = after_size + size;
        let Some(data) = buf.get(after_size..data_end) else {
            return Ok(None);
        };
        // The chunk data must be followed by its own CRLF.
        let Some((crlf, next)) = take_line(buf, data_end) else {
            return Ok(None);
        };
        if !crlf.is_empty() {
            return Err(ParseError::BadRequest("chunk data not followed by crlf"));
        }
        body.extend_from_slice(data);
        at = next;
    }
}

/// Try to parse one complete request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a full request is
/// available, `Ok(None)` when more bytes are needed, and `Err` when the
/// bytes already received can never become a valid request.
///
/// # Errors
///
/// A [`ParseError`] naming the response status (4xx/501/505) to send.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Option<(Request, usize)>, ParseError> {
    // Request line.
    let Some((line, mut at)) = take_line(buf, 0) else {
        // Not even one full line yet: bound how long we will wait for one.
        if buf.len() > limits.max_start_line {
            return Err(ParseError::UriTooLong);
        }
        return Ok(None);
    };
    let (method, target, minor_version) = parse_request_line(line, limits)?;

    // Header block.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        if at > limits.max_head_bytes {
            return Err(ParseError::HeadersTooLarge);
        }
        let Some((line, next)) = take_line(buf, at) else {
            if buf.len() > limits.max_head_bytes {
                return Err(ParseError::HeadersTooLarge);
            }
            return Ok(None);
        };
        at = next;
        if line.is_empty() {
            break;
        }
        if line[0] == b' ' || line[0] == b'\t' {
            // Obsolete line folding: reject rather than unfold (RFC 9112 §5.2).
            return Err(ParseError::BadRequest("folded header"));
        }
        if headers.len() >= limits.max_headers {
            return Err(ParseError::HeadersTooLarge);
        }
        headers.push(parse_header_line(line)?);
    }

    // Body.
    let (body, consumed) = match body_framing(&headers, limits)? {
        BodyFraming::None => (Vec::new(), at),
        BodyFraming::Fixed(n) => match buf.get(at..at + n) {
            Some(data) => (data.to_vec(), at + n),
            None => return Ok(None),
        },
        BodyFraming::Chunked => match decode_chunked(buf, at, limits)? {
            Some((body, end)) => (body, end),
            None => return Ok(None),
        },
    };
    Ok(Some((
        Request {
            method,
            target,
            minor_version,
            headers,
            body,
        },
        consumed,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<(Request, usize)>, ParseError> {
        parse_request(bytes, &Limits::default())
    }

    fn must(bytes: &[u8]) -> (Request, usize) {
        parse(bytes).expect("parse ok").expect("complete")
    }

    #[test]
    fn parses_simple_get() {
        let (req, used) = must(b"GET /health?mode=full HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/health");
        assert_eq!(req.query_param("mode"), Some("full"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive());
        assert_eq!(
            used,
            b"GET /health?mode=full HTTP/1.1\r\nHost: x\r\n\r\n".len()
        );
    }

    #[test]
    fn parses_fixed_length_body_and_pipelines() {
        let wire = b"POST /ingest HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET / HTTP/1.1\r\n\r\n";
        let (req, used) = must(wire);
        assert_eq!(req.body, b"hello");
        let (second, _) = must(&wire[used..]);
        assert_eq!(second.method, "GET");
    }

    #[test]
    fn parses_chunked_body_with_extensions_and_trailers() {
        let wire = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                     5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\nX-Trailer: t\r\n\r\n";
        let (req, used) = must(wire);
        assert_eq!(req.body, b"hello world");
        assert_eq!(used, wire.len());
    }

    #[test]
    fn incomplete_requests_ask_for_more() {
        for wire in [
            &b"GET / HT"[..],
            b"GET / HTTP/1.1\r\nHost: x\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhal",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhel",
        ] {
            assert!(
                matches!(parse(wire), Ok(None)),
                "{:?}",
                String::from_utf8_lossy(wire)
            );
        }
    }

    #[test]
    fn smuggling_shapes_are_rejected() {
        let cl_te =
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        assert_eq!(parse(cl_te).unwrap_err().status(), 400);
        let dup = b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert_eq!(parse(dup).unwrap_err().status(), 400);
        let list = b"POST / HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\nhello";
        assert_eq!(parse(list).unwrap_err().status(), 400);
        let signed = b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello";
        assert_eq!(parse(signed).unwrap_err().status(), 400);
        let gzip = b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n";
        assert_eq!(parse(gzip).unwrap_err().status(), 501);
        let spaced = b"GET / HTTP/1.1\r\nHost : x\r\n\r\n";
        assert_eq!(parse(spaced).unwrap_err().status(), 400);
        let folded = b"GET / HTTP/1.1\r\nHost: x\r\n cont\r\n\r\n";
        assert_eq!(parse(folded).unwrap_err().status(), 400);
    }

    #[test]
    fn limits_are_enforced() {
        let long_line = [b"GET /".as_slice(), &vec![b'a'; 9000], b" HTTP/1.1\r\n\r\n"].concat();
        assert_eq!(parse(&long_line).unwrap_err(), ParseError::UriTooLong);
        // An unterminated start line longer than the limit fails early.
        assert_eq!(
            parse(&vec![b'a'; 9000]).unwrap_err(),
            ParseError::UriTooLong
        );

        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..200 {
            many.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(parse(&many).unwrap_err(), ParseError::HeadersTooLarge);

        let huge = b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        assert_eq!(parse(huge).unwrap_err(), ParseError::PayloadTooLarge);

        let chunked_huge = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nFFFFFFF0\r\n";
        assert_eq!(
            parse(chunked_huge).unwrap_err(),
            ParseError::PayloadTooLarge
        );
    }

    #[test]
    fn version_and_form_rules() {
        assert_eq!(parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err().status(), 505);
        assert_eq!(parse(b"GET / FTP/1.0\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(
            parse(b"GET http://x/ HTTP/1.1\r\n\r\n")
                .unwrap_err()
                .status(),
            400
        );
        assert_eq!(parse(b"GET  / HTTP/1.1\r\n\r\n").unwrap_err().status(), 400);
        let (req, _) = must(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive(), "HTTP/1.0 defaults to close");
        let (req, _) = must(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive());
        let (req, _) = must(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive());
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let (req, _) = must(b"GET /x HTTP/1.1\nHost: y\n\n");
        assert_eq!(req.path(), "/x");
        assert_eq!(req.header("host"), Some("y"));
    }
}
