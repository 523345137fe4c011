//! Minimal HTTP/1.1 plumbing: request-head reading with a hard size
//! cap, request-line and query-string parsing, and response writing.
//! One request per connection (`Connection: close`) — the service is a
//! query API, not a general web server, and the simplification removes
//! whole classes of keep-alive state bugs.

use std::io::{self, Read, Write};

/// A parsed request line plus decoded query parameters. Headers are
/// read (to find the end of the head) but deliberately not retained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, …), as sent.
    pub method: String,
    /// Decoded path without the query string (`/best`).
    pub path: String,
    /// Decoded `key=value` query parameters, in wire order.
    pub query: Vec<(String, String)>,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request head could not be turned into a [`Request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Head exceeded the configured byte cap → 413.
    TooLarge,
    /// Socket read timed out before the head completed → 408.
    TimedOut,
    /// Peer closed or errored mid-head; nothing to answer.
    Disconnected,
    /// Syntactically invalid request → 400.
    Malformed(&'static str),
}

/// Read from `stream` until the end of the request head (`\r\n\r\n`),
/// failing with `TooLarge` once it outgrows `cap` bytes. Returns the
/// raw head bytes.
pub fn read_head(stream: &mut impl Read, cap: usize) -> Result<Vec<u8>, ParseError> {
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 512];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => return Err(ParseError::Disconnected),
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ) =>
            {
                return Err(ParseError::TimedOut)
            }
            Err(_) => return Err(ParseError::Disconnected),
        };
        head.extend_from_slice(&buf[..n]);
        if let Some(end) = find_head_end(&head) {
            head.truncate(end);
            return Ok(head);
        }
        if head.len() > cap {
            return Err(ParseError::TooLarge);
        }
    }
}

fn find_head_end(head: &[u8]) -> Option<usize> {
    head.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
}

/// Parse the request line out of a raw head.
pub fn parse_request(head: &[u8]) -> Result<Request, ParseError> {
    let text = std::str::from_utf8(head).map_err(|_| ParseError::Malformed("non-utf8 head"))?;
    let line = text
        .lines()
        .next()
        .ok_or(ParseError::Malformed("empty head"))?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::Malformed("bad request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Malformed("unsupported protocol version"));
    }
    if !target.starts_with('/') {
        return Err(ParseError::Malformed("target is not origin-form"));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(raw_path).ok_or(ParseError::Malformed("bad path encoding"))?;
    let query = parse_query(raw_query).ok_or(ParseError::Malformed("bad query encoding"))?;
    Ok(Request {
        method: method.to_string(),
        path,
        query,
    })
}

/// Decode `a=b&c=d` (with `%xx` and `+`) into pairs; `None` on a bad
/// escape. Empty segments are skipped, a key without `=` gets `""`.
pub fn parse_query(raw: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    for piece in raw.split('&') {
        if piece.is_empty() {
            continue;
        }
        let (k, v) = match piece.split_once('=') {
            Some((k, v)) => (k, v),
            None => (piece, ""),
        };
        out.push((percent_decode(k)?, percent_decode(v)?));
    }
    Some(out)
}

/// Percent-decode, with `+` as space; `None` on truncated/bad escapes.
pub fn percent_decode(s: &str) -> Option<String> {
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'%' => {
                let hex = b.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// A response ready to be written. Every body is JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A 200 with a JSON body.
    pub fn ok(body: String) -> Response {
        Response { status: 200, body }
    }

    /// An error status with a canonical `{"error": …}` body.
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            body: musa_obs::json::JsonObj::new()
                .field_u64("status", status as u64)
                .field_str("error", message)
                .finish(),
        }
    }
}

/// Canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Serialise and write a response; always closes the connection after.
pub fn write_response(stream: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        reason(resp.status),
        resp.body.len(),
    );
    if resp.status == 503 {
        head.push_str("Retry-After: 1\r\n");
    }
    if resp.status == 405 {
        head.push_str("Allow: GET\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Request, ParseError> {
        parse_request(format!("{line}\r\nHost: x\r\n\r\n").as_bytes())
    }

    #[test]
    fn request_line_and_query_parse() {
        let req = parse_line("GET /best?app=hydro&metric=time_ns&k=3 HTTP/1.1").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/best");
        assert_eq!(req.param("app"), Some("hydro"));
        assert_eq!(req.param("metric"), Some("time_ns"));
        assert_eq!(req.param("k"), Some("3"));
        assert_eq!(req.param("missing"), None);
    }

    #[test]
    fn percent_decoding_applies_to_path_and_query() {
        let req = parse_line("GET /rows?cache=64M%3A512K&x=a+b HTTP/1.1").unwrap();
        assert_eq!(req.param("cache"), Some("64M:512K"));
        assert_eq!(req.param("x"), Some("a b"));
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "GET",
            "GET /x",
            "GET /x HTTP/1.1 extra",
            "GET relative HTTP/1.1",
            "GET /x SPDY/3",
            "GET /%zz HTTP/1.1",
            " / HTTP/1.1",
        ] {
            assert!(
                matches!(parse_line(line), Err(ParseError::Malformed(_))),
                "should reject {line:?}"
            );
        }
    }

    #[test]
    fn head_reader_enforces_cap_and_finds_terminator() {
        let mut wire: &[u8] = b"GET / HTTP/1.1\r\nHost: x\r\n\r\ntrailing-bytes";
        let head = read_head(&mut wire, 1024).unwrap();
        assert!(head.ends_with(b"\r\n\r\n"));
        assert!(!head.windows(8).any(|w| w == b"trailing"));

        let big = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(4096));
        let mut wire: &[u8] = big.as_bytes();
        assert_eq!(read_head(&mut wire, 256), Err(ParseError::TooLarge));

        let mut wire: &[u8] = b"GET / HTTP";
        assert_eq!(read_head(&mut wire, 1024), Err(ParseError::Disconnected));
    }

    #[test]
    fn responses_serialise_with_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::error(503, "overloaded")).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        let body = text.split("\r\n\r\n").nth(1).unwrap();
        assert!(text.contains(&format!("Content-Length: {}\r\n", body.len())));
        assert!(body.contains("\"error\":\"overloaded\""));
    }
}
