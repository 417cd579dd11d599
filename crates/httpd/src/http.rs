//! Minimal HTTP/1.1 framing: just enough of RFC 9112 for the serving
//! plane — request lines, the `Connection` and `Content-Length` headers,
//! and byte-exact "how much of the buffer did this message consume"
//! accounting so pipelined messages parse out of one receive buffer.
//!
//! Bodies only exist on responses (requests are GETs), and every
//! response carries an explicit `Content-Length`, so framing never needs
//! chunked encoding.

/// Cap on a message head (request line / status line + headers). A peer
/// that streams more than this without the blank-line terminator is not
/// speaking HTTP; the caller should drop the connection.
pub const MAX_HEAD: usize = 4096;

/// A parsed request head. Borrowed from the receive buffer — no copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    /// The method token (`GET`, …).
    pub method: &'a str,
    /// The request target, e.g. `/static/0`.
    pub path: &'a str,
    /// `true` when the connection must close after this exchange: the
    /// client sent `Connection: close`, or spoke HTTP/1.0 without
    /// `Connection: keep-alive` (implicit close is 1.0's default).
    pub close: bool,
    /// `true` when the request line said `HTTP/1.0`.
    pub http10: bool,
}

/// Outcome of a request-parse attempt over a (possibly still filling)
/// receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqParse<'a> {
    /// A full head was present: the request, and the bytes it consumed
    /// (the caller drains them and may parse again — pipelining).
    Complete(Request<'a>, usize),
    /// No blank-line terminator yet; read more.
    Partial,
    /// Not HTTP (malformed line, oversized head): drop the connection.
    Bad,
}

/// Outcome of a response-parse attempt (client side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespParse {
    /// A full response (head + declared body) was present: its status
    /// code, whether the server announced `Connection: close`, and the
    /// bytes consumed.
    Complete {
        /// HTTP status code.
        status: u16,
        /// Server announced it will close after this response.
        close: bool,
        /// Bytes of the buffer this response consumed.
        consumed: usize,
    },
    /// Head or body still incomplete; read more.
    Partial,
    /// Malformed; drop the connection.
    Bad,
}

/// Finds the end of the head (`\r\n\r\n`), returning the offset just
/// past it.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Case-insensitive ASCII prefix test.
fn starts_with_ci(line: &[u8], prefix: &[u8]) -> bool {
    line.len() >= prefix.len()
        && line
            .iter()
            .zip(prefix)
            .all(|(a, b)| a.eq_ignore_ascii_case(b))
}

/// The `Connection` header's value, as far as framing cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnHdr {
    /// No `Connection` header (the version's default applies).
    Absent,
    /// `Connection: close`.
    Close,
    /// `Connection: keep-alive` (how HTTP/1.0 opts into persistence).
    KeepAlive,
}

/// Scans header lines (between the first line and the blank line) for
/// `Connection` and `Content-Length` (0 when absent), tolerating optional
/// spaces after the colon. `None` when a `Content-Length` is not a number
/// that fits in `usize`: the message cannot be framed.
fn scan_headers(head: &[u8]) -> Option<(ConnHdr, usize)> {
    let mut conn = ConnHdr::Absent;
    let mut content_length = 0;
    for line in head.split(|&b| b == b'\n').skip(1) {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if starts_with_ci(line, b"connection:") {
            let v = line[b"connection:".len()..].trim_ascii();
            conn = if v.eq_ignore_ascii_case(b"close") {
                ConnHdr::Close
            } else if v.eq_ignore_ascii_case(b"keep-alive") {
                ConnHdr::KeepAlive
            } else {
                ConnHdr::Absent
            };
        } else if starts_with_ci(line, b"content-length:") {
            let v = line[b"content-length:".len()..].trim_ascii();
            content_length = std::str::from_utf8(v).ok()?.parse().ok()?;
        }
    }
    Some((conn, content_length))
}

/// Parses one request head from the front of `buf`.
pub fn parse_request(buf: &[u8]) -> ReqParse<'_> {
    let Some(end) = head_end(buf) else {
        return if buf.len() > MAX_HEAD {
            ReqParse::Bad
        } else {
            ReqParse::Partial
        };
    };
    let head = &buf[..end];
    let Some(line_end) = head.windows(2).position(|w| w == b"\r\n") else {
        return ReqParse::Bad;
    };
    let Ok(line) = std::str::from_utf8(&head[..line_end]) else {
        return ReqParse::Bad;
    };
    let mut parts = line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return ReqParse::Bad;
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") || path.is_empty() {
        return ReqParse::Bad;
    }
    let http10 = version == "HTTP/1.0";
    let Some((conn, content_length)) = scan_headers(head) else {
        return ReqParse::Bad;
    };
    if content_length > 0 {
        // The serving plane is GET-only; a request body is out of scope.
        return ReqParse::Bad;
    }
    // HTTP/1.0 defaults to close; persistence is opt-in via
    // `Connection: keep-alive`. HTTP/1.1 is the reverse.
    let close = match conn {
        ConnHdr::Close => true,
        ConnHdr::KeepAlive => false,
        ConnHdr::Absent => http10,
    };
    ReqParse::Complete(
        Request {
            method,
            path,
            close,
            http10,
        },
        end,
    )
}

/// Parses one response (head + `Content-Length` body) from the front of
/// `buf`.
pub fn parse_response(buf: &[u8]) -> RespParse {
    let Some(end) = head_end(buf) else {
        return if buf.len() > MAX_HEAD {
            RespParse::Bad
        } else {
            RespParse::Partial
        };
    };
    let head = &buf[..end];
    let Some(line_end) = head.windows(2).position(|w| w == b"\r\n") else {
        return RespParse::Bad;
    };
    let Ok(line) = std::str::from_utf8(&head[..line_end]) else {
        return RespParse::Bad;
    };
    let mut parts = line.splitn(3, ' ');
    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
        return RespParse::Bad;
    };
    if !version.starts_with("HTTP/1.") {
        return RespParse::Bad;
    }
    let Ok(status) = code.parse::<u16>() else {
        return RespParse::Bad;
    };
    let Some((conn, body)) = scan_headers(head) else {
        return RespParse::Bad;
    };
    let close = match conn {
        ConnHdr::Close => true,
        ConnHdr::KeepAlive => false,
        ConnHdr::Absent => version == "HTTP/1.0",
    };
    let Some(total) = end.checked_add(body) else {
        return RespParse::Bad;
    };
    if buf.len() < total {
        return RespParse::Partial;
    }
    RespParse::Complete {
        status,
        close,
        consumed: total,
    }
}

/// Appends a request head for `path` onto `out`. `close` adds
/// `Connection: close` (the churn mix's close-per-request mode — and the
/// final request of a keep-alive connection).
pub fn build_request(path: &str, close: bool, out: &mut Vec<u8>) {
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: capnet\r\n");
    if close {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Appends a `503 Service Unavailable` with a `Retry-After` hint onto
/// `out` — the graceful-degradation shape an overloaded server sends
/// before closing (see [`crate::HttpServerConfig::max_conns`]).
pub fn build_503(retry_after_ms: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(
        b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nRetry-After: ",
    );
    // Retry-After is delay-seconds (RFC 9110 §10.2.3), rounded up so a
    // sub-second hint never says "now".
    push_decimal(retry_after_ms.div_ceil(1000), out);
    out.extend_from_slice(b"\r\nConnection: close\r\n\r\n");
}

/// Appends `n` in decimal onto `out`, without an intermediate string.
fn push_decimal(n: u64, out: &mut Vec<u8>) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends a full response (status line, `Content-Length`, `Connection`,
/// body) onto `out`.
pub fn build_response(status: u16, reason: &str, body: &[u8], close: bool, out: &mut Vec<u8>) {
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(u64::from(status), out);
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_decimal(body.len() as u64, out);
    out.extend_from_slice(if close {
        b"\r\nConnection: close\r\n\r\n".as_slice()
    } else {
        b"\r\nConnection: keep-alive\r\n\r\n".as_slice()
    });
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_and_pipelining() {
        let mut wire = Vec::new();
        build_request("/a", false, &mut wire);
        build_request("/b", true, &mut wire);
        let ReqParse::Complete(r1, used1) = parse_request(&wire) else {
            panic!("first request should parse");
        };
        assert_eq!((r1.method, r1.path, r1.close), ("GET", "/a", false));
        let ReqParse::Complete(r2, used2) = parse_request(&wire[used1..]) else {
            panic!("pipelined request should parse");
        };
        assert_eq!((r2.path, r2.close), ("/b", true));
        assert_eq!(used1 + used2, wire.len());
    }

    #[test]
    fn partial_and_bad_requests() {
        let mut wire = Vec::new();
        build_request("/a", false, &mut wire);
        for cut in 1..wire.len() {
            assert_eq!(parse_request(&wire[..cut]), ReqParse::Partial, "cut {cut}");
        }
        assert_eq!(parse_request(b"nonsense\r\n\r\n"), ReqParse::Bad);
        assert_eq!(
            parse_request(b"GET / HTTP/1.1 extra\r\n\r\n"),
            ReqParse::Bad
        );
        let oversized = vec![b'x'; MAX_HEAD + 1];
        assert_eq!(parse_request(&oversized), ReqParse::Bad);
    }

    #[test]
    fn response_roundtrip_with_body() {
        let mut wire = Vec::new();
        build_response(200, "OK", b"hello", false, &mut wire);
        build_response(404, "Not Found", b"", true, &mut wire);
        let RespParse::Complete {
            status,
            close,
            consumed,
        } = parse_response(&wire)
        else {
            panic!("response should parse");
        };
        assert_eq!((status, close), (200, false));
        assert!(wire[..consumed].ends_with(b"hello"));
        let RespParse::Complete { status, close, .. } = parse_response(&wire[consumed..]) else {
            panic!("second response should parse");
        };
        assert_eq!((status, close), (404, true));
    }

    /// Status, length and Retry-After fields are written in decimal
    /// without an intermediate string, byte for byte as `format!` would.
    #[test]
    fn decimal_fields_are_exact() {
        for n in [0, 7, 10, 99, 404, 65_535, u64::MAX] {
            let mut out = b"x".to_vec();
            push_decimal(n, &mut out);
            assert_eq!(out, format!("x{n}").into_bytes());
        }
        let mut wire = Vec::new();
        build_503(1_001, &mut wire);
        let field = b"Retry-After: 2\r\n";
        assert!(wire.windows(field.len()).any(|w| w == field));
    }

    /// HTTP/1.0 close semantics are the inverse of 1.1's: implicit close
    /// unless the client opts into `Connection: keep-alive`.
    #[test]
    fn http10_defaults_to_close() {
        let wire = b"GET /a HTTP/1.0\r\nHost: capnet\r\n\r\n";
        let ReqParse::Complete(r, used) = parse_request(wire) else {
            panic!("1.0 request should parse");
        };
        assert!(r.http10);
        assert!(r.close, "bare HTTP/1.0 implies close");
        assert_eq!(used, wire.len());

        let ka = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        let ReqParse::Complete(r, _) = parse_request(ka) else {
            panic!("keep-alive 1.0 request should parse");
        };
        assert!(r.http10 && !r.close, "keep-alive opts out of the close");

        let mut wire = Vec::new();
        build_request("/a", false, &mut wire);
        let ReqParse::Complete(r, _) = parse_request(&wire) else {
            panic!();
        };
        assert!(!r.http10 && !r.close, "1.1 defaults to persistent");
    }

    #[test]
    fn overload_503_carries_retry_after() {
        let mut wire = Vec::new();
        build_503(2_500, &mut wire);
        let RespParse::Complete {
            status,
            close,
            consumed,
        } = parse_response(&wire)
        else {
            panic!("503 should parse");
        };
        assert_eq!((status, close, consumed), (503, true, wire.len()));
        let text = std::str::from_utf8(&wire).unwrap();
        assert!(text.contains("Retry-After: 3"), "2.5 s rounds up: {text}");
    }

    #[test]
    fn response_body_must_arrive_fully() {
        let mut wire = Vec::new();
        build_response(200, "OK", b"0123456789", false, &mut wire);
        assert_eq!(parse_response(&wire[..wire.len() - 1]), RespParse::Partial);
        assert!(matches!(
            parse_response(&wire),
            RespParse::Complete { consumed, .. } if consumed == wire.len()
        ));
    }

    /// A `Content-Length` near `usize::MAX` cannot overflow the framing
    /// arithmetic: the response is refused, not wrapped (or a panic in a
    /// debug build).
    #[test]
    fn an_overflowing_content_length_is_bad() {
        let max = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert_eq!(parse_response(max.as_bytes()), RespParse::Bad);
        let over = format!("HTTP/1.1 200 OK\r\nContent-Length: {}0\r\n\r\n", usize::MAX);
        assert_eq!(parse_response(over.as_bytes()), RespParse::Bad);
        let req = format!("GET / HTTP/1.1\r\nContent-Length: {}0\r\n\r\n", usize::MAX);
        assert_eq!(parse_request(req.as_bytes()), ReqParse::Bad);
    }

    /// A `Content-Length` that is not a number frames nothing: both
    /// parsers refuse it instead of reading it as absent.
    #[test]
    fn an_unparseable_content_length_is_bad() {
        for v in ["x", "", "-1", "1 2"] {
            let resp = format!("HTTP/1.1 200 OK\r\nContent-Length: {v}\r\n\r\n");
            assert_eq!(parse_response(resp.as_bytes()), RespParse::Bad, "{v:?}");
            let req = format!("GET / HTTP/1.1\r\nContent-Length: {v}\r\n\r\n");
            assert_eq!(parse_request(req.as_bytes()), ReqParse::Bad, "{v:?}");
        }
    }
}
