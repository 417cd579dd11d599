//! Fuzz suite for the HTTP framing in `capnet_httpd::http`: the server
//! parses whatever a client sends and the fleet whatever a server sends,
//! so neither parser may panic on any input, and a `Complete` parse
//! consumes at least one byte and never more than it was given.
//!
//! A pipelining reader sees a valid message in arbitrary chunks, so every
//! strict prefix of what `build_request` / `build_response` / `build_503`
//! write must parse `Partial` — never `Bad` — and the whole message
//! `Complete`, consuming all of it.

use capnet_httpd::http::{
    build_503, build_request, build_response, parse_request, parse_response, ReqParse, RespParse,
};
use proptest::prelude::*;
use proptest::runner::TestCaseError;

/// A parse of a buffer: `None` is `Bad`, `Some(None)` is `Partial` and
/// `Some(Some(n))` is `Complete`, consuming `n` bytes.
type Outcome = Option<Option<usize>>;

fn request(buf: &[u8]) -> Outcome {
    match parse_request(buf) {
        ReqParse::Complete(_, used) => Some(Some(used)),
        ReqParse::Partial => Some(None),
        ReqParse::Bad => None,
    }
}

fn response(buf: &[u8]) -> Outcome {
    match parse_response(buf) {
        RespParse::Complete { consumed, .. } => Some(Some(consumed)),
        RespParse::Partial => Some(None),
        RespParse::Bad => None,
    }
}

/// Both parsers on `buf`: no panic, and a `Complete` consumes a span in
/// `1..=buf.len()`.
fn check_both(buf: &[u8]) -> Result<(), TestCaseError> {
    for parse in [request, response] {
        if let Some(Some(used)) = parse(buf) {
            prop_assert!((1..=buf.len()).contains(&used), "{used} of {}", buf.len());
        }
    }
    Ok(())
}

/// Every strict prefix of `wire` parses `Partial` under `parse`, and the
/// whole of it parses `Complete`, consuming all of it.
fn check_prefixes(wire: &[u8], parse: fn(&[u8]) -> Outcome) -> Result<(), TestCaseError> {
    for cut in 0..wire.len() {
        prop_assert_eq!(
            parse(&wire[..cut]),
            Some(None),
            "prefix {} of {:?}",
            cut,
            wire
        );
    }
    prop_assert_eq!(parse(wire), Some(Some(wire.len())));
    Ok(())
}

/// `Content-Length` values: small, any `u64`, within 64 of `u64::MAX`
/// (where `head + body` overflows), overlong digit runs and arbitrary text.
fn content_length_text() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..=64).prop_map(|n| n.to_string()),
        any::<u64>().prop_map(|n| n.to_string()),
        (0u64..=64).prop_map(|d| (u64::MAX - d).to_string()),
        "[0-9]{15,25}",
        "[ -~]{0,12}",
    ]
}

/// A header line: `Content-Length` with any value, a `Connection` header,
/// or arbitrary printable text.
fn header_line() -> impl Strategy<Value = String> {
    prop_oneof![
        content_length_text().prop_map(|v| format!("Content-Length: {v}")),
        content_length_text().prop_map(|v| format!("content-length:{v}")),
        Just("Connection: close".to_string()),
        Just("Connection: keep-alive".to_string()),
        "[ -~]{0,30}",
    ]
}

/// A first line: a request line, a status line, or arbitrary text.
fn first_line() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("GET / HTTP/1.1".to_string()),
        Just("GET /a HTTP/1.0".to_string()),
        Just("HTTP/1.1 200 OK".to_string()),
        Just("HTTP/1.0 503 Service Unavailable".to_string()),
        "[ -~]{0,24}",
    ]
}

proptest! {
    /// Arbitrary bytes up to 2 KiB: no panic, sane `Complete` spans.
    #[test]
    fn arbitrary_bytes_never_panic_either_parser(
        buf in proptest::collection::vec(any::<u8>(), 0..2_048),
    ) {
        check_both(&buf)?;
    }

    /// A terminated head of arbitrary header lines, any `Content-Length`
    /// text among them, and a body: no panic and sane spans, whole and
    /// cut anywhere.
    #[test]
    fn heads_with_any_content_length_never_panic(
        first in first_line(),
        lines in proptest::collection::vec(header_line(), 0..16),
        body in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0usize..2_048,
    ) {
        let mut buf = first.into_bytes();
        buf.extend_from_slice(b"\r\n");
        for line in &lines {
            buf.extend_from_slice(line.as_bytes());
            buf.extend_from_slice(b"\r\n");
        }
        buf.extend_from_slice(b"\r\n");
        buf.extend_from_slice(&body);
        check_both(&buf)?;
        check_both(&buf[..cut.min(buf.len())])?;
    }

    /// One `Content-Length` of any text after any first line: the header
    /// that alone decides how much a response frames.
    #[test]
    fn any_single_content_length_never_panics(
        first in first_line(),
        value in content_length_text(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = format!("{first}\r\nContent-Length: {value}\r\n\r\n").into_bytes();
        buf.extend_from_slice(&body);
        check_both(&buf)?;
    }

    /// What the fleet writes: partial until the last byte, then complete.
    #[test]
    fn built_requests_are_partial_until_complete(
        path in "/[a-zA-Z0-9._~-]{0,40}",
        close: bool,
    ) {
        let mut wire = Vec::new();
        build_request(&path, close, &mut wire);
        check_prefixes(&wire, request)?;
    }

    /// What the server writes: partial until the last body byte, then
    /// complete.
    #[test]
    fn built_responses_are_partial_until_complete(
        status: u16,
        reason in "[A-Za-z ]{0,20}",
        body in proptest::collection::vec(any::<u8>(), 0..256),
        close: bool,
        retry_after_ms: u64,
    ) {
        let mut wire = Vec::new();
        build_response(status, &reason, &body, close, &mut wire);
        check_prefixes(&wire, response)?;
        let mut wire = Vec::new();
        build_503(retry_after_ms, &mut wire);
        check_prefixes(&wire, response)?;
    }
}
