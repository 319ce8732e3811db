//! Fuzz and fixture tests for the hand-rolled HTTP/1.1 parser.
//!
//! The two properties the daemon's safety rests on:
//! 1. **No input panics** — arbitrary bytes, arbitrary prefixes, always
//!    a typed verdict (`Complete`/`Partial`/`HttpError`).
//! 2. **Round-trip** — any request the encoder side of the protocol can
//!    produce is parsed back identically, at every split point an
//!    injected short read could produce.

use proptest::collection;
use proptest::prelude::*;
use rtt_serve::http::{parse_request, HttpError, Limits, ParseStatus};

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(0u32..256, 0..512)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let limits = Limits::default();
        // Every prefix too: the incremental loop offers all of them.
        for cut in (0..=bytes.len()).step_by(7) {
            let _ = parse_request(&bytes[..cut], &limits);
        }
        let _ = parse_request(&bytes, &limits);
        // Tight budgets exercise the limit branches on the same input.
        let tight = Limits { max_head_bytes: 32, max_body_bytes: 8, max_headers: 2 };
        let _ = parse_request(&bytes, &tight);
    }

    #[test]
    fn near_valid_mutations_never_panic(
        seed in collection::vec(0u32..256, 1..24),
        pos in 0usize..64,
        bit in 0u32..8,
    ) {
        // Start from a valid request, then flip one bit somewhere: the
        // parser must still produce a typed verdict.
        let mut raw = b"POST /predict?design=a HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc".to_vec();
        let i = pos % raw.len();
        raw[i] ^= 1 << bit;
        // Then splice random garbage in as well.
        let at = seed[0] as usize % raw.len();
        let garbage: Vec<u8> = seed.iter().map(|&b| b as u8).collect();
        raw.splice(at..at, garbage);
        let _ = parse_request(&raw, &Limits::default());
    }

    #[test]
    fn valid_requests_round_trip(
        path_len in 1usize..12,
        body in collection::vec(0u32..256, 0..64),
        keep_alive in 0u32..2,
    ) {
        let path: String = std::iter::once('/')
            .chain((0..path_len).map(|i| (b'a' + (i % 26) as u8) as char))
            .collect();
        let body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();
        let conn = if keep_alive == 1 { "keep-alive" } else { "close" };
        let mut raw = format!(
            "POST {path}?k=v HTTP/1.1\r\nHost: t\r\nConnection: {conn}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&body);

        // Whole-buffer parse succeeds and consumes exactly the request.
        let limits = Limits::default();
        let ParseStatus::Complete { request, consumed } =
            parse_request(&raw, &limits).expect("valid request")
        else {
            panic!("complete request reported partial");
        };
        prop_assert_eq!(consumed, raw.len());
        prop_assert_eq!(&request.method, "POST");
        prop_assert_eq!(&request.path, &path);
        prop_assert_eq!(&request.query, "k=v");
        prop_assert_eq!(&request.body, &body);
        prop_assert_eq!(request.wants_close(), keep_alive == 0);

        // Every proper prefix is Partial — the short-read contract.
        for cut in 0..raw.len() {
            let status = parse_request(&raw[..cut], &limits).expect("prefix stays valid");
            prop_assert_eq!(status, ParseStatus::Partial, "cut={}", cut);
        }
    }
}

#[test]
fn fixture_requests_parse_as_expected() {
    let limits = Limits::default();
    let cases: &[(&[u8], Result<&str, HttpError>)] = &[
        (b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n", Ok("/healthz")),
        (b"GET /stats HTTP/1.0\r\n\r\n", Ok("/stats")),
        // Lenient bare-LF framing (curl-style hand-typed requests).
        (b"GET /healthz HTTP/1.1\nHost: a\n\n", Ok("/healthz")),
        (b"PATCH /x HTTP/3.0\r\n\r\n", Err(HttpError::Version)),
        (
            b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            Err(HttpError::TransferEncoding),
        ),
        (
            b"POST /p HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            Err(HttpError::Bad("bad content-length")),
        ),
        (
            b"POST /p HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
            Err(HttpError::Bad("bad content-length")),
        ),
        // Two different lengths: framing by either would misread the body.
        (
            b"POST /p HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 10\r\n\r\n0123456789",
            Err(HttpError::Bad("bad content-length")),
        ),
        (b"POST /p HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc", Ok("/p")),
        (b"OPTIONS * HTTP/1.1\r\n\r\n", Err(HttpError::Bad("target must be origin-form"))),
    ];
    for (raw, expected) in cases {
        match (parse_request(raw, &limits), expected) {
            (Ok(ParseStatus::Complete { request, .. }), Ok(path)) => {
                assert_eq!(&request.path, path, "{:?}", String::from_utf8_lossy(raw));
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, *want, "{:?}", String::from_utf8_lossy(raw));
            }
            (got, want) => {
                panic!("{:?}: got {:?}, wanted {:?}", String::from_utf8_lossy(raw), got, want);
            }
        }
    }
}

#[test]
fn a_giant_content_length_is_refused_before_buffering() {
    // usize::MAX would overflow a naive head+body add; the parser must
    // refuse at the budget check, not wrap around.
    let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", u64::MAX);
    assert_eq!(parse_request(raw.as_bytes(), &Limits::default()), Err(HttpError::BodyTooLarge));
}
