//! Property tests and a fixed fuzz corpus for the HTTP/1.1 parser: on any
//! input, the parser returns `Ok(Some(..))`, `Ok(None)` or a 4xx/501/505
//! `ParseError` — it never panics, and malformed requests never parse.
//!
//! The request path is panic-free by construction (no indexing without
//! bounds, no unwraps on wire data); these tests are the audit that keeps
//! it that way without a `catch_unwind` net.

use cb_httpd::request::{parse_request, Limits, ParseError};
use cb_sim::prop::{bytes, check, one_of, string, vec};
use cb_sim::{prop_assert, prop_assert_eq};

fn small_limits() -> Limits {
    Limits {
        max_start_line: 256,
        max_head_bytes: 1024,
        max_headers: 16,
        max_body: 4096,
    }
}

/// The curated fuzz corpus: every historically nasty shape we reject, and
/// the status each must map to. Growing this list is how parser fixes get
/// pinned as regressions.
const REJECT_CORPUS: &[(&[u8], u16)] = &[
    // Smuggling-shaped framing conflicts.
    (
        b"POST / HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
        400,
    ),
    (
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 4\r\n\r\n0\r\n\r\n",
        400,
    ),
    (
        b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd",
        400,
    ),
    (
        b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcd",
        400,
    ),
    (b"POST / HTTP/1.1\r\nContent-Length: 4, 4\r\n\r\nabcd", 400),
    (b"POST / HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd", 400),
    (b"POST / HTTP/1.1\r\nContent-Length: 0x4\r\n\r\nabcd", 400),
    (b"POST / HTTP/1.1\r\nContent-Length: 4abc\r\n\r\nabcd", 400),
    (b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    // Transfer codings we refuse to guess about.
    (b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", 501),
    (
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked, gzip\r\n\r\n",
        501,
    ),
    (
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n",
        501,
    ),
    // Obsolete folding and whitespace games.
    (b"GET / HTTP/1.1\r\nHost: a\r\n b\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\nHost: a\r\n\tb\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\nHost : a\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\n: novalue\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\nBad Header: x\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\nnocolon\r\n\r\n", 400),
    // Request-line shapes.
    (b"GET  / HTTP/1.1\r\n\r\n", 400),
    (b"GET / HTTP/1.1 extra\r\n\r\n", 400),
    (b"GET http://evil/ HTTP/1.1\r\n\r\n", 400),
    (b"GET relative HTTP/1.1\r\n\r\n", 400),
    (b"G@T / HTTP/1.1\r\n\r\n", 400),
    (b" / HTTP/1.1\r\n\r\n", 400),
    (b"GET / HTTP/2.0\r\n\r\n", 505),
    (b"GET / HTTP/1.2\r\n\r\n", 505),
    (b"GET / SMTP/1.1\r\n\r\n", 400),
    // Chunked-body corruption.
    (
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
        400,
    ),
    (
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhelloX\r\n0\r\n\r\n",
        400,
    ),
    (
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nFFFFFFFF\r\n",
        413,
    ),
    (
        b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n123456789\r\n",
        400,
    ),
];

#[test]
fn reject_corpus_maps_to_expected_statuses() {
    for (wire, status) in REJECT_CORPUS {
        match parse_request(wire, &Limits::default()) {
            Err(e) => assert_eq!(
                e.status(),
                *status,
                "wire {:?} expected {status}, got {e:?}",
                String::from_utf8_lossy(wire)
            ),
            other => panic!(
                "wire {:?} must be rejected, got {other:?}",
                String::from_utf8_lossy(wire)
            ),
        }
    }
}

#[test]
fn oversized_inputs_map_to_bounded_statuses() {
    let limits = small_limits();
    let long_uri = [b"GET /".as_slice(), &vec![b'a'; 500], b" HTTP/1.1\r\n\r\n"].concat();
    assert_eq!(
        parse_request(&long_uri, &limits),
        Err(ParseError::UriTooLong)
    );

    let mut heads = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..64 {
        heads.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "v".repeat(32)).as_bytes());
    }
    heads.extend_from_slice(b"\r\n");
    assert_eq!(
        parse_request(&heads, &limits),
        Err(ParseError::HeadersTooLarge)
    );

    let body = b"POST / HTTP/1.1\r\nContent-Length: 5000\r\n\r\n".to_vec();
    assert_eq!(
        parse_request(&body, &limits),
        Err(ParseError::PayloadTooLarge)
    );
}

/// Arbitrary bytes: any outcome is fine, panicking is not.
#[test]
fn arbitrary_bytes_never_panic() {
    check(
        "arbitrary_bytes_never_panic",
        256,
        bytes(0..2048),
        |bytes| {
            let _ = parse_request(&bytes, &Limits::default());
            let _ = parse_request(&bytes, &small_limits());
            Ok(())
        },
    );
}

/// Request-shaped inputs with arbitrary header values: still no panic,
/// and any success must respect the body limit.
#[test]
fn header_shaped_inputs_never_panic() {
    // Header values cannot embed CR or LF.
    let value_bytes: Vec<u8> = (0..=u8::MAX)
        .filter(|b| *b != b'\r' && *b != b'\n')
        .collect();
    let inputs = (
        string("A-Za-z-", 1..=16),
        vec(one_of(&value_bytes), 0..128),
        bytes(0..256),
    );
    check(
        "header_shaped_inputs_never_panic",
        256,
        inputs,
        |(name, value, body)| {
            let mut wire = Vec::new();
            wire.extend_from_slice(b"POST /ingest HTTP/1.1\r\n");
            wire.extend_from_slice(name.as_bytes());
            wire.extend_from_slice(b": ");
            wire.extend_from_slice(&value);
            wire.extend_from_slice(b"\r\n");
            wire.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
            wire.extend_from_slice(&body);
            if let Ok(Some((req, consumed))) = parse_request(&wire, &Limits::default()) {
                prop_assert_eq!(req.body, body);
                prop_assert_eq!(consumed, wire.len());
            }
            Ok(())
        },
    );
}

/// Well-formed requests round-trip exactly, whole or truncated: every
/// strict prefix is `Ok(None)` or a reject, never a bogus success.
#[test]
fn well_formed_requests_parse_and_prefixes_stay_incomplete() {
    let inputs = (string("a-z0-9/", 0..=24), bytes(0..512), 0..=usize::MAX);
    check(
        "well_formed_requests_parse_and_prefixes_stay_incomplete",
        256,
        inputs,
        |(rest, body, cut)| {
            let path = format!("/{rest}");
            let wire = [
                format!(
                    "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
                    body.len()
                )
                .into_bytes(),
                body.clone(),
            ]
            .concat();
            let (req, consumed) = parse_request(&wire, &Limits::default())
                .expect("well-formed")
                .expect("complete");
            prop_assert_eq!(req.path(), path.as_str());
            prop_assert_eq!(req.body, body);
            prop_assert_eq!(consumed, wire.len());

            let cut = cut % wire.len().max(1);
            if cut < wire.len() {
                // A prefix is incomplete (`Ok(None)`) or rejected; a success
                // may only consume what it was given.
                if let Ok(Some((_, consumed))) = parse_request(&wire[..cut], &Limits::default()) {
                    prop_assert!(consumed <= cut);
                }
            }
            Ok(())
        },
    );
}

/// Chunked bodies reassemble to the exact payload for any chunking.
#[test]
fn chunked_bodies_reassemble() {
    check(
        "chunked_bodies_reassemble",
        256,
        (bytes(1..512), vec(1usize..64, 0..8)),
        |(payload, splits)| {
            let mut wire = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
            let mut rest = payload.as_slice();
            for s in splits {
                if rest.is_empty() {
                    break;
                }
                let take = s.min(rest.len());
                wire.extend_from_slice(format!("{take:x}\r\n").as_bytes());
                wire.extend_from_slice(&rest[..take]);
                wire.extend_from_slice(b"\r\n");
                rest = &rest[take..];
            }
            if !rest.is_empty() {
                wire.extend_from_slice(format!("{:x}\r\n", rest.len()).as_bytes());
                wire.extend_from_slice(rest);
                wire.extend_from_slice(b"\r\n");
            }
            wire.extend_from_slice(b"0\r\n\r\n");
            let (req, consumed) = parse_request(&wire, &Limits::default())
                .expect("well-formed")
                .expect("complete");
            prop_assert_eq!(req.body, payload);
            prop_assert_eq!(consumed, wire.len());
            Ok(())
        },
    );
}
